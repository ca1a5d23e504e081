"""Mid-price predictors and their dropout variants.

Four kinds share one interface:

  dropout-net   a small feed-forward network over the last `window` log
                returns, trained by full-batch gradient descent on the next
                log return, with inverted dropout on hidden activations
  persistence   predicts the current mid (surprise identically zero)
  leaked        predicts the mid `horizon` ticks ahead by reading it; the
                deliberately impossible upper baseline
  noise         current mid times exp of a counter-based gaussian of
                (seed, ts): one hash per tick, no generator state

Forecasts come as whole series: `surprise_series` gives the relative
predicted move at every tick. Variants: `sample_variants` freezes K dropout
masks; each variant applies its mask at inference across all timesteps, so
variant k is a deterministic function of (base predictor, mask seed k), and
`variant_surprise_series` gives its series.

Everything is seed-deterministic: training the same series with the same
spec twice yields bit-identical weights, and no call touches global random
state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateError, ValidationError
from .market_data import TickSeries

KIND_NET = "dropout-net"
KIND_PERSISTENCE = "persistence"
KIND_LEAKED = "leaked"
KIND_NOISE = "noise"
KINDS = (KIND_NET, KIND_PERSISTENCE, KIND_LEAKED, KIND_NOISE)


@dataclass(frozen=True)
class TrainSpec:
    """Network shape and full-batch gradient descent settings."""

    window: int = 8
    hidden: Tuple[int, ...] = (16,)
    dropout_p: float = 0.2
    epochs: int = 200
    learning_rate: float = 0.05
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.window < 1:
            raise ValidationError("window must be at least 1")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValidationError("hidden sizes must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValidationError("dropout_p must lie in [0, 1)")
        if self.epochs < 1:
            raise ValidationError("epochs must be at least 1")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.l2 < 0:
            raise ValidationError("l2 must be nonnegative")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")


@dataclass(frozen=True)
class Predictor:
    """Immutable trained predictor. Build via train() or the make_* helpers."""

    kind: str
    train_spec: Optional[TrainSpec] = None
    weights: Tuple[np.ndarray, ...] = ()
    biases: Tuple[np.ndarray, ...] = ()
    scale: float = 1.0
    horizon: int = 1
    noise_scale: float = 0.0
    noise_seed: int = 0
    final_loss: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(f"unknown predictor kind '{self.kind}'")
        for w in (*self.weights, *self.biases):
            w.setflags(write=False)

    @property
    def window(self) -> int:
        return self.train_spec.window if self.train_spec is not None else 0

    @property
    def dropout_p(self) -> float:
        return self.train_spec.dropout_p if self.train_spec is not None else 0.0


def make_persistence() -> Predictor:
    return Predictor(kind=KIND_PERSISTENCE)


def make_leaked(horizon: int = 1) -> Predictor:
    if horizon < 1:
        raise ValidationError("leak horizon must be at least 1")
    return Predictor(kind=KIND_LEAKED, horizon=horizon)


def make_noise(scale: float, seed: int = 0) -> Predictor:
    if scale < 0:
        raise ValidationError("noise scale must be nonnegative")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    return Predictor(kind=KIND_NOISE, noise_scale=scale, noise_seed=seed)


def _forward(x: np.ndarray, weights: Sequence[np.ndarray],
             biases: Sequence[np.ndarray],
             masks: Optional[Sequence[np.ndarray]] = None,
             keep_scale: float = 1.0) -> np.ndarray:
    """Batch forward pass; masks (if given) multiply hidden activations."""
    h = x
    last = len(weights) - 1
    for l in range(last):
        h = np.tanh(h @ weights[l] + biases[l])
        if masks is not None:
            h = h * masks[l] * keep_scale
    return (h @ weights[last] + biases[last])[:, 0]


def _training_arrays(series: TickSeries, window: int) -> Tuple[np.ndarray, np.ndarray]:
    r = np.diff(np.log(series.mid))
    x = np.lib.stride_tricks.sliding_window_view(r, window)[:-1]
    y = r[window:]
    return x, y


def train(series: TickSeries, spec: TrainSpec) -> Predictor:
    """Fit the dropout network to one series.

    Inputs are the last `window` log returns, the target is the next log
    return, both standardized by the training return volatility. The loss
    is mean squared error plus an l2 weight penalty, minimized by
    full-batch gradient descent with fresh dropout masks each epoch.
    """
    if len(series) < spec.window + 2:
        raise ValidationError(
            f"series too short to train: {len(series)} ticks, "
            f"need at least {spec.window + 2}")
    x_raw, y_raw = _training_arrays(series, spec.window)
    scale = float(y_raw.std()) if float(y_raw.std()) > 0 else 1.0
    x = x_raw / scale
    y = y_raw / scale
    n = x.shape[0]

    rng = np.random.default_rng(spec.seed)
    sizes = (spec.window, *spec.hidden, 1)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / math.sqrt(fan_in), (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    last = len(weights) - 1
    p = spec.dropout_p
    keep_scale = 1.0 / (1.0 - p) if p > 0 else 1.0

    for epoch in range(spec.epochs):
        acts = [x]      # input fed into each weight layer (post-mask)
        tanhs = []      # unmasked tanh outputs, for the backward pass
        masks = []
        h = x
        for l in range(last):
            a = np.tanh(h @ weights[l] + biases[l])
            tanhs.append(a)
            if p > 0:
                m = rng.random(a.shape) >= p
                h = a * m * keep_scale
                masks.append(m)
            else:
                h = a
            acts.append(h)
        pred = (h @ weights[last] + biases[last])[:, 0]
        resid = pred - y
        loss = float(np.mean(resid ** 2)) \
            + spec.l2 * sum(float((w ** 2).sum()) for w in weights)
        if not math.isfinite(loss):
            raise DegenerateError(f"non-finite training loss at epoch {epoch}")
        grad = (2.0 / n) * resid[:, None]
        for l in range(last, -1, -1):
            gw = acts[l].T @ grad + 2.0 * spec.l2 * weights[l]
            gb = grad.sum(axis=0)
            if l > 0:
                grad = grad @ weights[l].T
                if p > 0:
                    grad = grad * masks[l - 1] * keep_scale
                grad = grad * (1.0 - tanhs[l - 1] ** 2)
            weights[l] = weights[l] - spec.learning_rate * gw
            biases[l] = biases[l] - spec.learning_rate * gb

    # report the dropout-free in-sample MSE in raw return units
    final = _forward(x, weights, biases) - y
    final_loss = float(np.mean(final ** 2)) * scale * scale
    if not math.isfinite(final_loss):
        raise DegenerateError(f"non-finite training loss at epoch {spec.epochs - 1}")
    return Predictor(kind=KIND_NET, train_spec=spec,
                     weights=tuple(weights), biases=tuple(biases),
                     scale=scale, final_loss=final_loss)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_TOP_HALF = np.uint64(1 << 52)
_MASK53 = np.uint64((1 << 53) - 1)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer: a uint64 bijection with full avalanche."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def eps(seed: int, ts: np.ndarray) -> np.ndarray:
    """Standard normal draw per timestamp, a pure function of (seed, ts).

    Counter-based (Salmon et al., SC 2011): each (seed, ts) pair is hashed
    to 64 bits, the top 53 give u = (k + 1/2) / 2**53 in (0, 1), and the
    draw is ndtri(u). Upper-half u are reflected, ndtri(u) = -ndtri(1 - u),
    so u is formed exactly and never rounds onto 1.
    """
    key = _mix64(np.array([seed % (1 << 64)], dtype=np.uint64) + _GOLDEN)
    ts_bits = np.ascontiguousarray(ts, dtype=np.int64).view(np.uint64)
    k = _mix64(_mix64(ts_bits) + key) >> np.uint64(11)
    draw = ndtri((np.minimum(k, k ^ _MASK53) + 0.5) * 2.0 ** -53)
    return np.where(k >= _TOP_HALF, -draw, draw)


def surprise_series(p: Predictor, series: TickSeries) -> np.ndarray:
    """Surprise at every tick; NaN where the predictor is undefined.

    The net needs `window` prior returns, so its first `window` entries are
    NaN; the leaked predictor reads `horizon` ticks ahead, so its last
    `horizon` entries are NaN.
    """
    n = len(series)
    if p.kind == KIND_PERSISTENCE:
        return np.zeros(n)
    midv = series.mid
    if p.kind == KIND_LEAKED:
        out = np.full(n, np.nan)
        h = p.horizon
        if h < n:
            out[:n - h] = midv[h:] / midv[:n - h] - 1.0
        return out
    if p.kind == KIND_NOISE:
        return np.exp(p.noise_scale * eps(p.noise_seed, series.ts)) - 1.0
    return _net_surprise(p, series, None, 1.0)


def _net_surprise(p: Predictor, series: TickSeries,
                  masks: Optional[Sequence[np.ndarray]],
                  keep_scale: float) -> np.ndarray:
    n = len(series)
    w = p.window
    out = np.full(n, np.nan)
    if n < w + 1:
        return out
    r = np.diff(np.log(series.mid))
    x = np.lib.stride_tricks.sliding_window_view(r, w) / p.scale
    y = _forward(x, p.weights, p.biases, masks, keep_scale) * p.scale
    with np.errstate(over="ignore"):
        out[w:] = np.exp(y) - 1.0
    if not np.isfinite(out[w:]).all():
        raise DegenerateError("non-finite forecast")
    return out


@dataclass(frozen=True)
class VariantSet:
    """K frozen dropout variants of one base predictor."""

    base: Predictor
    mask_seeds: Tuple[int, ...]

    @property
    def K(self) -> int:
        return len(self.mask_seeds)


def sample_variants(p: Predictor, K: int = 32, seed: int = 0) -> VariantSet:
    """Draw K mask seeds from `seed`. K > 1 needs a net with dropout."""
    if K < 1:
        raise ValidationError("K must be at least 1")
    if K > 1 and (p.kind != KIND_NET or p.dropout_p == 0.0):
        raise ValidationError("no dropout available: K > 1 needs a "
                              "dropout-net with dropout_p > 0")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    mask_seeds = tuple(int(s) for s in rng.integers(0, 2 ** 63 - 1, size=K))
    return VariantSet(base=p, mask_seeds=mask_seeds)


def _variant_masks(p: Predictor, mask_seed: int) -> List[np.ndarray]:
    """Per-layer keep masks, one entry per hidden unit."""
    masks = []
    for l, width in enumerate(p.train_spec.hidden):
        rng = np.random.default_rng(np.random.SeedSequence([mask_seed, l]))
        masks.append(rng.random(width) >= p.dropout_p)
    return masks


def variant_surprise_series(vs: VariantSet, k: int,
                            series: TickSeries) -> np.ndarray:
    """Surprise series of variant k (base series when no dropout applies)."""
    p = vs.base
    if p.kind != KIND_NET or p.dropout_p == 0.0:
        return surprise_series(p, series)
    masks = _variant_masks(p, vs.mask_seeds[k])
    keep_scale = 1.0 / (1.0 - p.dropout_p)
    return _net_surprise(p, series, masks, keep_scale)


def predictor_to_dict(p: Predictor) -> dict:
    d = {
        "kind": p.kind,
        "scale": p.scale,
        "horizon": p.horizon,
        "noise_scale": p.noise_scale,
        "noise_seed": p.noise_seed,
        "final_loss": p.final_loss,
        "train_spec": None,
        "weights": [w.ravel().tolist() for w in p.weights],
        "weight_shapes": [list(w.shape) for w in p.weights],
        "biases": [b.tolist() for b in p.biases],
    }
    if p.train_spec is not None:
        s = p.train_spec
        d["train_spec"] = {"window": s.window, "hidden": list(s.hidden),
                           "dropout_p": s.dropout_p, "epochs": s.epochs,
                           "learning_rate": s.learning_rate, "l2": s.l2,
                           "seed": s.seed}
    return d


def predictor_from_dict(d: dict) -> Predictor:
    try:
        spec = None
        if d["train_spec"] is not None:
            t = d["train_spec"]
            spec = TrainSpec(window=t["window"], hidden=tuple(t["hidden"]),
                             dropout_p=t["dropout_p"], epochs=t["epochs"],
                             learning_rate=t["learning_rate"], l2=t["l2"],
                             seed=t["seed"])
        weights = tuple(np.array(w, dtype=np.float64).reshape(shape)
                        for w, shape in zip(d["weights"], d["weight_shapes"]))
        biases = tuple(np.array(b, dtype=np.float64) for b in d["biases"])
        return Predictor(kind=d["kind"], train_spec=spec, weights=weights,
                         biases=biases, scale=d["scale"], horizon=d["horizon"],
                         noise_scale=d["noise_scale"],
                         noise_seed=d["noise_seed"],
                         final_loss=d["final_loss"])
    except (KeyError, TypeError) as e:
        raise ValidationError(f"malformed predictor document: {e}") from None


def save_predictor(p: Predictor, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(predictor_to_dict(p), indent=2) + "\n",
                          encoding="utf-8")


def load_predictor(path: Union[str, Path]) -> Predictor:
    return predictor_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
