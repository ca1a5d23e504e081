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
`variant_surprise_series` gives its series. Every net forecast takes one
forward path, from `first_layer`'s tanh(x @ W0 + b0): computed once per
series, that first hidden layer is shared by the base forecast and all
variants, and each variant's keep rows depend only on its mask seed and
its own net's hidden sizes and dropout_p.

Everything is seed-deterministic: training the same series with the same
spec twice yields bit-identical weights, and no call touches global random
state. A training draws its initial weights and then its dropout keep
masks from default_rng(spec.seed), so the masks depend only on the spec
and the number of training rows, not on the series: `train` trains
series of one length (the windows of a rolling refit) in one epoch loop
that draws each epoch's masks once for all of them, each net getting the
bits it gets alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

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
        if not 0.0 < self.learning_rate < math.inf:
            raise ValidationError("learning_rate must be positive and finite")
        if not 0.0 <= self.l2 < math.inf:
            raise ValidationError("l2 must be nonnegative and finite")
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
        if not 0.0 < self.scale < math.inf:
            raise ValidationError("scale must be positive and finite")
        if self.horizon < 1:
            raise ValidationError("leak horizon must be at least 1")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValidationError("noise scale must be nonnegative and finite")
        if self.noise_seed < 0:
            raise ValidationError("noise seed must be nonnegative")
        if self.kind == KIND_NET:
            if self.train_spec is None:
                raise ValidationError("a net predictor needs its train_spec")
            sizes = (self.train_spec.window, *self.train_spec.hidden, 1)
            layers = list(zip(sizes[:-1], sizes[1:]))
            if ([w.shape for w in self.weights] != layers
                    or [b.shape for b in self.biases] != [(n,) for _, n in layers]):
                raise ValidationError(
                    f"net weights and biases must have the layer shapes {layers}")
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
    return Predictor(kind=KIND_LEAKED, horizon=horizon)


def make_noise(scale: float, seed: int = 0) -> Predictor:
    return Predictor(kind=KIND_NOISE, noise_scale=scale, noise_seed=seed)


def _forward(first: np.ndarray, weights: Sequence[np.ndarray],
             biases: Sequence[np.ndarray],
             masks: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
    """Batch forward pass from layer 0's output tanh(x @ W0 + b0); masks
    (if given, 0 or 1/(1 - p) per unit) multiply hidden activations."""
    h = first
    last = len(weights) - 1
    for l in range(last):
        if l > 0:
            h = np.tanh(h @ weights[l] + biases[l])
        if masks is not None:
            h = h * masks[l]
    return (h @ weights[last] + biases[last])[:, 0]


def _first_tanh(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tanh(x @ w + b), built in the one array the matmul returns."""
    a = x @ w
    a += b
    return np.tanh(a, out=a)


def _features(r: np.ndarray, window: int, scale: float,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """The net's input at every tick from `window` on: the last `window`
    of the log returns `r`, over the training scale."""
    return np.divide(np.lib.stride_tricks.sliding_window_view(r, window),
                     scale, out=out)


def _initial_params(spec: TrainSpec, rng: np.random.Generator
                    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """The net's starting weights, drawn from `rng`, and zero biases."""
    sizes = (spec.window, *spec.hidden, 1)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / math.sqrt(fan_in), (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


# A training steps its nets in groups whose scratch arrays take at most
# this many bytes (1.5 MiB): about the L2 cache of one core, where groups
# train fastest
_GROUP_BYTES = 3 << 19


def _descend(x: np.ndarray, y: np.ndarray, weights: List[np.ndarray],
             biases: List[np.ndarray], spec: TrainSpec,
             rng: np.random.Generator) -> np.ndarray:
    """Run spec.epochs of full-batch gradient descent on G nets that share
    `spec`, updating their stacked weights and biases in place.

    x is (G, n, window), y (G, n), weights (G, in, out) and biases
    (G, 1, out). A 3-D matmul makes the same BLAS call per net,
    elementwise operations act per element and each reduction runs along
    one net's own axis in the same order, so every net gets the bits it
    gets alone. Returns the epoch at which each net's loss first went
    non-finite, -1 where it never did.

    Each epoch draws every hidden layer's keep mask from `rng` once, in
    layer order, into one (n, width) array (as 0 or keep_scale), shared by
    all nets: a net trained alone draws the same. Then it steps the nets a
    group at a time, through two (group, n, width) arrays per hidden
    layer, rewritten in place. Forward, one holds the tanh output t and
    the other the masked activation; without dropout the activation is t
    itself. Backward, once the next layer's weight gradient has read the
    activation, 1 - t*t overwrites it, and the layer's gradient then goes
    into the array of the two that nothing reads any more. Each array and
    the masks take 8 * n * sum(hidden) bytes, so a group holds as many
    nets as fit `_GROUP_BYTES` (5 at 1,993 rows of 8 units). A group
    whose nets have all diverged is skipped, and the loop stops once
    every net has. The loss is np.mean(resid ** 2) without np.mean's
    wrapper.

    Two operations along the narrow hidden axis take einsum forms, which
    give the same bits in a fraction of the time at these widths: a bias
    gradient of width above 1 is np.einsum("ij->j", grad), which adds row
    after row as grad.sum(axis=0) does; and the output layer's grad @ W.T,
    one product per element, is np.einsum("i,j->ij", ...). A width-1
    gradient keeps sum: it reduces one contiguous column pairwise where
    einsum adds in sequence, so einsum there would change the weights.

    einsum adds into a zeroed output, so a result that should be -0.0
    comes out +0.0. That reaches no weight. A zero only ever meets
    products and sums that give zero or leave a nonzero term unchanged,
    so every nonzero intermediate keeps its bits. Weights are drawn by
    rng.normal, and w - lr * (+-0.0) is w for w nonzero. Biases start at
    +0.0, and b - lr * gb yields -0.0 only when b is already -0.0.
    """
    nets, n, _ = x.shape
    last = len(weights) - 1
    p = spec.dropout_p
    keep_scale = 1.0 / (1.0 - p) if p > 0 else 1.0
    array_bytes = 8 * n * sum(spec.hidden)
    size = min(nets, max(1, (_GROUP_BYTES // array_bytes - 1) // 2))
    tanhs = [np.empty((size, n, width)) for width in spec.hidden]
    others = [np.empty((size, n, width)) for width in spec.hidden]
    masks = [np.empty((n, width)) for width in spec.hidden] if p > 0 else []
    # 1 - t*t overwrites the activation; the gradient takes the other array
    acts, grads = (others, tanhs) if p > 0 else (tanhs, others)
    resid = np.empty((size, n))
    failed = np.full(nets, -1)
    live = [slice(lo, lo + size) for lo in range(0, nets, size)]
    for epoch in range(spec.epochs):
        if not live:
            break
        for m in masks:
            rng.random(out=m)
            np.greater_equal(m, p, out=m)
            m *= keep_scale
        for group in tuple(live):
            ws = [w[group] for w in weights]
            bs = [b[group] for b in biases]
            h = x[group]
            g = h.shape[0]
            inputs = [h]    # what each weight layer reads
            for l in range(last):
                a = tanhs[l][:g]
                np.matmul(h, ws[l], out=a)
                a += bs[l]
                np.tanh(a, out=a)
                h = acts[l][:g]
                if p > 0:
                    # exact reassociation of (a * keep) * keep_scale
                    np.multiply(a, masks[l], out=h)
                inputs.append(h)
            r = resid[:g]
            np.subtract((h @ ws[last] + bs[last])[..., 0], y[group], out=r)
            loss = np.add.reduce(r * r, axis=-1) / n \
                + spec.l2 * sum((w ** 2).sum(axis=(-2, -1)) for w in ws)
            if not np.isfinite(loss).all():
                fresh = failed[group]
                fresh[(fresh < 0) & ~np.isfinite(loss)] = epoch
                if (fresh >= 0).all():
                    live.remove(group)
                    continue
            grad = (2.0 / n) * r[..., None]
            for l in range(last, -1, -1):
                gw = np.swapaxes(inputs[l], -1, -2) @ grad \
                    + 2.0 * spec.l2 * ws[l]
                if grad.shape[-1] > 1:
                    gb = np.einsum("...ij->...j", grad)
                else:
                    gb = grad.sum(axis=-2)
                if l > 0:
                    d, t = acts[l - 1][:g], tanhs[l - 1][:g]
                    np.multiply(t, t, out=d)
                    np.subtract(1.0, d, out=d)
                    if l == last:
                        # one column: grad @ W.T is a single product per
                        # element
                        grad = np.einsum("...i,...j->...ij", grad[..., 0],
                                         ws[l][..., 0], out=grads[l - 1][:g])
                    else:
                        grad = np.matmul(grad, np.swapaxes(ws[l], -1, -2),
                                         out=grads[l - 1][:g])
                    if p > 0:
                        grad *= masks[l - 1]
                    grad *= d
                ws[l] -= spec.learning_rate * gw
                bs[l] -= spec.learning_rate * gb.reshape(bs[l].shape)
    return failed


def train(series: Union[TickSeries, Sequence[TickSeries]], spec: TrainSpec
          ) -> Union[Predictor, List[Union[Predictor, DegenerateError]]]:
    """Fit the dropout network to one series, or one net to each of a
    sequence of equal-length series.

    Inputs are the last `window` log returns, the target is the next log
    return, both standardized by the training return volatility. The loss
    is mean squared error plus an l2 weight penalty, minimized by
    full-batch gradient descent with fresh dropout masks each epoch.

    Nets trained with one spec start from the same weights and draw the
    same masks, so a sequence trains in one epoch loop (`_descend`), its
    nets in groups of bounded memory. It gives a list with, for each
    series, the Predictor that training it alone returns, or the
    DegenerateError that training it alone raises.
    """
    one = isinstance(series, TickSeries)
    group = [series] if one else list(series)
    if not group:
        raise ValidationError("no series to train on")
    n = len(group[0])
    if any(len(s) != n for s in group):
        raise ValidationError("series trained together must have equal "
                              "lengths")
    if n < spec.window + 2:
        raise ValidationError(
            f"series too short to train: {n} ticks, "
            f"need at least {spec.window + 2}")
    rows = n - spec.window - 1
    x = np.empty((len(group), rows, spec.window))
    y = np.empty((len(group), rows))
    scales = []
    for s, xs, ys in zip(group, x, y):
        r = np.diff(np.log(s.mid))
        std = float(r[spec.window:].std())
        scales.append(std if std > 0 else 1.0)
        _features(r[:-1], spec.window, scales[-1], out=xs)
        np.divide(r[spec.window:], scales[-1], out=ys)

    rng = np.random.default_rng(spec.seed)
    weights, biases = _initial_params(spec, rng)
    weights = [np.repeat(w[None], len(group), axis=0) for w in weights]
    biases = [np.repeat(b[None, None], len(group), axis=0) for b in biases]
    fits: List[Union[Predictor, DegenerateError]] = []
    # a diverging descent overflows to inf or NaN on its way to the
    # DegenerateError below, which says so without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        failed = _descend(x, y, weights, biases, spec, rng)
        for g, scale in enumerate(scales):
            epoch = int(failed[g])
            if epoch < 0:
                ws = [w[g] for w in weights]
                bs = [b[g, 0] for b in biases]
                # report the dropout-free in-sample MSE in raw return units
                first = _first_tanh(x[g], ws[0], bs[0])
                final = _forward(first, ws, bs) - y[g]
                final_loss = float(np.mean(final ** 2)) * scale * scale
                if math.isfinite(final_loss):
                    fits.append(Predictor(
                        kind=KIND_NET, train_spec=spec, weights=tuple(ws),
                        biases=tuple(bs), scale=scale, final_loss=final_loss))
                    continue
                epoch = spec.epochs - 1
            fits.append(DegenerateError(
                f"non-finite training loss at epoch {epoch}"))
    if not one:
        return fits
    if isinstance(fits[0], DegenerateError):
        raise fits[0]
    return fits[0]


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_TOP_HALF = np.uint64(1 << 52)
_MASK53 = np.uint64((1 << 53) - 1)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, a uint64 bijection with full avalanche,
    applied to `z` in place (one scratch row). Returns z."""
    shifted = np.empty_like(z)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(factor)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


# Cephes ndtri (Moshier, ndtri.c), the code behind scipy.special.ndtri.
# _P0/_Q0: the middle, u - 1/2 in [-3/8, 3/8]; _P1/_Q1: x = sqrt(-2 log u)
# in [2, 8); _P2/_Q2: x in [8, 64). Each Q has an implied leading 1.
_S2PI = 2.50662827463100050242E0
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: np.ndarray, coef: Sequence[float],
            leading_one: bool = False) -> np.ndarray:
    """Horner's rule in Cephes' order (polevl, or p1evl with leading_one),
    in one fresh array."""
    acc = x + coef[0] if leading_one else np.full_like(x, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _libm_log(x: np.ndarray) -> np.ndarray:
    # np.log's SIMD loop can differ from libm in the last bit; math.log is libm
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _ndtri_lower(u: np.ndarray) -> np.ndarray:
    """Cephes ndtri on u in (0, 1/2], bit for bit.

    The middle is a rational function of (u - 1/2)^2; the tail is
    -(x - log(x)/x - z P(z)/Q(z)) with x = sqrt(-2 log u) and z = 1/x.
    """
    out = np.empty_like(u)
    middle = u > _EXP_M2
    y = u[middle]
    y -= 0.5
    y2 = y * y
    # in place, in Cephes' grouping: ratio = (y2 * P) / Q, then
    # (y + y * ratio) * s2pi
    ratio = _polevl(y2, _P0)
    ratio *= y2
    ratio /= _polevl(y2, _Q0, True)
    ratio *= y
    y += ratio
    y *= _S2PI
    out[middle] = y
    del y, y2, ratio
    tail = ~middle
    x = np.sqrt(-2.0 * _libm_log(u[tail]))
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _polevl(z, _Q1, True)
    far = x >= 8.0
    if far.any():
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2, True)
    out[tail] = -((x - _libm_log(x) / x) - x1)
    return out


def eps(seed: int, ts: np.ndarray) -> np.ndarray:
    """Standard normal draw per timestamp, a pure function of (seed, ts).

    Counter-based (Salmon et al., SC 2011): each (seed, ts) pair is hashed
    to 64 bits, the top 53 give u = (k + 1/2) / 2**53 in (0, 1), and the
    draw is the gaussian inverse ndtri(u). Upper-half u are reflected,
    ndtri(u) = -ndtri(1 - u), so u is formed exactly and never rounds onto
    1. ndtri is a numpy port of Cephes' (`_ndtri_lower`) for u in (0, 1/2],
    held bit for bit to `scipy.special.ndtri` by the tests, so risklab
    needs no scipy for it.
    """
    key = _mix64(np.array([seed % (1 << 64)], dtype=np.uint64) + _GOLDEN)
    k = _mix64(np.array(ts, dtype=np.int64).view(np.uint64))
    k += key
    _mix64(k)
    k >>= np.uint64(11)
    upper = k >= _TOP_HALF
    # k ^ MASK53 = MASK53 - k, the smaller of the two on the upper half
    np.bitwise_xor(k, _MASK53, out=k, where=upper)
    u = np.add(k, 0.5)
    del k
    u *= 2.0 ** -53
    draw = _ndtri_lower(u)
    return np.negative(draw, out=draw, where=upper)


def surprise_series(p: Predictor, series: TickSeries,
                    first: Optional[np.ndarray] = None) -> np.ndarray:
    """Surprise at every tick; NaN where the predictor is undefined.

    The net needs `window` prior returns, so its first `window` entries are
    NaN; the leaked predictor reads `horizon` ticks ahead, so its last
    `horizon` entries are NaN. `first`, if given, is `first_layer(p,
    series)`, computed once for this and the variants' series.
    """
    n = len(series)
    if p.kind == KIND_PERSISTENCE:
        return np.zeros(n)
    if p.kind == KIND_LEAKED:
        midv = series.mid
        out = np.empty(n)
        h = min(p.horizon, n)
        np.divide(midv[h:], midv[:n - h], out=out[:n - h])
        out[:n - h] -= 1.0
        out[n - h:] = np.nan
        return out
    if p.kind == KIND_NOISE:
        return np.exp(p.noise_scale * eps(p.noise_seed, series.ts)) - 1.0
    if first is None:
        first = first_layer(p, series)
    return _net_surprise(p, series, first, None)


def _net_surprise(p: Predictor, series: TickSeries,
                  first: Optional[np.ndarray],
                  masks: Optional[Sequence[np.ndarray]]) -> np.ndarray:
    n = len(series)
    w = p.window
    out = np.full(n, np.nan)
    if n < w + 1:
        return out
    if first.shape[0] != n - w:
        raise ValidationError("the shared first layer was computed on a "
                              "series of another length")
    y = _forward(first, p.weights, p.biases, masks) * p.scale
    with np.errstate(over="ignore"):
        out[w:] = np.exp(y) - 1.0
    if not np.isfinite(out[w:]).all():
        raise DegenerateError("non-finite forecast")
    return out


def first_layer(p: Predictor, series: TickSeries) -> Optional[np.ndarray]:
    """tanh(x @ W0 + b0) of net `p` on `series`, read-only.

    This is the part of a forward pass that every dropout variant of `p`
    shares: computed once, it is handed to `variant_surprise_series` for
    each variant. None when `p` is no net or `series` gives no forecast.
    """
    if p.kind != KIND_NET or len(series) < p.window + 1:
        return None
    x = _features(np.diff(np.log(series.mid)), p.window, p.scale)
    first = _first_tanh(x, p.weights[0], p.biases[0])
    first.setflags(write=False)
    return first


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
    """Per-layer keep rows, one entry per hidden unit: 0 or 1/(1 - p),
    the scaled keep that training multiplies by."""
    keep_scale = 1.0 / (1.0 - p.dropout_p)
    masks = []
    for l, width in enumerate(p.train_spec.hidden):
        rng = np.random.default_rng(np.random.SeedSequence([mask_seed, l]))
        masks.append((rng.random(width) >= p.dropout_p) * keep_scale)
    return masks


def variant_surprise_series(vs: VariantSet, k: int, series: TickSeries,
                            first: Optional[np.ndarray] = None) -> np.ndarray:
    """Surprise series of variant k (base series when no dropout applies).

    `first`, if given, is `first_layer(vs.base, series)`, shared by every
    variant so that none recomputes it; the series is the same either way.
    """
    if not 0 <= k < vs.K:
        raise ValidationError(f"variant index {k} outside [0, {vs.K})")
    p = vs.base
    if p.kind != KIND_NET or p.dropout_p == 0.0:
        return surprise_series(p, series)
    if first is None:
        first = first_layer(p, series)
    return _net_surprise(p, series, first,
                         _variant_masks(p, vs.mask_seeds[k]))


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
        d["train_spec"] = asdict(p.train_spec)
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
                        for w, shape in zip(d["weights"], d["weight_shapes"],
                                            strict=True))
        biases = tuple(np.array(b, dtype=np.float64) for b in d["biases"])
        return Predictor(kind=d["kind"], train_spec=spec, weights=weights,
                         biases=biases, scale=d["scale"], horizon=d["horizon"],
                         noise_scale=d["noise_scale"],
                         noise_seed=d["noise_seed"],
                         final_loss=d["final_loss"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed predictor document: {e}") from None


def save_predictor(p: Predictor, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(predictor_to_dict(p), indent=2) + "\n",
                          encoding="utf-8")


def load_predictor(path: Union[str, Path]) -> Predictor:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # not JSON, or not UTF-8
        raise ValidationError(f"malformed predictor document: {e}") from None
    return predictor_from_dict(doc)
