"""Studies of predictors on a series: a hyperparameter sweep that turns a
predictor into a cloud of (strategy, backtest, variant-spread) triples,
on one series (`sweep`) or on many windows of one series at once, each
with its own predictor (`sweep_windows`, which the rolling refit uses),
and a lead-lag correlation between surprise and nearby mid returns.
`risklab.pipeline` chains them into the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import List, Sequence, Tuple, Union

import numpy as np

from .backtest import (
    BacktestResult,
    StrategyConfig,
    run_backtest_columns,
    run_backtest_signals,
)
from .errors import DegenerateError, ValidationError
from .market_data import TickSeries
from .predictor import (Predictor, first_layer, sample_variants,
                        surprise_series, variant_surprise_series)
from .uncertainty import McEstimate, estimate_from_matrix

# child-stream tags: config draws must not share a stream with mask seeds
_CONFIG_STREAM = 0
_VARIANT_STREAM = 1


@dataclass(frozen=True)
class SweepSpec:
    """Randomized strategy grid: ranges are inclusive (lo, hi) in bps."""

    n_configs: int
    threshold_range: Tuple[float, float] = (5.0, 50.0)
    stop_loss_range: Tuple[float, float] = (10.0, 100.0)
    take_profit_range: Tuple[float, float] = (10.0, 100.0)
    fee_bps: float = 1.0
    seed: int = 0
    K: int = 32
    period_ticks: int = 256
    allow_short: bool = True

    def __post_init__(self) -> None:
        if self.n_configs < 2:
            raise ValidationError("n_configs must be at least 2")
        for name, (lo, hi) in (("threshold_range", self.threshold_range),
                               ("stop_loss_range", self.stop_loss_range),
                               ("take_profit_range", self.take_profit_range)):
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise ValidationError(f"{name} must be a nonempty interval")
        if self.threshold_range[0] < 0:
            raise ValidationError("threshold_range must be nonnegative")
        if self.stop_loss_range[0] <= 0 or self.take_profit_range[0] <= 0:
            raise ValidationError("stop-loss and take-profit must be positive")
        if not np.isfinite(self.fee_bps):
            raise ValidationError("fee_bps must be finite")
        if self.fee_bps < 0:
            raise ValidationError("fee_bps must be nonnegative")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.K < 1:
            raise ValidationError("K must be at least 1")
        if self.period_ticks < 1:
            raise ValidationError("period_ticks must be at least 1")


def sweep_configs(spec: SweepSpec) -> List[StrategyConfig]:
    """Draw the strategy grid. Depends only on the sweep spec, never the series."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed,
                                                        _CONFIG_STREAM]))
    thr = rng.uniform(*spec.threshold_range, spec.n_configs)
    sl = rng.uniform(*spec.stop_loss_range, spec.n_configs)
    tp = rng.uniform(*spec.take_profit_range, spec.n_configs)
    return [StrategyConfig(threshold_bps=float(thr[i]),
                           stop_loss_bps=float(sl[i]),
                           take_profit_bps=float(tp[i]),
                           fee_bps=spec.fee_bps,
                           allow_short=spec.allow_short,
                           period_ticks=spec.period_ticks)
            for i in range(spec.n_configs)]


def sweep(series: TickSeries, predictor: Predictor,
          spec: SweepSpec) -> List[Tuple[StrategyConfig, BacktestResult,
                                         McEstimate]]:
    """Backtest n_configs random strategies and variant-spread each one.

    Every config is evaluated on the same base surprise series and gets
    its own K dropout variants of the same base predictor. K=1 skips
    variant sampling and reports zero cross-variant variance. With K > 1
    all n_configs*K variant columns run through one lockstep engine call,
    which builds no fills, and each config's estimate comes from its K
    rows. The output is ordered by config index. A base or variant
    forecast that is not finite raises DegenerateError.
    """
    [triples] = sweep_windows(series, [predictor], spec, [0], len(series))
    if isinstance(triples, DegenerateError):
        raise triples
    return triples


def sweep_windows(series: TickSeries,
                  fits: Sequence[Union[Predictor, DegenerateError]],
                  spec: SweepSpec, starts: Sequence[int], length: int
                  ) -> List[Union[List[Tuple[StrategyConfig, BacktestResult,
                                             McEstimate]], DegenerateError]]:
    """`sweep` of each window `series.window(start, start + length)` with
    its fit, or the DegenerateError that the fit is or that the window's
    base or variant forecast raised; no window changes another's numbers.

    Every window draws the same configs and variant seeds. Each window's
    first hidden layer serves its base forecast and all its variants, and
    is released once its variant rows are read. Each window's variants
    draw their keep rows from its own fit, so fits may differ in hidden
    sizes and dropout_p. The n_configs*K variant columns of every window,
    in window, config, variant order, go through one `run_backtest_columns`
    call; a window whose variant forecast turns out non-finite there fills
    its remaining columns with NaN rows, which never trade.
    """
    configs = sweep_configs(spec)
    seed_rng = np.random.default_rng(np.random.SeedSequence([spec.seed,
                                                             _VARIANT_STREAM]))
    seeds = seed_rng.integers(0, 2 ** 63 - 1, size=spec.n_configs)
    # per window: its base backtests (then its triples) or its error, kept
    # without a traceback so that no frame of this call outlives it
    out: list = []
    # window index -> (window, first layer, variant sets) of each window
    # whose variant rows are still to be read
    pending = {}
    for start, fit in zip(starts, fits, strict=True):
        if isinstance(fit, DegenerateError):
            out.append(fit)
            continue
        # a window that spans the series is the caller's series object
        window = (series if (start, length) == (0, len(series))
                  else series.window(start, start + length))
        first = first_layer(fit, window)
        try:
            base_surprise = surprise_series(fit, window, first)
        except DegenerateError as e:
            out.append(e.with_traceback(None))
            continue
        out.append([run_backtest_signals(window, base_surprise, cfg)
                    for cfg in configs])
        if spec.K > 1:
            pending[len(out) - 1] = (window, first, [
                sample_variants(fit, spec.K, seed=int(seed)) for seed in seeds])
    blocks = list(pending)
    if blocks:
        width = spec.n_configs * spec.K

        def rows():
            for w in blocks:
                window, first, variant_sets = pending.pop(w)
                made = 0
                try:
                    for vs in variant_sets:
                        for k in range(vs.K):
                            yield variant_surprise_series(vs, k, window, first)
                            made += 1
                except DegenerateError as e:
                    out[w] = e.with_traceback(None)
                    yield from repeat(np.full(length, np.nan), width - made)

        returns = run_backtest_columns(
            series, rows(), [cfg for cfg in configs for _ in range(spec.K)]
            * len(blocks), starts=np.repeat([starts[w] for w in blocks], width),
            length=length)
        grids = {w: returns[i * width:(i + 1) * width]
                 for i, w in enumerate(blocks)}
    for w, results in enumerate(out):
        if isinstance(results, DegenerateError):
            continue
        grid = (grids[w] if spec.K > 1
                else np.array([r.period_returns for r in results]))
        out[w] = [(cfg, result, estimate_from_matrix(m)) for cfg, result, m
                  in zip(configs, results,
                         grid.reshape(len(configs), -1, grid.shape[1]))]
    return out


@dataclass(frozen=True)
class CorrelationCurve:
    """Pearson correlation of surprise against nearby mid returns.

    corr[i] pairs surprise at tick t with the return from t to t+lags[i];
    NaN marks lags with no defined pairs (for example lag 0, whose return
    is identically zero). n counts the pairs actually used.
    """

    lags: np.ndarray
    corr: np.ndarray
    n: np.ndarray

    def __post_init__(self) -> None:
        if not (self.lags.shape == self.corr.shape == self.n.shape):
            raise ValidationError("lags, corr, n must have equal lengths")
        if self.lags.size % 2 == 0 or not np.array_equal(
                self.lags, np.arange(-(self.lags.size // 2),
                                     self.lags.size // 2 + 1)):
            raise ValidationError("lags must run -m..+m")
        finite = self.corr[np.isfinite(self.corr)]
        if finite.size and np.abs(finite).max() > 1.0:
            raise ValidationError("correlations must lie in [-1, 1]")
        for a in (self.lags, self.corr, self.n):
            a.setflags(write=False)


def surprise_return_correlation(series: TickSeries, predictor: Predictor,
                                max_lag: int = 5) -> CorrelationCurve:
    """Pearson correlation of surprise at t with the mid return t -> t+lag.

    Each lag pairs the ticks whose surprise is finite. Every sum is
    `np.add.reduce` over the same contiguous values, in the same order, as
    the plain form: means, `x.std()` as sqrt(sum(dx * dx) / m) with
    dx = x - mean(x), and the mean of the centred products. So the bits are
    those of the masked copies and `std` in `tests/correlation_oracle.py`.

    `surprise_series` leaves NaN only at a head and a tail, so a lag's
    finite surprise is one run, read as a slice; a run with gaps is taken
    as masked copies. Two full-length rows are reused for every lag: the
    centred surprise, then its products; the squares, then the centred
    returns.
    """
    if max_lag < 1:
        raise ValidationError("max_lag must be at least 1")
    n = len(series)
    need = 2 * max_lag + max(predictor.window, 1) + 1
    if n < need:
        raise ValidationError(
            f"series too short: {n} ticks, need at least {need}")
    s = surprise_series(predictor, series)
    midv = series.mid
    lags = np.arange(-max_lag, max_lag + 1)
    corr = np.full(lags.size, np.nan)
    counts = np.zeros(lags.size, dtype=np.int64)
    d_row, r_row = np.empty(n), np.empty(n)
    for i, lag in enumerate(int(j) for j in lags):
        lo, hi = max(0, -lag), min(n, n - lag)
        ok = np.isfinite(s[lo:hi])
        m = int(np.count_nonzero(ok))
        counts[i] = m
        if m < 2:
            continue
        a = lo + int(ok.argmax())
        if ok[a - lo:a - lo + m].all():
            x, now = s[a:a + m], midv[a:a + m]
            later = midv[a + lag:a + lag + m]
        else:
            x, now = s[lo:hi][ok], midv[lo:hi][ok]
            later = midv[lo + lag:hi + lag][ok]
        d, r = d_row[:m], r_row[:m]
        np.subtract(x, np.add.reduce(x) / m, out=d)
        sx = float(np.sqrt(np.add.reduce(np.multiply(d, d, out=r)) / m))
        np.divide(later, now, out=r)
        r -= 1.0
        r -= np.add.reduce(r) / m
        d *= r
        cov = float(np.add.reduce(d) / m)
        sy = float(np.sqrt(np.add.reduce(np.multiply(r, r, out=d)) / m))
        if sx == 0.0 or sy == 0.0:
            continue
        corr[i] = min(1.0, max(-1.0, cov / (sx * sy)))
    return CorrelationCurve(lags=lags, corr=corr, n=counts)
