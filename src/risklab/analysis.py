"""Studies of one predictor on one series: a hyperparameter sweep that
turns the predictor into a cloud of (strategy, backtest, variant-spread)
triples and a lead-lag correlation between surprise and nearby mid
returns, which `risklab.pipeline` chains into the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .backtest import (
    BacktestResult,
    StrategyConfig,
    run_backtest_columns,
    run_backtest_signals,
)
from .errors import ValidationError
from .market_data import TickSeries
from .predictor import (Predictor, VariantSet, first_layer, sample_variants,
                        surprise_series, variant_masks,
                        variant_surprise_series)
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
    rows. The output is ordered by config index.
    """
    prep = prepare_sweep(series, predictor, spec)
    returns = (run_backtest_columns(series, prep.rows, prep.columns)
               if prep.columns else None)
    return finish_sweep(prep, returns)


class PreparedSweep(NamedTuple):
    """A sweep up to its variant columns, which `finish_sweep` completes.

    `results` are the configs' backtests on the base signal. With K > 1,
    `columns` holds the config of each variant column, K per config in
    config order, `masks` each column's keep masks (one bool array per
    hidden layer), and `rows` makes their surprise rows one at a time as
    they are read; with K = 1 all three are empty.
    """

    configs: List[StrategyConfig]
    results: List[BacktestResult]
    columns: List[StrategyConfig]
    rows: Iterator[np.ndarray]
    masks: List[List[np.ndarray]]


def prepare_sweep(series: TickSeries, predictor: Predictor,
                  spec: SweepSpec,
                  masks: Optional[List[List[np.ndarray]]] = None
                  ) -> PreparedSweep:
    """Draw the configs, backtest each on the base signal and set up the
    variant rows of `sweep(series, predictor, spec)`.

    The net's first hidden layer is computed once, for the base signal
    and every variant. `masks`, if given, is the `masks` of a sweep
    prepared with this spec for a net of the same hidden sizes and
    dropout_p: the variants' keep masks depend on nothing else, so the
    windows of a rolling refit draw them once.
    """
    configs = sweep_configs(spec)
    first = first_layer(predictor, series)
    base_surprise = surprise_series(predictor, series, first)
    results = [run_backtest_signals(series, base_surprise, cfg)
               for cfg in configs]
    if spec.K == 1:
        return PreparedSweep(configs, results, [], iter(()), [])
    seed_rng = np.random.default_rng(np.random.SeedSequence([spec.seed,
                                                             _VARIANT_STREAM]))
    variant_sets = [sample_variants(predictor, spec.K, seed=int(seed))
                    for seed in seed_rng.integers(0, 2 ** 63 - 1,
                                                  size=spec.n_configs)]
    if masks is None:
        masks = [m for vs in variant_sets for m in variant_masks(vs)]
    return PreparedSweep(configs, results,
                         [cfg for cfg in configs for _ in range(spec.K)],
                         _variant_rows(series, variant_sets, first, masks),
                         masks)


def _variant_rows(series: TickSeries, variant_sets: Sequence[VariantSet],
                  first: Optional[np.ndarray],
                  masks: Sequence[Sequence[np.ndarray]]
                  ) -> Iterator[np.ndarray]:
    """Every variant's surprise row in turn, each from the shared first
    hidden layer and its column's keep masks."""
    variants = ((vs, k) for vs in variant_sets for k in range(vs.K))
    for (vs, k), m in zip(variants, masks, strict=True):
        yield variant_surprise_series(vs, k, series, first, m)


def finish_sweep(prep: PreparedSweep, returns: Optional[np.ndarray]
                 ) -> List[Tuple[StrategyConfig, BacktestResult, McEstimate]]:
    """`sweep`'s triples, given the (len(columns), n_periods) period returns
    of the prepared sweep's variant columns (None when it has none, and
    each config's estimate is of its base returns alone)."""
    if returns is None:
        returns = np.array([r.period_returns for r in prep.results])
    return [(cfg, result, estimate_from_matrix(m)) for cfg, result, m in
            zip(prep.configs, prep.results,
                returns.reshape(len(prep.configs), -1, returns.shape[1]))]


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
