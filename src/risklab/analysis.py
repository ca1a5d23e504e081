"""Studies of one predictor on one series: a hyperparameter sweep that
turns the predictor into a cloud of (strategy, backtest, variant-spread)
triples and a lead-lag correlation between surprise and nearby mid
returns, which `risklab.pipeline` chains into the experiment; plus a
tightness score for comparing risk-return point clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from .backtest import (
    BacktestResult,
    StrategyConfig,
    run_backtest_columns,
    run_backtest_signals,
)
from .errors import ValidationError
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
    all n_configs*K variant columns run through one lockstep engine pass,
    which builds no fills, and each config's estimate comes from its K
    rows. The output is ordered by config index.
    """
    configs = sweep_configs(spec)
    seed_rng = np.random.default_rng(np.random.SeedSequence([spec.seed,
                                                             _VARIANT_STREAM]))
    variant_seeds = seed_rng.integers(0, 2 ** 63 - 1, size=spec.n_configs)
    base_surprise = surprise_series(predictor, series)
    results = [run_backtest_signals(series, base_surprise, cfg)
               for cfg in configs]
    if spec.K == 1:
        estimates = [estimate_from_matrix(r.period_returns[np.newaxis, :])
                     for r in results]
    else:
        variant_sets = [sample_variants(predictor, spec.K, seed=int(seed))
                        for seed in variant_seeds]
        # a generator: the engine reads one block of variant rows at a time;
        # every variant starts from the same first hidden layer
        first = first_layer(predictor, series)
        rows = (variant_surprise_series(vs, k, series, first)
                for vs in variant_sets for k in range(spec.K))
        returns = run_backtest_columns(
            series, rows, [cfg for cfg in configs for _ in range(spec.K)])
        estimates = [estimate_from_matrix(m) for m in
                     returns.reshape(spec.n_configs, spec.K, -1)]
    return list(zip(configs, results, estimates))


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
    for i, lag in enumerate(int(j) for j in lags):
        lo, hi = max(0, -lag), min(n, n - lag)
        ret = midv[lo + lag:hi + lag] / midv[lo:hi] - 1.0
        sv = s[lo:hi]
        ok = np.isfinite(sv)
        m = int(ok.sum())
        counts[i] = m
        if m < 2:
            continue
        x, y = sv[ok], ret[ok]
        sx, sy = float(x.std()), float(y.std())
        if sx == 0.0 or sy == 0.0:
            continue
        r = float(np.mean((x - x.mean()) * (y - y.mean()))) / (sx * sy)
        corr[i] = min(1.0, max(-1.0, r))
    return CorrelationCurve(lags=lags, corr=corr, n=counts)


def cluster_tightness(
        points_by_group: Dict[Hashable, Sequence]) -> Dict[Hashable, float]:
    """Trace of the per-group covariance of (sigma_total, mean_return).

    Both axes are standardized by the pooled cross-group population
    spread first, so groups are compared on a common scale; an axis that
    is constant everywhere is left unscaled. Smaller is tighter.
    """
    if not points_by_group:
        raise ValidationError("no groups")
    for g, pts in points_by_group.items():
        if len(pts) < 2:
            raise ValidationError(f"group '{g}' needs at least 2 points")
    all_x = np.array([p.sigma_total for pts in points_by_group.values()
                      for p in pts], dtype=np.float64)
    all_y = np.array([p.mean_return for pts in points_by_group.values()
                      for p in pts], dtype=np.float64)
    scale_x = float(all_x.std())
    scale_y = float(all_y.std())
    if scale_x == 0.0:
        scale_x = 1.0
    if scale_y == 0.0:
        scale_y = 1.0
    out = {}
    for g, pts in points_by_group.items():
        x = np.array([p.sigma_total for p in pts], dtype=np.float64) / scale_x
        y = np.array([p.mean_return for p in pts], dtype=np.float64) / scale_y
        out[g] = float(x.var() + y.var())
    return out
