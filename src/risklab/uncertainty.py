"""Cross-variant return variance: the dropout-resolvable share of risk.

Running the same strategy under K frozen dropout variants of one predictor
yields K aligned period-return series. Their cross-variant dispersion, the
population variance across the K variants in each period averaged over
the periods, is the share of outcome variance the dropout posterior can
account for; whatever the strategy's total variance holds beyond it is
treated as priced risk downstream.

In the source paper's terms, `sqrt(sigma2_mc)` (`sigma_mc` downstream) is
the epistemic share: the uncertainty rooted in the shared model, which
the paper's abstract calls systematic and, under its "Aleatory Collapse
Assumption", measures with MC dropout. The remainder, `sigma_priced`, is
what `pml` regresses on by default; `risk_axis = mc` regresses on this
share instead, which is the paper's reading.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .backtest import BacktestResult
from .errors import ValidationError


@dataclass(frozen=True)
class McEstimate:
    """Variant-mean return and cross-variant variance.

    `sigma2_mc` is the mean over periods of the per-period population
    variance across the K variants, `per_period_variance`.
    """

    mu_mc: float
    sigma2_mc: float
    K: int
    n_periods: int
    per_period_variance: np.ndarray

    def __post_init__(self) -> None:
        self.per_period_variance.setflags(write=False)


def mc_disentangle(results: Sequence[BacktestResult]) -> McEstimate:
    """Pool K variant backtests of the same strategy into an McEstimate.

    All results must cover the same periods. Variances are population
    (1/K) moments; identical variants therefore give exactly zero.
    """
    if len(results) < 2:
        raise ValidationError("need at least 2 variant results (K >= 2)")
    n_periods = results[0].period_returns.size
    for i, r in enumerate(results[1:], start=1):
        if r.period_returns.size != n_periods:
            raise ValidationError(
                f"mismatched period counts: variant 0 has {n_periods}, "
                f"variant {i} has {r.period_returns.size}")
    return estimate_from_matrix(np.stack([r.period_returns for r in results]))


def estimate_from_matrix(returns: np.ndarray) -> McEstimate:
    """Build the estimate from a (K, n_periods) return matrix. K=1 is the
    degenerate single-variant case with zero cross-variant variance."""
    returns = np.asarray(returns, dtype=np.float64)
    if returns.ndim != 2 or returns.size == 0:
        raise ValidationError("returns must be a nonempty (K, n_periods) matrix")
    k, n_periods = returns.shape
    per_period = returns.var(axis=0)
    return McEstimate(mu_mc=float(returns.mean()),
                      sigma2_mc=float(per_period.mean()), K=k,
                      n_periods=n_periods, per_period_variance=per_period)


def mc_estimate_to_dict(est: McEstimate) -> dict:
    # "mode": the estimate's only mode, still named so mc.json keeps its bytes
    return {**asdict(est), "mode": "per_period",
            "per_period_variance": est.per_period_variance.tolist()}
