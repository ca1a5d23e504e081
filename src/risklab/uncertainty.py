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

import numpy as np

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
