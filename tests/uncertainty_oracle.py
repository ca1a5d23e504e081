"""Reference for `risklab.uncertainty.estimate_from_matrix`: the estimate
pooled from K variant backtests, one `BacktestResult` each, as the sweep
built it before its column core gave it the return matrix directly.

Tests use it to hold the sweep's estimates to a scalar engine run per
variant, and hold it to hand-computed moments.
"""

import numpy as np

from risklab.errors import ValidationError
from risklab.uncertainty import estimate_from_matrix


def mc_disentangle(results):
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
