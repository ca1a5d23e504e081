"""Plain per-lag reference for `surprise_return_correlation`.

Each lag copies out the pairs whose surprise is finite and takes numpy's
own moments of the copies: `x.std()`, `y.std()` and the mean of the centred
products. Tests assert that the two-row form in `risklab.analysis`
reproduces its correlations and counts bit for bit.
"""

import numpy as np


def correlation(surprise, bid, ask, max_lag):
    """(corr, n) per lag -max_lag..max_lag, as `CorrelationCurve` holds them."""
    mid = (bid + ask) / 2.0
    n = mid.size
    lags = range(-max_lag, max_lag + 1)
    corr = np.full(len(lags), np.nan)
    counts = np.zeros(len(lags), dtype=np.int64)
    for i, lag in enumerate(lags):
        lo, hi = max(0, -lag), min(n, n - lag)
        ret = mid[lo + lag:hi + lag] / mid[lo:hi] - 1.0
        ok = np.isfinite(surprise[lo:hi])
        counts[i] = np.count_nonzero(ok)
        if counts[i] < 2:
            continue
        x, y = surprise[lo:hi][ok], ret[ok]
        sx, sy = float(x.std()), float(y.std())
        if sx == 0.0 or sy == 0.0:
            continue
        r = float(np.mean((x - x.mean()) * (y - y.mean()))) / (sx * sy)
        corr[i] = min(1.0, max(-1.0, r))
    return corr, counts
