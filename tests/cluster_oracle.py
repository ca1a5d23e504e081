"""Tightness of risk-return point clusters, the score acceptance
criterion 08 compares a shared backbone's sweep and independent
retrains by. Nothing in the laboratory computes it, so it lives with the
tests.
"""

import numpy as np

from risklab.errors import ValidationError


def cluster_tightness(points_by_group):
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
