"""Classical mean-variance machinery on a dense asset universe.

Closed-form two-constraint minimum-variance weights, the tangency
portfolio, the capital market line, and the beta decomposition of an
asset's variance into a systematic and an idiosyncratic part. Solves go
through `np.linalg.solve` after `AssetUniverse`'s positive-definiteness
check; shorting is unrestricted throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import ValidationError

# relative floor for the smallest eigenvalue and for pivot-style checks
_EIG_FLOOR = 1e-10
_DEGENERATE_REL = 1e-12


@dataclass(frozen=True)
class AssetUniverse:
    """Expected returns and covariance for n assets.

    The covariance must be symmetric to 1e-12 and positive definite
    (smallest eigenvalue above 1e-10 * trace / n).
    """

    mu: np.ndarray
    sigma: np.ndarray
    labels: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        mu = np.ascontiguousarray(self.mu, dtype=np.float64)
        sigma = np.ascontiguousarray(self.sigma, dtype=np.float64)
        if mu.ndim != 1 or mu.size == 0:
            raise ValidationError("mu must be a nonempty vector")
        n = mu.size
        if sigma.shape != (n, n):
            raise ValidationError(f"sigma must be {n}x{n}")
        if not np.isfinite(mu).all() or not np.isfinite(sigma).all():
            raise ValidationError("mu and sigma must be finite")
        if np.abs(sigma - sigma.T).max() > 1e-12:
            raise ValidationError("sigma must be symmetric to 1e-12")
        eigmin = float(np.linalg.eigvalsh(sigma)[0])
        if eigmin <= _EIG_FLOOR * float(np.trace(sigma)) / n:
            raise ValidationError(
                f"sigma is not positive definite enough: smallest eigenvalue "
                f"{eigmin:.3e}")
        labels = tuple(self.labels) if self.labels else \
            tuple(f"asset{i}" for i in range(n))
        if len(labels) != n:
            raise ValidationError("labels must match the number of assets")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.mu.size)


def universe_from_dict(d: dict) -> AssetUniverse:
    try:
        return AssetUniverse(mu=np.array(d["mu"], dtype=np.float64),
                             sigma=np.array(d["sigma"], dtype=np.float64),
                             labels=tuple(d.get("labels", ())))
    except (KeyError, TypeError) as e:
        raise ValidationError(f"malformed universe document: {e}") from None


def load_universe(path: Union[str, Path]) -> AssetUniverse:
    return universe_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class Portfolio:
    weights: np.ndarray
    mu_p: float
    sigma_p: float

    def __post_init__(self) -> None:
        self.weights.setflags(write=False)


def _portfolio(universe: AssetUniverse, w: np.ndarray) -> Portfolio:
    mu_p = float(w @ universe.mu)
    sigma_p = float(np.sqrt(w @ universe.sigma @ w))
    return Portfolio(weights=w, mu_p=mu_p, sigma_p=sigma_p)


def min_variance_portfolio(universe: AssetUniverse,
                           mu_target: float) -> Portfolio:
    """Minimum-variance fully invested weights hitting a return target.

    Closed form via the two Lagrange multipliers: with A = 1'S^-1 1,
    B = 1'S^-1 mu, C = mu'S^-1 mu and D = AC - B^2, the solution is
    w = lam * S^-1 mu + gam * S^-1 1 with lam = (A*target - B)/D and
    gam = (C - B*target)/D. D = 0 means all assets share one expected
    return; the target is then only attainable if it equals that value,
    in which case the global minimum-variance portfolio is returned.
    """
    ones = np.ones(universe.n)
    sinv_one, sinv_mu = np.linalg.solve(
        universe.sigma, np.column_stack((ones, universe.mu))).T
    a = float(ones @ sinv_one)
    b = float(ones @ sinv_mu)
    c = float(universe.mu @ sinv_mu)
    d = a * c - b * b
    if d <= _DEGENERATE_REL * a * c:
        common = b / a
        if abs(mu_target - common) <= 1e-12 * max(1.0, abs(common)):
            return _portfolio(universe, sinv_one / a)
        raise ValidationError(
            "singular system: all assets share one expected return, "
            f"target {mu_target} is unattainable")
    lam = (a * mu_target - b) / d
    gam = (c - b * mu_target) / d
    return _portfolio(universe, lam * sinv_mu + gam * sinv_one)


def tangency_portfolio(universe: AssetUniverse, r_f: float) -> Portfolio:
    """Maximum-Sharpe fully invested weights: S^-1 (mu - r_f) renormalized."""
    excess = universe.mu - r_f
    if float(np.abs(excess).max()) == 0.0:
        raise ValidationError("no tangency: all excess returns are zero")
    z = np.linalg.solve(universe.sigma, excess)
    total = float(z.sum())
    if abs(total) <= _DEGENERATE_REL * float(np.abs(z).sum()):
        raise ValidationError("no tangency: aggregate excess position is zero")
    return _portfolio(universe, z / total)


def cml(r_f: float, market: Portfolio, sigma_p: float) -> float:
    """Capital market line: r_f + (mu_M - r_f) / sigma_M * sigma_p."""
    if sigma_p < 0:
        raise ValidationError("sigma_p must be nonnegative")
    if market.sigma_p <= 0:
        raise ValidationError("market portfolio has zero risk")
    return r_f + (market.mu_p - r_f) / market.sigma_p * sigma_p


@dataclass(frozen=True)
class CapmDecomposition:
    """Variance split sigma_i^2 = beta^2 sigma_m^2 + idiosyncratic."""

    beta: float
    systematic_var: float
    idiosyncratic_var: float
    asset_var: float
    market_var: float


def beta(asset_returns: Sequence[float],
         market_returns: Sequence[float]) -> CapmDecomposition:
    """Population-moment regression of an asset on the market."""
    ri = np.asarray(asset_returns, dtype=np.float64)
    rm = np.asarray(market_returns, dtype=np.float64)
    if ri.ndim != 1 or ri.shape != rm.shape:
        raise ValidationError("return series must be 1-d and equally long")
    if ri.size < 2:
        raise ValidationError("need at least 2 observations")
    if not (np.isfinite(ri).all() and np.isfinite(rm).all()):
        raise ValidationError("returns must be finite")
    var_m = float(rm.var())
    if var_m == 0.0:
        raise ValidationError("market variance is zero")
    cov = float(np.mean((ri - ri.mean()) * (rm - rm.mean())))
    var_i = float(ri.var())
    b = cov / var_m
    systematic = b * b * var_m
    return CapmDecomposition(beta=b, systematic_var=systematic,
                             idiosyncratic_var=var_i - systematic,
                             asset_var=var_i, market_var=var_m)
