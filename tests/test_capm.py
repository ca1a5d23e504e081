"""Mean-variance and beta decomposition tests.

The 3-asset minimum-variance instance is pinned against a brute-force
grid search (step 0.001 over two free weights); the frozen constant
below is the grid minimum from that search, and the test also re-runs
the grid live.
"""

import numpy as np
import pytest

from risklab.capm import (
    AssetUniverse,
    CapmDecomposition,
    Portfolio,
    beta,
    cml,
    min_variance_portfolio,
    tangency_portfolio,
)
from risklab.errors import ValidationError

MU3 = np.array([0.05, 0.10, 0.15])
VAR3 = np.array([0.01, 0.04, 0.09])
UNI3 = AssetUniverse(mu=MU3, sigma=np.diag(VAR3))

# grid minimum over w1, w2 in [-1, 2] step 0.001, |w'mu - 0.10| < 1e-12
GRID_MIN_VARIANCE = 0.015384639999999996
GRID_FEASIBLE = 1501
CLOSED_FORM_W = np.array([4.0, 5.0, 4.0]) / 13.0
CLOSED_FORM_VARIANCE = 2.6 / 169.0


def _grid_min(mu, var, target, step=1e-3):
    grid = np.round(np.arange(round(-1.0 / step), round(2.0 / step) + 1), 0) * step
    best_v, best_w, feasible = np.inf, None, 0
    for w1 in grid:
        w3 = 1.0 - w1 - grid
        ret = mu[0] * w1 + mu[1] * grid + mu[2] * w3
        feas = np.abs(ret - target) < 1e-12
        feasible += int(feas.sum())
        if not feas.any():
            continue
        v = np.where(feas, var[0] * w1 ** 2 + var[1] * grid ** 2 + var[2] * w3 ** 2,
                     np.inf)
        j = int(np.argmin(v))
        if v[j] < best_v:
            best_v, best_w = float(v[j]), np.array([w1, grid[j], w3[j]])
    return best_v, best_w, feasible


def _random_universe(rng, n):
    m = rng.normal(size=(n + 3, n))
    sigma = m.T @ m / (n + 3)
    sigma = (sigma + sigma.T) / 2.0 + 0.05 * np.eye(n)
    return AssetUniverse(mu=rng.normal(0.08, 0.05, size=n), sigma=sigma)


def test_min_variance_identical_assets_split_evenly():
    u = AssetUniverse(mu=[0.1, 0.1], sigma=0.04 * np.eye(2))
    p = min_variance_portfolio(u, 0.1)
    assert np.allclose(p.weights, [0.5, 0.5], atol=1e-12)
    assert p.mu_p == pytest.approx(0.1, abs=1e-12)


def test_min_variance_identical_assets_other_target_rejected():
    u = AssetUniverse(mu=[0.1, 0.1], sigma=0.04 * np.eye(2))
    with pytest.raises(ValidationError, match="singular system"):
        min_variance_portfolio(u, 0.2)


def test_min_variance_single_asset():
    u = AssetUniverse(mu=[0.07], sigma=[[0.02]])
    p = min_variance_portfolio(u, 0.07)
    assert p.weights == pytest.approx([1.0], abs=1e-12)
    with pytest.raises(ValidationError):
        min_variance_portfolio(u, 0.08)


def test_min_variance_zero_mu_universe():
    u = AssetUniverse(mu=[0.0, 0.0], sigma=np.diag([0.01, 0.03]))
    p = min_variance_portfolio(u, 0.0)
    assert p.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert p.weights[0] > p.weights[1]


def test_min_variance_three_asset_closed_form():
    p = min_variance_portfolio(UNI3, 0.10)
    assert np.allclose(p.weights, CLOSED_FORM_W, atol=1e-12)
    assert p.sigma_p ** 2 == pytest.approx(CLOSED_FORM_VARIANCE, rel=1e-12)
    assert p.mu_p == pytest.approx(0.10, abs=1e-12)


def test_min_variance_three_asset_matches_grid_search():
    v, w, feasible = _grid_min(MU3, VAR3, 0.10)
    assert feasible == GRID_FEASIBLE
    assert v == GRID_MIN_VARIANCE
    p = min_variance_portfolio(UNI3, 0.10)
    assert p.sigma_p ** 2 <= v + 1e-15
    assert v - p.sigma_p ** 2 < 5e-8
    assert np.abs(p.weights - w).max() <= 1e-3


def test_min_variance_constraints_and_local_optimality():
    rng = np.random.default_rng(11)
    for n in (2, 4, 7):
        u = _random_universe(rng, n)
        target = float(u.mu.mean()) + 0.01
        p = min_variance_portfolio(u, target)
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert float(p.weights @ u.mu) == pytest.approx(target, abs=1e-10)
        if n == 2:
            continue
        # perturb inside the null space of both constraints
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), u.mu]), mode="complete")
        null = q[:, 2:]
        for _ in range(30):
            dx = null @ rng.normal(scale=1e-3, size=n - 2)
            w2 = p.weights + dx
            assert w2.sum() == pytest.approx(1.0, abs=1e-9)
            assert float(w2 @ u.sigma @ w2) >= p.sigma_p ** 2 - 1e-14


def test_frontier_variance_is_quadratic_in_target():
    targets = [0.06, 0.10, 0.14]
    variances = [min_variance_portfolio(UNI3, t).sigma_p ** 2 for t in targets]
    coef = np.polyfit(targets, variances, 2)
    predicted = float(np.polyval(coef, 0.12))
    actual = min_variance_portfolio(UNI3, 0.12).sigma_p ** 2
    assert predicted == pytest.approx(actual, abs=1e-8)
    # convexity along the frontier
    rng = np.random.default_rng(3)
    for _ in range(20):
        t1, t2, t3 = np.sort(rng.uniform(0.0, 0.2, size=3))
        v1, v2, v3 = (min_variance_portfolio(UNI3, t).sigma_p ** 2
                      for t in (t1, t2, t3))
        assert v2 <= max(v1, v3) + 1e-15


def test_tangency_identical_assets_split_evenly():
    u = AssetUniverse(mu=[0.1, 0.1], sigma=0.04 * np.eye(2))
    p = tangency_portfolio(u, 0.02)
    assert np.allclose(p.weights, [0.5, 0.5], atol=1e-12)


def test_tangency_diagonal_closed_form():
    # w_i proportional to (mu_i - r_f) / var_i: (3, 2, 13/9) -> /(58/9)
    p = tangency_portfolio(UNI3, 0.02)
    assert np.allclose(p.weights, [27 / 58, 18 / 58, 13 / 58], atol=1e-12)
    assert p.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_tangency_dominates_random_portfolios():
    rng = np.random.default_rng(23)
    for n, r_f in ((3, 0.02), (5, 0.0)):
        u = _random_universe(rng, n) if n != 3 else UNI3
        t = tangency_portfolio(u, r_f)
        sr_t = (t.mu_p - r_f) / t.sigma_p
        w = rng.normal(size=(100_000, n))
        w /= w.sum(axis=1, keepdims=True)
        mu_w = w @ u.mu
        var_w = np.einsum("ij,jk,ik->i", w, u.sigma, w)
        sr_w = (mu_w - r_f) / np.sqrt(var_w)
        assert float(sr_w.max()) <= sr_t * (1 + 1e-10) + 1e-12


def test_tangency_invariant_under_excess_scaling():
    rng = np.random.default_rng(5)
    u = _random_universe(rng, 4)
    r_f = 0.01
    base = tangency_portfolio(u, r_f)
    for c in (0.5, 3.7):
        scaled = AssetUniverse(mu=r_f + c * (u.mu - r_f), sigma=u.sigma)
        p = tangency_portfolio(scaled, r_f)
        assert np.abs(p.weights - base.weights).max() < 1e-10


def test_tangency_degenerate_universes_rejected():
    u = AssetUniverse(mu=[0.02, 0.02], sigma=0.04 * np.eye(2))
    with pytest.raises(ValidationError, match="excess returns are zero"):
        tangency_portfolio(u, 0.02)
    u = AssetUniverse(mu=[0.03, 0.01], sigma=0.04 * np.eye(2))
    with pytest.raises(ValidationError, match="aggregate excess"):
        tangency_portfolio(u, 0.02)


def test_cml_examples():
    market = Portfolio(weights=np.array([1.0]), mu_p=0.15, sigma_p=0.2)
    assert cml(0.05, market, 0.0) == pytest.approx(0.05, abs=1e-15)
    assert cml(0.05, market, 0.2) == pytest.approx(0.15, abs=1e-15)
    assert cml(0.05, market, 0.1) == pytest.approx(0.10, abs=1e-15)
    with pytest.raises(ValidationError):
        cml(0.05, market, -0.1)
    with pytest.raises(ValidationError):
        cml(0.05, Portfolio(weights=np.array([1.0]), mu_p=0.15, sigma_p=0.0), 0.1)


def test_beta_of_market_with_itself_is_one():
    rng = np.random.default_rng(9)
    rm = rng.normal(0.0, 0.01, size=500)
    d = beta(rm, rm)
    assert d.beta == pytest.approx(1.0, abs=1e-12)
    assert d.idiosyncratic_var == pytest.approx(0.0, abs=1e-15)
    assert d.systematic_var == pytest.approx(d.asset_var, rel=1e-12)


def test_beta_exact_linear_scaling():
    rng = np.random.default_rng(10)
    rm = rng.normal(0.0, 0.01, size=300)
    d = beta(2.0 * rm, rm)
    assert d.beta == 2.0
    assert d.idiosyncratic_var == pytest.approx(0.0, abs=1e-12)


def test_beta_of_independent_series_is_near_zero():
    rng = np.random.default_rng(12)
    ri = rng.normal(0.0, 0.01, size=100_000)
    rm = rng.normal(0.0, 0.01, size=100_000)
    d = beta(ri, rm)
    assert abs(d.beta) < 3.0 / np.sqrt(100_000)
    assert d.systematic_var + d.idiosyncratic_var == pytest.approx(
        d.asset_var, rel=1e-12)


def test_beta_decomposition_identity():
    rng = np.random.default_rng(14)
    rm = rng.normal(0.0, 0.01, size=2_000)
    ri = 0.7 * rm + rng.normal(0.0, 0.005, size=2_000)
    d = beta(ri, rm)
    assert d.systematic_var + d.idiosyncratic_var == pytest.approx(
        d.asset_var, rel=1e-12)
    # idiosyncratic variance equals the variance of the regression residual
    resid = ri - d.beta * rm
    assert d.idiosyncratic_var == pytest.approx(float(resid.var()), rel=1e-9)
    assert isinstance(d, CapmDecomposition)


def test_beta_input_validation():
    with pytest.raises(ValidationError, match="equally long"):
        beta([0.01, 0.02], [0.01, 0.02, 0.03])
    with pytest.raises(ValidationError, match="at least 2"):
        beta([0.01], [0.01])
    with pytest.raises(ValidationError, match="market variance"):
        beta([0.01, 0.02], [0.01, 0.01])


def test_universe_validation():
    with pytest.raises(ValidationError, match="symmetric"):
        AssetUniverse(mu=[0.1, 0.1], sigma=[[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValidationError, match="positive definite"):
        AssetUniverse(mu=[0.1, 0.1], sigma=[[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match="2x2"):
        AssetUniverse(mu=[0.1, 0.1], sigma=np.eye(3))
    with pytest.raises(ValidationError, match="finite"):
        AssetUniverse(mu=[0.1, np.nan], sigma=np.eye(2))
    u = AssetUniverse(mu=[0.1, 0.2], sigma=np.eye(2))
    assert u.n == 2
    with pytest.raises(ValueError):
        u.mu[0] = 9.0


def test_portfolio_weights_frozen():
    p = min_variance_portfolio(UNI3, 0.10)
    with pytest.raises(ValueError):
        p.weights[0] = 2.0
