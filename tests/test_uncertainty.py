import numpy as np
import pytest

from risklab import SyntheticSpec, ValidationError, gen_synthetic
from risklab.backtest import (BacktestResult, StrategyConfig, TradeLog,
                              run_backtest_columns)
from risklab.predictor import (TrainSpec, sample_variants, train,
                               variant_surprise_series)
from risklab.uncertainty import (estimate_from_matrix, mc_disentangle,
                                 mc_estimate_to_dict)

NO_TRADES = TradeLog(*[np.empty(0)] * len(TradeLog._fields))


def fake_result(period_returns):
    pr = np.array(period_returns, dtype=float)
    return BacktestResult(period_returns=pr, mean=float(pr.mean()),
                          stdev=float(pr.std()), n_trades=0,
                          trades=NO_TRADES,
                          trade_returns=np.array([]))


class TestMcDisentangle:
    def test_identical_variants_exact_zero(self):
        results = [fake_result([0.01, -0.02, 0.005])] * 4
        est = mc_disentangle(results)
        assert est.sigma2_mc == 0.0
        assert np.all(est.per_period_variance == 0.0)

    def test_hand_walk_k2(self):
        # two variants, every period {0, 0.0002}: var = 1e-8 per period
        a = fake_result([0.0, 0.0, 0.0])
        b = fake_result([2e-4, 2e-4, 2e-4])
        est = mc_disentangle([a, b])
        assert est.sigma2_mc == pytest.approx(1e-8, abs=1e-20)
        assert est.mu_mc == pytest.approx(1e-4, abs=1e-20)
        assert est.n_periods == 3
        assert est.K == 2

    def test_sigma2_is_mean_of_per_period(self):
        rng = np.random.default_rng(3)
        results = [fake_result(rng.normal(0, 1e-3, 7)) for _ in range(5)]
        est = mc_disentangle(results)
        assert est.sigma2_mc == pytest.approx(est.per_period_variance.mean(),
                                              abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        results = [fake_result(rng.normal(0, 1e-3, 5)) for _ in range(6)]
        a = mc_disentangle(results)
        b = mc_disentangle(results[::-1])
        assert a.sigma2_mc == pytest.approx(b.sigma2_mc, abs=1e-18)
        assert a.mu_mc == pytest.approx(b.mu_mc, abs=1e-18)

    def test_constant_shift_moves_mu_not_sigma(self):
        rng = np.random.default_rng(5)
        base = [rng.normal(0, 1e-3, 5) for _ in range(4)]
        est0 = mc_disentangle([fake_result(r) for r in base])
        est1 = mc_disentangle([fake_result(r + 5e-3) for r in base])
        assert est1.mu_mc == pytest.approx(est0.mu_mc + 5e-3, abs=1e-15)
        assert est1.sigma2_mc == pytest.approx(est0.sigma2_mc, abs=1e-18)

    def test_bounded_by_per_period_extremes(self):
        rng = np.random.default_rng(6)
        results = [fake_result(rng.normal(0, 1e-3, 9)) for _ in range(5)]
        est = mc_disentangle(results)
        assert est.per_period_variance.min() <= est.sigma2_mc
        assert est.sigma2_mc <= est.per_period_variance.max()

    def test_k_too_small(self):
        with pytest.raises(ValidationError, match="K >= 2"):
            mc_disentangle([fake_result([0.0])])

    def test_mismatched_periods(self):
        with pytest.raises(ValidationError, match="mismatched period counts"):
            mc_disentangle([fake_result([0.0, 0.1]), fake_result([0.0])])


class TestEndToEnd:
    def test_dropout_variants_give_positive_variance(self):
        s = gen_synthetic(SyntheticSpec(n_ticks=6000, sigma_noise=5e-4,
                                        phi=0.9, sigma_signal=2e-4,
                                        spread_bps=1.0, seed=2))
        p = train(s.window(0, 3000),
                  TrainSpec(window=8, hidden=(16,), dropout_p=0.3,
                            epochs=120, seed=0))
        ev = s.window(3000, 6000)
        cfg = StrategyConfig(threshold_bps=2, stop_loss_bps=40,
                             take_profit_bps=40, period_ticks=300)
        vs = sample_variants(p, K=6, seed=1)
        returns = run_backtest_columns(
            ev, [variant_surprise_series(vs, k, ev) for k in range(vs.K)],
            [cfg] * vs.K)
        est = estimate_from_matrix(returns)
        assert est.sigma2_mc > 0.0
        assert est.n_periods == 10

    def test_single_variant_matrix_zero(self):
        est = estimate_from_matrix(np.array([[0.01, -0.02, 0.03]]))
        assert est.K == 1
        assert est.sigma2_mc == 0.0

    def test_json_dict(self):
        est = mc_disentangle([fake_result([0.0, 1e-3]),
                              fake_result([2e-4, 1e-3])])
        d = mc_estimate_to_dict(est)
        assert set(d) == {"mu_mc", "sigma2_mc", "K", "n_periods", "mode",
                          "per_period_variance"}
        assert d["K"] == 2
        assert d["mode"] == "per_period"
