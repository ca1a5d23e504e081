"""Sweep, lead-lag correlation, and cluster-tightness tests."""

from collections import namedtuple

import numpy as np
import pytest

from risklab import analysis, backtest
from risklab.analysis import (
    CorrelationCurve,
    SweepSpec,
    cluster_tightness,
    surprise_return_correlation,
    sweep,
    sweep_configs,
)
from risklab.backtest import run_backtest_signals, sharpe
from risklab.errors import ValidationError
from risklab.market_data import SyntheticSpec, gen_synthetic
from risklab.predictor import (TrainSpec, make_leaked, make_noise,
                               sample_variants, surprise_series, train,
                               variant_surprise_series)
from risklab.uncertainty import mc_disentangle

SIGNAL_SPEC = SyntheticSpec(n_ticks=4000, sigma_noise=3e-4, phi=0.9,
                            sigma_signal=2e-4, spread_bps=1.0, seed=42)
WALK_SPEC = SyntheticSpec(n_ticks=2000, sigma_noise=5e-4, spread_bps=0.5,
                          seed=7)

Pt = namedtuple("Pt", "sigma_total mean_return")


def _mini_spec(**kw):
    base = dict(n_configs=3, threshold_range=(1.0, 20.0),
                stop_loss_range=(20.0, 80.0), take_profit_range=(20.0, 80.0),
                fee_bps=0.5, seed=0, K=1, period_ticks=64)
    base.update(kw)
    return SweepSpec(**base)


def test_sweep_spec_validation():
    with pytest.raises(ValidationError, match="n_configs"):
        _mini_spec(n_configs=1)
    with pytest.raises(ValidationError, match="nonempty interval"):
        _mini_spec(threshold_range=(20.0, 1.0))
    with pytest.raises(ValidationError, match="nonnegative"):
        _mini_spec(threshold_range=(-1.0, 5.0))
    with pytest.raises(ValidationError, match="positive"):
        _mini_spec(stop_loss_range=(0.0, 10.0))
    with pytest.raises(ValidationError, match="fee_bps"):
        _mini_spec(fee_bps=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="fee_bps must be finite"):
            _mini_spec(fee_bps=bad)
    with pytest.raises(ValidationError, match="K"):
        _mini_spec(K=0)


def test_sweep_configs_deterministic_and_series_free():
    spec = _mini_spec(n_configs=5)
    a = sweep_configs(spec)
    b = sweep_configs(spec)
    assert a == b
    assert len(a) == 5
    for cfg in a:
        assert 1.0 <= cfg.threshold_bps <= 20.0
        assert 20.0 <= cfg.stop_loss_bps <= 80.0
        assert 20.0 <= cfg.take_profit_bps <= 80.0
        assert cfg.fee_bps == 0.5


def test_sweep_degenerate_ranges_yield_identical_configs():
    spec = _mini_spec(n_configs=2, threshold_range=(5.0, 5.0),
                      stop_loss_range=(40.0, 40.0),
                      take_profit_range=(40.0, 40.0))
    series = gen_synthetic(SIGNAL_SPEC)
    out = sweep(series, make_leaked(1), spec)
    assert len(out) == 2
    assert out[0][0] == out[1][0]
    assert np.array_equal(out[0][1].period_returns, out[1][1].period_returns)
    assert out[0][2].sigma2_mc == out[1][2].sigma2_mc


def test_sweep_is_deterministic_and_sized():
    series = gen_synthetic(SIGNAL_SPEC)
    spec = _mini_spec(n_configs=4)
    a = sweep(series, make_leaked(1), spec)
    b = sweep(series, make_leaked(1), spec)
    assert len(a) == len(b) == 4
    for (ca, ra, ma), (cb, rb, mb) in zip(a, b):
        assert ca == cb
        assert np.array_equal(ra.period_returns, rb.period_returns)
        assert ma.sigma2_mc == mb.sigma2_mc


def test_sweep_config_draws_do_not_depend_on_series():
    spec = _mini_spec(n_configs=4)
    s1 = gen_synthetic(SIGNAL_SPEC)
    s2 = gen_synthetic(WALK_SPEC)
    a = sweep(s1, make_leaked(1), spec)
    b = sweep(s2, make_leaked(1), spec)
    assert [t[0] for t in a] == [t[0] for t in b]


def test_sweep_single_variant_has_zero_mc_variance():
    series = gen_synthetic(SIGNAL_SPEC)
    for _, result, mc in sweep(series, make_leaked(1), _mini_spec()):
        assert mc.sigma2_mc == 0.0
        assert mc.K == 1
        assert mc.n_periods == result.period_returns.size


def test_sweep_dropout_variants_spread():
    series = gen_synthetic(SIGNAL_SPEC)
    net = train(series.window(0, 3000),
                TrainSpec(window=8, hidden=(16,), dropout_p=0.2, epochs=120,
                          learning_rate=0.05, seed=1))
    out = sweep(series, net, _mini_spec(n_configs=3, K=4,
                                        threshold_range=(0.5, 4.0)))
    assert any(mc.sigma2_mc > 0.0 for _, _, mc in out)
    for _, _, mc in out:
        assert mc.K == 4


def _reference_sweep(series, predictor, spec):
    """The sweep as one scalar engine run per variant, pooled by
    mc_disentangle: the path the column core replaced."""
    seed_rng = np.random.default_rng(np.random.SeedSequence(
        [spec.seed, analysis._VARIANT_STREAM]))
    seeds = seed_rng.integers(0, 2 ** 63 - 1, size=spec.n_configs)
    base = surprise_series(predictor, series)
    out = []
    for cfg, seed in zip(sweep_configs(spec), seeds):
        vs = sample_variants(predictor, spec.K, seed=int(seed))
        runs = [run_backtest_signals(
                    series, variant_surprise_series(vs, k, series), cfg)
                for k in range(spec.K)]
        out.append((cfg, run_backtest_signals(series, base, cfg),
                    mc_disentangle(runs)))
    return out


@pytest.fixture(scope="module")
def dropout_net():
    return train(gen_synthetic(SIGNAL_SPEC).window(0, 2000),
                 TrainSpec(window=6, hidden=(8,), dropout_p=0.2, epochs=40,
                           learning_rate=0.05, seed=3))


@pytest.mark.parametrize("K", [2, 4, 16])
def test_sweep_matches_per_variant_reference(dropout_net, K, monkeypatch):
    series = gen_synthetic(SIGNAL_SPEC)
    spec = _mini_spec(n_configs=5, K=K, threshold_range=(0.0, 2.0), seed=K)
    if K == 16:  # the variant columns span two engine blocks
        monkeypatch.setattr(backtest, "_COLUMN_TICKS", 1 << 18)
        assert 5 * K > backtest._COLUMN_TICKS // len(series)
    got = sweep(series, dropout_net, spec)
    want = _reference_sweep(series, dropout_net, spec)
    for (cfg, result, mc), (cfg_w, result_w, mc_w) in zip(got, want):
        assert cfg == cfg_w
        assert result.fills == result_w.fills
        assert result.period_returns.tobytes() == \
            result_w.period_returns.tobytes()
        assert (mc.mu_mc, mc.sigma2_mc, mc.K, mc.n_periods) == \
            (mc_w.mu_mc, mc_w.sigma2_mc, K, mc_w.n_periods)
        assert mc.per_period_variance.tobytes() == \
            mc_w.per_period_variance.tobytes()
    assert len(got) == len(want) == 5
    assert any(mc.sigma2_mc > 0.0 for _, _, mc in got)


def test_sweep_leaked_beats_noise():
    series = gen_synthetic(SIGNAL_SPEC)
    spec = _mini_spec(n_configs=6, threshold_range=(1.0, 10.0))

    def mean_sharpe(predictor):
        vals = [sharpe(r) for _, r, _ in sweep(series, predictor, spec)]
        vals = [v for v in vals if v is not None]
        assert vals
        return float(np.mean(vals))

    assert mean_sharpe(make_leaked(1)) > mean_sharpe(make_noise(1e-4, seed=3))


def test_correlation_leaked_is_perfect_at_its_horizon():
    series = gen_synthetic(WALK_SPEC)
    curve = surprise_return_correlation(series, make_leaked(1))
    at = {int(l): c for l, c in zip(curve.lags, curve.corr)}
    assert abs(at[1] - 1.0) < 1e-9
    assert np.isnan(at[0])
    finite = np.isfinite(curve.corr)
    assert int(curve.lags[finite][np.argmax(curve.corr[finite])]) == 1

    curve2 = surprise_return_correlation(series, make_leaked(2))
    finite2 = np.isfinite(curve2.corr)
    assert int(curve2.lags[finite2][np.argmax(curve2.corr[finite2])]) == 2


def test_correlation_persistence_has_no_values():
    from risklab.predictor import make_persistence

    series = gen_synthetic(WALK_SPEC)
    curve = surprise_return_correlation(series, make_persistence())
    assert np.isnan(curve.corr).all()
    assert curve.n.sum() > 0


def test_correlation_noise_on_random_walk_is_null():
    series = gen_synthetic(WALK_SPEC)
    curve = surprise_return_correlation(series, make_noise(1e-4, seed=0))
    for lag, c, n in zip(curve.lags, curve.corr, curve.n):
        if lag == 0:
            continue
        assert abs(c) < 3.0 / np.sqrt(n)


def test_correlation_invariant_under_price_scaling():
    series = gen_synthetic(WALK_SPEC)
    scaled = type(series)(ts=series.ts, bid=series.bid * 7.3,
                          ask=series.ask * 7.3)
    p = make_noise(1e-4, seed=5)
    a = surprise_return_correlation(series, p)
    b = surprise_return_correlation(scaled, p)
    ok = np.isfinite(a.corr)
    assert np.array_equal(ok, np.isfinite(b.corr))
    assert np.abs(a.corr[ok] - b.corr[ok]).max() < 1e-12


def test_correlation_input_validation():
    series = gen_synthetic(WALK_SPEC)
    with pytest.raises(ValidationError, match="max_lag"):
        surprise_return_correlation(series, make_leaked(1), max_lag=0)
    with pytest.raises(ValidationError, match="too short"):
        surprise_return_correlation(series.window(0, 8), make_leaked(1))


def test_correlation_curve_invariants():
    with pytest.raises(ValidationError, match="-m"):
        CorrelationCurve(lags=np.array([0, 1, 2]),
                         corr=np.full(3, np.nan), n=np.zeros(3))
    with pytest.raises(ValidationError, match="\\[-1, 1\\]"):
        CorrelationCurve(lags=np.array([-1, 0, 1]),
                         corr=np.array([1.5, np.nan, 0.0]), n=np.zeros(3))


def test_cluster_tightness_identical_points_is_zero():
    groups = {"tight": [Pt(1e-3, 2e-4)] * 4,
              "loose": [Pt(1e-3, 2e-4), Pt(3e-3, 8e-4)]}
    scores = cluster_tightness(groups)
    assert scores["tight"] == 0.0
    assert scores["loose"] > 0.0


def test_cluster_tightness_scaling_law():
    rng = np.random.default_rng(2)
    base = [Pt(x, y) for x, y in rng.normal(1.0, 0.1, size=(12, 2))]
    doubled = [Pt(2 * p.sigma_total, 2 * p.mean_return) for p in base]
    scores = cluster_tightness({"a": base, "b": doubled})
    assert scores["b"] / scores["a"] == pytest.approx(4.0, rel=1e-12)


def test_cluster_tightness_rejects_small_groups():
    with pytest.raises(ValidationError, match="at least 2"):
        cluster_tightness({"a": [Pt(1.0, 1.0)], "b": [Pt(1.0, 1.0)] * 2})
    with pytest.raises(ValidationError, match="no groups"):
        cluster_tightness({})
