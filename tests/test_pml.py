"""Priced-point construction, line fitting, and rolling decay tests.

The 50-point noisy regression fixture is pinned against an independent
statsmodels run (both intercept modes); the frozen constants below came
from that run, and a live statsmodels comparison repeats it.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from risklab import analysis, backtest, pml, predictor
from risklab.backtest import (BacktestResult, TradeLog, run_backtest_columns,
                              sharpe)
from risklab.analysis import SweepSpec, sweep
from risklab.errors import DegenerateError, ValidationError
from risklab.market_data import SyntheticSpec, TickSeries, gen_synthetic
from risklab.pml import (
    AXIS_MC,
    DEFAULT_RF_PER_PERIOD,
    INTERCEPT_FREE,
    RiskReturnPoint,
    fit_pml,
    load_points_csv,
    points_to_csv,
    priced_point,
    rolling_pml,
    sweep_points,
    trend_tau,
)
from risklab.predictor import TrainSpec, surprise_series, train
from risklab.uncertainty import estimate_from_matrix

RF = 0.05 / 252

# statsmodels OLS on the seed-7 fixture (x ~ U(0.002, 0.02), 50 points,
# y = RF + 0.35 x + N(0, 2e-4)); fixed = through-origin on excess returns
ORACLE_FIXED_SLOPE = 0.349532917200827
ORACLE_FIXED_STDERR = 0.002003872810330953
ORACLE_FIXED_R2 = 0.9983920914147206
ORACLE_FREE_SLOPE = 0.3453111292509502
ORACLE_FREE_STDERR = 0.004631750512667655
ORACLE_FREE_R2 = 0.9914379855450836
ORACLE_FREE_INTERCEPT = 5.662969630079728e-05

NO_TRADES = TradeLog(*[np.empty(0)] * len(TradeLog._fields))


def _result(period_returns, mean=None, stdev=None):
    r = np.asarray(period_returns, dtype=np.float64)
    return BacktestResult(
        period_returns=r,
        mean=float(r.mean()) if mean is None else mean,
        stdev=float(r.std()) if stdev is None else stdev,
        n_trades=0, trades=NO_TRADES, trade_returns=np.array([]))


def _points(x, y):
    return [RiskReturnPoint(config_id=f"cfg{i:03d}", mean_return=float(yi),
                            sigma_total=float(xi), sigma_mc=0.0,
                            sigma_priced=float(xi), clamped=False)
            for i, (xi, yi) in enumerate(zip(x, y))]


def _oracle_fixture():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.002, 0.02, size=50)
    y = RF + 0.35 * x + rng.normal(0.0, 2e-4, size=50)
    return x, y


def test_priced_point_subtracts_variant_variance():
    mc = estimate_from_matrix(np.array([[0.0], [2e-4]]))
    assert mc.sigma2_mc == pytest.approx(1e-8, rel=1e-12)
    p = priced_point(_result([0.0], mean=1e-4, stdev=2e-4), mc, "a")
    assert p.sigma_priced == pytest.approx(np.sqrt(3e-8), rel=1e-12)
    assert p.sigma_total == 2e-4
    assert p.sigma_mc == pytest.approx(1e-4, rel=1e-12)
    assert not p.clamped


def test_priced_point_boundary_and_clamp():
    mc = estimate_from_matrix(np.array([[-2e-4], [2e-4]]))  # var 4e-8
    boundary = priced_point(_result([0.0], stdev=2e-4), mc)
    assert boundary.sigma_priced == 0.0
    assert not boundary.clamped
    clamped = priced_point(_result([0.0], stdev=1e-4), mc)
    assert clamped.sigma_priced == 0.0
    assert clamped.clamped


def test_priced_point_period_mismatch():
    mc = estimate_from_matrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="period mismatch"):
        priced_point(_result([0.0, 0.0]), mc)


def test_sweep_points_number_configs_in_order():
    mc = estimate_from_matrix(np.zeros((2, 1)))
    results = [_result([0.0], mean=1e-4 * i, stdev=2e-4) for i in range(12)]
    triples = [(None, r, mc) for r in results]
    points = sweep_points(triples)
    assert [p.config_id for p in points] == [f"cfg{i:03d}" for i in range(12)]
    assert points == [priced_point(r, mc, f"cfg{i:03d}")
                      for i, r in enumerate(results)]
    assert sweep_points([]) == []


def test_risk_return_point_validation():
    with pytest.raises(ValidationError, match="exceed sigma_total"):
        RiskReturnPoint("a", 0.0, 1e-4, 0.0, 2e-4, False)
    with pytest.raises(ValidationError, match="nonnegative"):
        RiskReturnPoint("a", 0.0, -1e-4, 0.0, 0.0, False)
    with pytest.raises(ValidationError, match="finite"):
        RiskReturnPoint("a", np.nan, 1e-4, 0.0, 1e-4, False)


def test_fit_recovers_exact_line():
    x = np.linspace(0.001, 0.02, 10)
    fit = fit_pml(_points(x, RF + 3.0 * x), r_f_per_period=RF)
    assert fit.sr_theta == pytest.approx(3.0, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-9)
    assert fit.sr_theta_annualized == pytest.approx(3.0 * np.sqrt(252), rel=1e-9)
    assert fit.n_points == 10
    assert fit.n_clamped == 0


def test_fit_matches_frozen_regression_oracle():
    x, y = _oracle_fixture()
    pts = _points(x, y)
    fixed = fit_pml(pts, r_f_per_period=RF)
    assert fixed.sr_theta == pytest.approx(ORACLE_FIXED_SLOPE, abs=1e-9)
    assert fixed.stderr == pytest.approx(ORACLE_FIXED_STDERR, abs=1e-9)
    assert fixed.r2 == pytest.approx(ORACLE_FIXED_R2, abs=1e-9)
    assert fixed.fitted_intercept is None
    free = fit_pml(pts, r_f_per_period=RF, intercept_mode=INTERCEPT_FREE)
    assert free.sr_theta == pytest.approx(ORACLE_FREE_SLOPE, abs=1e-9)
    assert free.stderr == pytest.approx(ORACLE_FREE_STDERR, abs=1e-9)
    assert free.r2 == pytest.approx(ORACLE_FREE_R2, abs=1e-9)
    assert free.fitted_intercept == pytest.approx(ORACLE_FREE_INTERCEPT,
                                                  abs=1e-12)


def test_fit_matches_live_statsmodels():
    sm = pytest.importorskip("statsmodels.api")
    x, y = _oracle_fixture()
    pts = _points(x, y)
    excess = y - RF
    ref_fixed = sm.OLS(excess, x).fit()
    fixed = fit_pml(pts, r_f_per_period=RF)
    assert fixed.sr_theta == pytest.approx(ref_fixed.params[0], abs=1e-12)
    assert fixed.stderr == pytest.approx(ref_fixed.bse[0], abs=1e-12)
    assert fixed.r2 == pytest.approx(ref_fixed.rsquared, abs=1e-12)
    ref_free = sm.OLS(excess, sm.add_constant(x)).fit()
    free = fit_pml(pts, r_f_per_period=RF, intercept_mode=INTERCEPT_FREE)
    assert free.sr_theta == pytest.approx(ref_free.params[1], abs=1e-12)
    assert free.stderr == pytest.approx(ref_free.bse[1], abs=1e-12)
    assert free.r2 == pytest.approx(ref_free.rsquared, abs=1e-12)


def test_fit_input_errors():
    x = np.array([0.01, 0.02])
    pts = _points(x, RF + 3 * x)
    with pytest.raises(ValidationError, match="insufficient points"):
        fit_pml(pts[:1])
    with pytest.raises(ValidationError, match="insufficient points"):
        fit_pml(pts, intercept_mode=INTERCEPT_FREE)
    with pytest.raises(ValidationError, match="intercept_mode"):
        fit_pml(pts, intercept_mode="banana")
    with pytest.raises(ValidationError, match="risk_axis"):
        fit_pml(pts, risk_axis="banana")
    for bootstrap, seed in ((-1, 0), (5, -1)):
        with pytest.raises(ValidationError, match="must be nonnegative"):
            fit_pml(pts, bootstrap=bootstrap, bootstrap_seed=seed)
    same = _points([0.01, 0.01, 0.01], [0.001, 0.002, 0.003])
    with pytest.raises(DegenerateError, match="degenerate fit"):
        fit_pml(same)


def test_fit_invariances():
    x, y = _oracle_fixture()
    base = fit_pml(_points(x, y), r_f_per_period=RF)
    # shifting r_f and every return together leaves excess returns alone
    shifted = fit_pml(_points(x, y + 0.01), r_f_per_period=RF + 0.01)
    assert shifted.sr_theta == pytest.approx(base.sr_theta, abs=1e-12)
    # scaling both axes cancels; scaling only returns scales the slope
    c = 3.7
    both = fit_pml(_points(c * x, RF + c * (y - RF)), r_f_per_period=RF)
    assert both.sr_theta == pytest.approx(base.sr_theta, rel=1e-12)
    only_y = fit_pml(_points(x, RF + c * (y - RF)), r_f_per_period=RF)
    assert only_y.sr_theta == pytest.approx(c * base.sr_theta, rel=1e-12)


def test_fit_on_mc_axis():
    x = np.array([1e-4, 2e-4, 3e-4, 4e-4])
    y = RF + 2.0 * x
    pts = [RiskReturnPoint(f"c{i}", float(yi), float(2 * xi), float(xi),
                           float(np.sqrt(3) * xi), False)
           for i, (xi, yi) in enumerate(zip(x, y))]
    fit = fit_pml(pts, r_f_per_period=RF, risk_axis=AXIS_MC)
    assert fit.risk_axis == AXIS_MC
    assert fit.sr_theta == pytest.approx(2.0, abs=1e-9)
    zero_mc = _points(x, y)
    with pytest.raises(DegenerateError, match="sigma_mc"):
        fit_pml(zero_mc, risk_axis=AXIS_MC)


def test_bootstrap_stderr():
    x, y = _oracle_fixture()
    pts = _points(x, y)
    a = fit_pml(pts, r_f_per_period=RF, bootstrap=200, bootstrap_seed=11)
    b = fit_pml(pts, r_f_per_period=RF, bootstrap=200, bootstrap_seed=11)
    assert a.stderr_bootstrap == b.stderr_bootstrap
    assert a.stderr_bootstrap > 0
    assert 0.3 < a.stderr_bootstrap / a.stderr < 3.0
    assert fit_pml(pts, r_f_per_period=RF).stderr_bootstrap is None


def test_slope_within_three_stderr_coverage():
    rng = np.random.default_rng(2024)
    hits = 0
    trials = 1000
    for _ in range(trials):
        x = rng.uniform(0.002, 0.02, size=50)
        y = RF + 0.35 * x + rng.normal(0.0, 2e-4, size=50)
        fit = fit_pml(_points(x, y), r_f_per_period=RF)
        hits += abs(fit.sr_theta - 0.35) <= 3.0 * fit.stderr
    assert hits >= 0.95 * trials


def test_points_csv_round_trip(tmp_path):
    x, y = _oracle_fixture()
    pts = _points(x, y)[:7]
    object.__setattr__(pts[2], "clamped", True)
    path = tmp_path / "points.csv"
    path.write_text(points_to_csv(pts), encoding="utf-8")
    loaded = load_points_csv(path)
    assert len(loaded) == 7
    assert loaded[2].clamped
    for a, b in zip(pts, loaded):
        assert a.config_id == b.config_id
        assert b.mean_return == pytest.approx(a.mean_return, rel=1e-11)
        assert b.sigma_priced == pytest.approx(a.sigma_priced, rel=1e-11)
    # canonical form is a fixed point of write-then-load
    assert points_to_csv(loaded) == path.read_text(encoding="utf-8")


def test_points_csv_schema_errors(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValidationError, match="malformed points header"):
        load_points_csv(path)
    path.write_text("config_id,mean_return\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="malformed points header"):
        load_points_csv(path)
    from risklab.pml import POINTS_CSV_HEADER
    path.write_text(POINTS_CSV_HEADER + "\na,1,2,3,4\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row at line 2"):
        load_points_csv(path)
    path.write_text(POINTS_CSV_HEADER + "\na,x,2e-4,0,2e-4,false\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError, match="row at line 2"):
        load_points_csv(path)
    path.write_text(POINTS_CSV_HEADER + "\n", encoding="utf-8")
    assert load_points_csv(path) == []


def test_trend_tau():
    assert trend_tau([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)
    assert trend_tau([4.0, 3.0, 2.0, 1.0]) == pytest.approx(-1.0)
    assert trend_tau([1.0, np.nan, 2.0, np.nan, 3.0]) == pytest.approx(1.0)
    with pytest.raises(DegenerateError):
        trend_tau([np.nan, 1.0])
    # all tied: scipy's tau-b is NaN, which the decay summary cannot hold
    for values in ([0.5, np.nan, 0.5], [2.0, 2.0, 2.0, 2.0], [0.0, -0.0]):
        with pytest.raises(DegenerateError, match="all .* equal"):
            trend_tau(values)


def test_trend_tau_matches_scipy_bitwise():
    kendalltau = pytest.importorskip("scipy.stats").kendalltau
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(1500):
        n = int(rng.integers(2, 60))
        v = rng.integers(0, int(rng.integers(2, 12)), n).astype(np.float64)
        if rng.random() < 0.5:
            v = v * 1e-3 + rng.normal(0.0, 1e-9, n) * (rng.random(n) < 0.3)
        v[rng.random(n) < 0.2] = np.nan
        ok = np.isfinite(v)
        if ok.sum() < 2 or np.unique(v[ok]).size < 2:
            continue
        want = kendalltau(np.arange(n)[ok], v[ok]).statistic
        assert np.float64(trend_tau(v)).tobytes() == np.float64(want).tobytes()
        checked += 1
    assert checked >= 1000


SIGNAL = SyntheticSpec(n_ticks=3000, sigma_noise=3e-4, phi=0.9,
                       sigma_signal=2e-4, spread_bps=1.0, seed=5)
TRAIN = TrainSpec(window=6, hidden=(8,), dropout_p=0.2, epochs=40,
                  learning_rate=0.05, seed=3)
SWEEP = SweepSpec(n_configs=4, threshold_range=(0.5, 5.0),
                  stop_loss_range=(20.0, 80.0), take_profit_range=(20.0, 80.0),
                  fee_bps=0.2, seed=1, K=2, period_ticks=32)


def test_rolling_single_window():
    series = gen_synthetic(SIGNAL).window(0, 1200)
    r = rolling_pml(series, TRAIN, SWEEP, window=1200, step=1200)
    assert len(r) == 1
    assert list(r.window_starts) == [0]
    assert np.isfinite(r.sr_theta_series[0])
    if np.isfinite(r.sr_observed_series[0]):
        assert r.gap_series[0] == pytest.approx(
            r.sr_theta_series[0] - r.sr_observed_series[0], rel=1e-12)


def test_rolling_windows_advance_by_step():
    series = gen_synthetic(SIGNAL)
    r = rolling_pml(series, TRAIN, SWEEP, window=1200, step=900)
    assert list(r.window_starts) == [0, 900, 1800]
    assert r.sr_theta_series.size == 3
    assert r.gap_series.size == 3


def test_rolling_degenerate_window_records_nan():
    series = gen_synthetic(SIGNAL).window(0, 1200)
    never_trades = SweepSpec(n_configs=3, threshold_range=(5000.0, 6000.0),
                             stop_loss_range=(20.0, 80.0),
                             take_profit_range=(20.0, 80.0), fee_bps=0.2,
                             seed=1, K=1, period_ticks=32)
    # training that diverges (non-finite loss) loses the window, not the run
    diverges = dataclasses.replace(TRAIN, learning_rate=1e3)
    for train_spec, sweep_spec in ((TRAIN, never_trades), (diverges, SWEEP)):
        with np.errstate(over="ignore", invalid="ignore"):
            r = rolling_pml(series, train_spec, sweep_spec, window=1200,
                            step=1200)
        assert len(r) == 1
        assert np.isnan(r.sr_theta_series[0])


def _climb_in_second_window():
    """SIGNAL's 3,000 ticks, with a steady climb of 10 bps a tick in place
    of ticks 600 to 900. Standardized by its tiny noise, that climb
    saturates the net's hidden layer, and the descent diverges at learning
    rates that the other 600-tick windows train at."""
    s = gen_synthetic(SIGNAL)
    r = np.diff(np.log(s.mid))
    r[600:900] = 1e-3 + 1e-6 * np.random.default_rng(0).standard_normal(300)
    mid = s.mid[0] * np.exp(np.concatenate([[0.0], np.cumsum(r)]))
    half = (s.ask - s.bid) / 2
    return TickSeries(s.ts, mid - half, mid + half)


def _windows_one_by_one(series, train_spec, window, train_len):
    """(sr_theta, sr_observed) of each window of `series`, stepping by
    `window`: each trains on its own, drawing its own dropout masks, then
    sweeps and fits; a DegenerateError gives NaN."""
    theta, observed = [], []
    for start in range(0, len(series) - window + 1, window):
        chunk = series.window(start, start + window)
        try:
            net = train(chunk.window(0, train_len), train_spec)
            triples = sweep(chunk.window(train_len, window), net, SWEEP)
            fit = fit_pml(sweep_points(triples))
        except DegenerateError:
            theta.append(np.nan)
            observed.append(np.nan)
            continue
        theta.append(fit.sr_theta)
        sr = sharpe(triples[0][1], DEFAULT_RF_PER_PERIOD)
        observed.append(np.nan if sr is None else sr)
    return np.array(theta), np.array(observed)


@pytest.mark.parametrize("epochs, learning_rate", [(200, 0.5), (257, 0.3)])
def test_rolling_matches_the_windows_trained_one_by_one(
        monkeypatch, epochs, learning_rate):
    # the windows train in one call, stepped in groups of 2, 2 and 1, and
    # each window's numbers are those it gives alone: also beside and
    # after a window whose training diverges (the second), after one whose
    # variant forecast is not finite (the fourth), and with engine passes
    # that end inside windows
    series = _climb_in_second_window()
    spec = dataclasses.replace(TRAIN, epochs=epochs,
                               learning_rate=learning_rate)
    with pytest.raises(DegenerateError, match="non-finite training loss"):
        train(series.window(600, 900), spec)
    variant_row = analysis.variant_surprise_series

    def non_finite_in_fourth(vs, k, s, first=None):
        if k == 1 and s.ts[0] == series.ts[1800 + 300]:
            raise DegenerateError("non-finite forecast")
        return variant_row(vs, k, s, first)

    monkeypatch.setattr(analysis, "variant_surprise_series",
                        non_finite_in_fourth)
    theta, observed = _windows_one_by_one(series, spec, 600, 300)
    assert np.isnan(theta[[1, 3]]).all()
    assert np.isfinite(theta[[0, 2, 4]]).all()
    calls, engine_calls = [], []

    def spy(series, spec):
        calls.append(len(series))
        return train(series, spec)

    def engine(*args, **kwargs):
        engine_calls.append(kwargs["starts"])
        return run_backtest_columns(*args, **kwargs)

    monkeypatch.setattr(pml, "train", spy)
    monkeypatch.setattr(analysis, "run_backtest_columns", engine)
    # 8 variant columns of 300 ticks a window, 12 columns an engine pass
    monkeypatch.setattr(backtest, "_COLUMN_TICKS", 12 * 300)
    # 293 training rows of 8 units: five arrays' bytes hold a group of 2
    # (two arrays a window and the shared mask)
    monkeypatch.setattr(predictor, "_GROUP_BYTES", 5 * 8 * 293 * 8)
    r = rolling_pml(series, spec, SWEEP, window=600, step=600)
    assert r.sr_theta_series.tobytes() == theta.tobytes()
    assert r.sr_observed_series.tobytes() == observed.tobytes()
    # one call for every window, through the name `pml.train`: a tracer
    # that wraps it counts the training there
    assert calls == [5]
    # one engine call for the variant columns of every window that
    # trained, through the name `analysis.run_backtest_columns`
    assert [list(s) for s in engine_calls] == [
        [start + 300 for start in (0, 1200, 1800, 2400) for _ in range(8)]]


def test_rolling_draws_each_first_layer_once_and_masks_per_window(
        monkeypatch):
    # a window's first hidden layer serves its base forecast and all its
    # variants; each window's variants draw their own keep rows
    firsts, masks = [], []
    first_layer, variant_masks = predictor.first_layer, predictor._variant_masks

    def counted_first(*args):
        firsts.append(args)
        return first_layer(*args)

    def counted_masks(*args):
        masks.append(args)
        return variant_masks(*args)

    monkeypatch.setattr(analysis, "first_layer", counted_first)
    monkeypatch.setattr(predictor, "first_layer", counted_first)
    monkeypatch.setattr(predictor, "_variant_masks", counted_masks)
    r = rolling_pml(gen_synthetic(SIGNAL), TRAIN, SWEEP, window=1200,
                    step=900)
    assert np.isfinite(r.sr_theta_series).all()
    assert len(firsts) == len(r) == 3
    assert len(masks) == len(r) * SWEEP.n_configs * SWEEP.K == 24


def test_rolling_refit_stays_small():
    # the decay benchmark's windows: 1,993 training rows, hidden 8 and 150
    # epochs. The peak measured 1.61 MB; all 150 epochs' masks held as
    # bools (2.4 MB) or as float64 (19 MB) would cross the gate
    series = gen_synthetic(SyntheticSpec(n_ticks=6000, sigma_noise=3e-4,
                                         phi=0.9, sigma_signal=2e-4,
                                         spread_bps=1.0, seed=41,
                                         decay_to=0.0))
    spec = TrainSpec(window=6, hidden=(8,), dropout_p=0.2, epochs=150,
                     learning_rate=0.05, l2=1e-4, seed=41)
    sweep_spec = SweepSpec(n_configs=8, threshold_range=(2.0, 4.0),
                           stop_loss_range=(30.0, 40.0),
                           take_profit_range=(30.0, 40.0), fee_bps=0.2,
                           seed=41, K=4, period_ticks=64)
    tracemalloc.start()
    try:
        r = rolling_pml(series, spec, sweep_spec, window=4000, step=2000)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert np.isfinite(r.sr_theta_series).all()
    assert peak_mb < 3.5, f"rolling_pml peaked at {peak_mb:.2f} MB"


def test_rolling_trains_its_groups_within_the_byte_budget(monkeypatch):
    # the decay benchmark's shape: 19 windows of 1,993 training rows and
    # hidden 8, in one `train` call. It steps groups whose scratch holds
    # two float64 (rows, 8) arrays a window and one shared mask, 127,552
    # bytes each, so the 1.5 MiB budget makes groups of 5; besides them it
    # holds every window's inputs (window + 1 floats a row) and a group's
    # temporaries (measured under 6 floats a row). The call grew by 3.87
    # MB; stepping all 19 as one group (with three arrays a window) grew by
    # 10.5 MB and peaked at 10.5
    series = gen_synthetic(SyntheticSpec(n_ticks=40000, sigma_noise=3e-4,
                                         phi=0.9, sigma_signal=2e-4,
                                         spread_bps=1.0, seed=41,
                                         decay_to=0.0))
    spec = TrainSpec(window=6, hidden=(8,), dropout_p=0.2, epochs=150,
                     learning_rate=0.05, l2=1e-4, seed=41)
    sweep_spec = SweepSpec(n_configs=8, threshold_range=(2.0, 4.0),
                           stop_loss_range=(30.0, 40.0),
                           take_profit_range=(30.0, 40.0), fee_bps=0.2,
                           seed=41, K=4, period_ticks=64)
    sizes, grown, stepped = [], [], []
    tanh = np.tanh

    def counted(a, *args, **kwargs):
        if a.ndim == 3:
            stepped.append(a.shape[0])
        return tanh(a, *args, **kwargs)

    def measured(group, spec):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fits = train(group, spec)
        grown.append(tracemalloc.get_traced_memory()[1] - before)
        sizes.append(len(group))
        return fits

    monkeypatch.setattr(pml, "train", measured)
    monkeypatch.setattr(np, "tanh", counted)
    tracemalloc.start()
    try:
        rolling_pml(series, spec, sweep_spec, window=4000, step=2000)
        peak = tracemalloc.get_traced_memory()[1]
        monkeypatch.undo()
        # the benchmark's run part trains 15,993 rows of 16 units first;
        # its training alone peaks higher, so the decay part never sets the
        # pass's peak
        tracemalloc.reset_peak()
        train(gen_synthetic(SyntheticSpec(n_ticks=16000, seed=41)),
              dataclasses.replace(spec, hidden=(16,), epochs=1))
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [19]
    # each epoch steps groups of 5, 5, 5 and 4 while every window is live
    assert stepped[:8] == [5, 5, 5, 4] * 2
    assert grown[0] < predictor._GROUP_BYTES + 8 * 19 * 1993 * (7 + 6)
    assert peak < run_peak, (peak, run_peak)


def test_unstable_fit_raises_instead_of_trading_inf_surprises():
    # training stays finite but the forecasts overflow exp: such a fit
    # must not reach the engine as +inf long signals
    series = gen_synthetic(SIGNAL).window(0, 1200)
    unstable = dataclasses.replace(TRAIN, learning_rate=1e2)
    predictor = train(series.window(0, 600), unstable)
    assert np.isfinite(predictor.final_loss)
    with pytest.raises(DegenerateError, match="non-finite forecast"):
        surprise_series(predictor, series.window(600, 1200))
    r = rolling_pml(series, unstable, SWEEP, window=1200, step=1200)
    assert len(r) == 1
    assert np.isnan(r.sr_theta_series[0])


def test_rolling_validation():
    series = gen_synthetic(SIGNAL).window(0, 600)
    with pytest.raises(ValidationError, match="exceeds series length"):
        rolling_pml(series, TRAIN, SWEEP, window=601, step=100)
    with pytest.raises(ValidationError, match="window too short for training"):
        rolling_pml(series, TRAIN, SWEEP, window=14, step=10)
    with pytest.raises(ValidationError, match="train_frac"):
        rolling_pml(series, TRAIN, SWEEP, window=200, step=100, train_frac=1.0)
    with pytest.raises(ValidationError, match="step"):
        rolling_pml(series, TRAIN, SWEEP, window=200, step=0)


def test_fit_to_dict_keys():
    # pml.json and fit-pml print the fit's fields; a new field changes them
    x = np.array([0.01, 0.02, 0.03])
    d = dataclasses.asdict(fit_pml(_points(x, RF + 2 * x), r_f_per_period=RF))
    assert set(d) == {"sr_theta", "sr_theta_annualized", "stderr",
                      "stderr_bootstrap", "r2", "r_f_per_period", "n_points",
                      "n_clamped", "intercept_mode", "risk_axis",
                      "fitted_intercept"}
    assert d["sr_theta"] == pytest.approx(2.0, abs=1e-9)
    assert d["intercept_mode"] == "fixed"
    assert d["risk_axis"] == "priced"
    assert d["n_points"] == 3
    assert d["stderr_bootstrap"] is None
