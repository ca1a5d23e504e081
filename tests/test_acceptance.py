"""Acceptance gate: twelve criteria for the assembled laboratory.

Each test prints one pass/fail line (visible with `pytest -v -s`) and
asserts the criterion's pinned tolerance. The statistical criteria run
seeded Monte Carlo trials, so every run sees the same draws.
"""

import os
import subprocess
import sys
import time
import tracemalloc
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import risklab
from cluster_oracle import cluster_tightness
from risklab import (AssetUniverse, StrategyConfig, SweepSpec, SyntheticSpec,
                     TickSeries, TrainSpec, beta, fit_pml, gen_synthetic,
                     make_leaked, make_noise, make_persistence,
                     min_variance_portfolio, run_backtest,
                     run_backtest_columns, run_backtest_signals,
                     estimate_from_matrix, rolling_pml, sample_variants,
                     sharpe, surprise_return_correlation, surprise_series,
                     sweep, sweep_configs, tangency_portfolio, train,
                     trend_tau, variant_surprise_series, write_csv)
from risklab.cli import EXIT_OK, main
from risklab.pml import INTERCEPT_FIXED, INTERCEPT_FREE, RiskReturnPoint

SEC = 1_000_000_000
RF_PER_PERIOD = 0.05 / 252


def _report(num, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {state}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed: {detail}"


# ---------------------------------------------------------------- 1

MU3 = np.array([0.05, 0.10, 0.15])
VAR3 = np.array([0.01, 0.04, 0.09])
GRID_MIN_VARIANCE = 0.015384639999999996  # frozen from the same grid


def _grid_min(mu, var, target, step=1e-3):
    """Brute-force scan of two free weights over [-1, 2] at `step`."""
    grid = np.round(np.arange(round(-1.0 / step), round(2.0 / step) + 1), 0) * step
    best_v = np.inf
    for w1 in grid:
        w3 = 1.0 - w1 - grid
        ret = mu[0] * w1 + mu[1] * grid + mu[2] * w3
        feas = np.abs(ret - target) < 1e-12
        if not feas.any():
            continue
        v = np.where(feas, var[0] * w1 ** 2 + var[1] * grid ** 2 + var[2] * w3 ** 2,
                     np.inf)
        j = int(np.argmin(v))
        if v[j] < best_v:
            best_v = float(v[j])
    return best_v


def test_criterion_01_minimum_variance_beats_grid():
    t0 = time.perf_counter()
    uni = AssetUniverse(mu=MU3, sigma=np.diag(VAR3))
    p = min_variance_portfolio(uni, 0.10)
    grid_v = _grid_min(MU3, VAR3, 0.10)
    elapsed = time.perf_counter() - t0
    budget_ok = p.sigma_p ** 2 <= grid_v + 1e-6
    constraints_ok = (abs(float(np.sum(p.weights)) - 1.0) <= 1e-10
                      and abs(float(p.weights @ MU3) - 0.10) <= 1e-10)
    frozen_ok = grid_v == GRID_MIN_VARIANCE
    time_ok = elapsed < 10.0
    _report(1, "minimum variance beats 0.001-step grid",
            budget_ok and constraints_ok and frozen_ok and time_ok,
            f"closed {p.sigma_p ** 2:.12f} vs grid {grid_v:.12f}, "
            f"{elapsed:.2f}s")


# ---------------------------------------------------------------- 2


def _random_universe(rng, n):
    m = rng.normal(size=(n, n))
    sigma = m.T @ m / (n + 3) + 0.05 * np.eye(n)
    return AssetUniverse(mu=rng.uniform(0.02, 0.15, n), sigma=sigma)


def _random_invested(rng, n, count):
    """Exactly `count` random weight rows, each summing to one."""
    rows = []
    got = 0
    while got < count:
        z = rng.normal(size=(count, n))
        s = z.sum(axis=1)
        keep = np.abs(s) >= 0.2
        w = z[keep] / s[keep, None]
        rows.append(w)
        got += w.shape[0]
    return np.concatenate(rows)[:count]


def test_criterion_02_tangency_dominates_random_portfolios():
    r_f = 0.01
    margins = []
    for n, seed in ((2, 11), (5, 12), (10, 13)):
        rng = np.random.default_rng(seed)
        uni = _random_universe(rng, n)
        tan = tangency_portfolio(uni, r_f)
        sr_tan = (tan.mu_p - r_f) / tan.sigma_p
        w = _random_invested(rng, n, 100_000)
        mu_w = w @ uni.mu
        var_w = np.einsum("ij,jk,ik->i", w, uni.sigma, w)
        sr_best = float(((mu_w - r_f) / np.sqrt(var_w)).max())
        margins.append(sr_tan - sr_best)
    ok = all(m >= -1e-9 for m in margins)
    _report(2, "tangency dominates 1e5 invested portfolios (n=2,5,10)", ok,
            "worst margin {:.2e}".format(min(margins)))


# ---------------------------------------------------------------- 3


def test_criterion_03_variance_decomposition_identity():
    worst = 0.0
    for s in range(100):
        rng = np.random.default_rng(900 + s)
        rm = rng.normal(0.0, 0.01, 512)
        ri = rng.uniform(-2.0, 2.0) * rm + rng.normal(0.0, 0.005, 512)
        d = beta(ri, rm)
        gap = abs(d.asset_var - (d.systematic_var + d.idiosyncratic_var))
        worst = max(worst, gap)
    _report(3, "beta splits variance exactly on 100 seeded pairs",
            worst <= 1e-12, f"worst identity gap {worst:.2e}")


# ---------------------------------------------------------------- 4


def _variant_returns(series, vs, cfg):
    """(K, n_periods) period returns of cfg under each variant of vs."""
    return run_backtest_columns(
        series, (variant_surprise_series(vs, k, series) for k in range(vs.K)),
        [cfg] * vs.K)


def test_criterion_04_dropout_variance_behavior():
    series = gen_synthetic(SyntheticSpec(n_ticks=1500, sigma_noise=3e-4,
                                         phi=0.9, sigma_signal=2e-4,
                                         spread_bps=1.0, seed=21))
    cfg = StrategyConfig(threshold_bps=1.0, stop_loss_bps=40.0,
                         take_profit_bps=40.0, fee_bps=0.2, period_ticks=128)

    # no dropout: the variant family has a single member, so the
    # cross-variant variance is identically zero
    p0 = train(series, TrainSpec(window=6, hidden=(8,), dropout_p=0.0,
                                 epochs=40, learning_rate=0.05, seed=2))
    est0 = estimate_from_matrix(
        _variant_returns(series, sample_variants(p0, K=1, seed=5), cfg))
    zero_ok = est0.sigma2_mc == 0.0

    p = train(series, TrainSpec(window=6, hidden=(8,), dropout_p=0.2,
                                epochs=40, learning_rate=0.05, seed=2))
    spreads = {}
    for K in (32, 128):
        vals = []
        for s in range(10):
            vs = sample_variants(p, K=K, seed=100 + s)
            est = estimate_from_matrix(_variant_returns(series, vs, cfg))
            vals.append(est.sigma2_mc)
        spreads[K] = float(np.std(vals))
    ratio = spreads[128] / spreads[32]
    _report(4, "dropout variance: exact zero at p=0, spread shrinks with K",
            zero_ok and ratio <= 0.75,
            f"sigma2_mc(p=0)={est0.sigma2_mc}, spread ratio {ratio:.3f}")


# ---------------------------------------------------------------- 5

# 50-point fixture: x ~ U(0.002, 0.02), y = rf + 0.35 x + N(0, 2e-4),
# rng seed 7; frozen numbers come from a plain normal-equations script
ORACLE_FIXED_SLOPE = 0.349532917200827
ORACLE_FIXED_STDERR = 0.002003872810330953
ORACLE_FIXED_R2 = 0.9983920914147206
ORACLE_FREE_SLOPE = 0.3453111292509502
ORACLE_FREE_STDERR = 0.004631750512667655
ORACLE_FREE_R2 = 0.9914379855450836
ORACLE_FREE_INTERCEPT = 5.662969630079728e-05


def _points_from_xy(x, y):
    return [RiskReturnPoint(f"c{i:02d}", float(yi), float(xi), 0.0, float(xi),
                            False)
            for i, (xi, yi) in enumerate(zip(x, y))]


def test_criterion_05_market_line_regression_oracle():
    x = np.linspace(0.001, 0.02, 12)
    exact = _points_from_xy(x, RF_PER_PERIOD + 3.0 * x)
    fit = fit_pml(exact, r_f_per_period=RF_PER_PERIOD)
    exact_ok = (abs(fit.sr_theta - 3.0) <= 1e-9
                and abs(fit.r2 - 1.0) <= 1e-9)

    rng = np.random.default_rng(7)
    x50 = rng.uniform(0.002, 0.02, 50)
    y50 = RF_PER_PERIOD + 0.35 * x50 + rng.normal(0.0, 2e-4, 50)
    pts = _points_from_xy(x50, y50)
    fixed = fit_pml(pts, r_f_per_period=RF_PER_PERIOD,
                    intercept_mode=INTERCEPT_FIXED)
    free = fit_pml(pts, r_f_per_period=RF_PER_PERIOD,
                   intercept_mode=INTERCEPT_FREE)
    noisy_ok = (abs(fixed.sr_theta - ORACLE_FIXED_SLOPE) <= 1e-9
                and abs(fixed.stderr - ORACLE_FIXED_STDERR) <= 1e-9
                and abs(fixed.r2 - ORACLE_FIXED_R2) <= 1e-9
                and abs(free.sr_theta - ORACLE_FREE_SLOPE) <= 1e-9
                and abs(free.stderr - ORACLE_FREE_STDERR) <= 1e-9
                and abs(free.r2 - ORACLE_FREE_R2) <= 1e-9
                and abs(free.fitted_intercept - ORACLE_FREE_INTERCEPT) <= 1e-9)
    _report(5, "market-line fit matches least-squares oracle",
            exact_ok and noisy_ok,
            f"exact slope {fit.sr_theta:.12f}, "
            f"fixed slope {fixed.sr_theta:.12f}")


# ---------------------------------------------------------------- 6

SCENARIO_BIDS = [99.0, 99.5, 103.0, 105.0, 105.0, 105.0]
SCENARIO_ASKS = [101.0, 100.0, 104.0, 105.5, 106.0, 106.0]


def _scenario_series():
    ts = SEC * np.arange(1, 7)
    return TickSeries(ts, np.array(SCENARIO_BIDS),
                      np.array(SCENARIO_ASKS))


def test_criterion_06_hand_walked_trades():
    s = _scenario_series()
    long_cfg = StrategyConfig(threshold_bps=50, stop_loss_bps=10_000,
                              take_profit_bps=500, fee_bps=10,
                              allow_short=False, period_ticks=6)
    res_long = run_backtest(s, make_leaked(2), long_cfg)
    long_ok = (res_long.n_trades == 1
               and abs(res_long.trade_returns[0] - 0.048) <= 1e-12)

    short_cfg = StrategyConfig(threshold_bps=50, stop_loss_bps=40,
                               take_profit_bps=10_000, fee_bps=10,
                               allow_short=True, period_ticks=6)
    res_short = run_backtest_signals(s, np.array([-0.035, 0, 0, 0, 0, 0]),
                                     short_cfg)
    short_want = 99.5 / 105.5 - 1.0 - 0.002  # = -0.05887...
    short_ok = (res_short.n_trades == 1
                and abs(res_short.trade_returns[0] - short_want) <= 1e-12)
    _report(6, "six-tick hand walk-throughs reproduced",
            long_ok and short_ok,
            f"long {res_long.trade_returns[0]:.12f}, "
            f"short {res_short.trade_returns[0]:.12f}")


# ---------------------------------------------------------------- 7


def _mean_sweep_sharpe(series, predictor, sp):
    vals = [sharpe(r) for _, r, _ in sweep(series, predictor, sp)]
    vals = [v for v in vals if v is not None]
    return float(np.mean(vals)) if vals else float("-inf")


def test_criterion_07_information_edge_ordering():
    t0 = time.perf_counter()
    wins = 0
    for s in range(10):
        day = gen_synthetic(SyntheticSpec(n_ticks=30_000, sigma_noise=3e-4,
                                          phi=0.9, sigma_signal=2e-4,
                                          spread_bps=1.0, seed=s))
        net = train(day.window(0, 5000),
                    TrainSpec(window=6, hidden=(8,), dropout_p=0.2,
                              epochs=80, learning_rate=0.05, seed=s))
        sp = SweepSpec(n_configs=6, threshold_range=(2.0, 10.0),
                       stop_loss_range=(20.0, 80.0),
                       take_profit_range=(20.0, 80.0),
                       fee_bps=0.5, seed=s, K=1, period_ticks=1000)
        m_leak = _mean_sweep_sharpe(day, make_leaked(1), sp)
        m_net = _mean_sweep_sharpe(day, net, sp)
        m_noise = _mean_sweep_sharpe(day, make_noise(3e-4, seed=s), sp)
        wins += m_leak > m_net > m_noise
    elapsed = time.perf_counter() - t0
    _report(7, "leaked > trained net > noise mean sweep Sharpe",
            wins >= 9 and elapsed < 300.0,
            f"{wins}/10 seeds, {elapsed:.1f}s")


# ---------------------------------------------------------------- 8

_Pt = namedtuple("_Pt", "sigma_total mean_return")


def test_criterion_08_shared_backbone_clusters_tighter():
    train_kw = dict(window=6, hidden=(8,), dropout_p=0.2, epochs=30,
                    learning_rate=0.05)
    wins = 0
    for s in range(10):
        day = gen_synthetic(SyntheticSpec(n_ticks=12_000, sigma_noise=3e-4,
                                          phi=0.9, sigma_signal=2e-4,
                                          spread_bps=1.0, seed=300 + s))
        sp = SweepSpec(n_configs=12, threshold_range=(2.0, 3.0),
                       stop_loss_range=(40.0, 50.0),
                       take_profit_range=(40.0, 50.0),
                       fee_bps=0.2, seed=s, K=1, period_ticks=500)
        configs = sweep_configs(sp)
        backbone = train(day.window(0, 1500), TrainSpec(seed=s, **train_kw))
        sig = surprise_series(backbone, day)
        shared_pts, indep_pts = [], []
        for j, c in enumerate(configs):
            r = run_backtest_signals(day, sig, c)
            shared_pts.append(_Pt(r.stdev, r.mean))
            retrained = train(day.window(0, 1500),
                              TrainSpec(seed=1000 * s + j + 1, **train_kw))
            rj = run_backtest_signals(day, surprise_series(retrained, day), c)
            indep_pts.append(_Pt(rj.stdev, rj.mean))
        t = cluster_tightness({"shared": shared_pts,
                               "independent": indep_pts})
        wins += t["shared"] < t["independent"]
    _report(8, "shared backbone clusters tighter than retrains",
            wins >= 7, f"{wins}/10 seeds")


# ---------------------------------------------------------------- 9


def test_criterion_09_alpha_decay_shows_in_rolling_slope():
    sweep_kw = dict(n_configs=4, threshold_range=(0.5, 5.0),
                    stop_loss_range=(20.0, 80.0),
                    take_profit_range=(20.0, 80.0),
                    fee_bps=0.2, K=1, period_ticks=128)
    negative = 0
    small = 0
    for s in range(10):
        base = dict(n_ticks=9000, sigma_noise=3e-4, phi=0.9,
                    sigma_signal=3e-4, spread_bps=1.0, seed=400 + s)
        taus = {}
        for label, extra in (("decay", {"decay_to": 0.0}), ("flat", {})):
            day = gen_synthetic(SyntheticSpec(**base, **extra))
            roll = rolling_pml(day,
                               TrainSpec(window=6, hidden=(8,), dropout_p=0.2,
                                         epochs=40, learning_rate=0.05,
                                         seed=s),
                               SweepSpec(seed=s, **sweep_kw),
                               window=1500, step=750)
            taus[label] = trend_tau(roll.sr_theta_series)
        negative += taus["decay"] < 0
        small += abs(taus["flat"]) < 0.5
    _report(9, "fading signal drives rolling slope downward",
            negative >= 9 and small >= 7,
            f"decay negative {negative}/10, stationary small {small}/10")


# ---------------------------------------------------------------- 10


def test_criterion_10_correlation_identity_and_null_bounds():
    walk = gen_synthetic(SyntheticSpec(n_ticks=2000, sigma_noise=5e-4,
                                       spread_bps=0.5, seed=7))
    leak_curve = surprise_return_correlation(walk, make_leaked(1), max_lag=5)
    at_one = float(leak_curve.corr[list(leak_curve.lags).index(1)])
    leak_ok = abs(at_one - 1.0) <= 1e-9

    wins = 0
    for s in range(10):
        day = gen_synthetic(SyntheticSpec(n_ticks=4000, sigma_noise=5e-4,
                                          spread_bps=0.5, seed=500 + s))
        curve = surprise_return_correlation(day, make_noise(3e-4, seed=s),
                                            max_lag=5)
        ok = True
        for c, n in zip(curve.corr, curve.n):
            if np.isnan(c):
                continue
            ok = ok and abs(c) <= 3.0 / np.sqrt(n)
        wins += ok
    _report(10, "leak pins corr=1 at +1; noise stays inside 3/sqrt(n)",
            leak_ok and wins >= 9,
            f"corr@+1 = {at_one:.12f}, noise inside bounds {wins}/10")


# ---------------------------------------------------------------- 11

RERUN_CONFIG = """\
[experiment]
seed = 3

[data]
kind = synthetic
n_ticks = 2400
sigma_noise = 0.0003
phi = 0.9
sigma_signal = 0.0002
spread_bps = 1.0

[train]
kind = net
window = 6
hidden = 8
dropout_p = 0.2
epochs = 40
learning_rate = 0.05
split = 0.5

[sweep]
n_configs = 8
threshold_lo = 0.5
threshold_hi = 8
stop_loss_lo = 20
stop_loss_hi = 80
take_profit_lo = 20
take_profit_hi = 80
fee_bps = 0.2
k = 4
period_ticks = 64

[rolling]
window = 1200
step = 600
"""


def test_criterion_11_rerun_is_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(RERUN_CONFIG, encoding="utf-8")
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    rc1 = main(["run", "--config", str(cfg), "--out-dir", str(out1)])
    rc2 = main(["run", "--config", str(cfg), "--out-dir", str(out2)])
    capsys.readouterr()
    same = {name: (out1 / name).read_bytes() == (out2 / name).read_bytes()
            for name in ("points.csv", "pml.json", "rolling.csv")}
    _report(11, "rerun reproduces artifacts byte for byte",
            rc1 == EXIT_OK and rc2 == EXIT_OK and all(same.values()),
            ", ".join(f"{k}={'=' if v else '!'}" for k, v in same.items()))


# ---------------------------------------------------------------- 12


def test_criterion_12_million_tick_throughput():
    series = gen_synthetic(SyntheticSpec(n_ticks=1_000_000, sigma_noise=5e-4,
                                         spread_bps=1.0, seed=99))
    cfg = StrategyConfig(threshold_bps=10.0, stop_loss_bps=50.0,
                         take_profit_bps=50.0, fee_bps=1.0, period_ticks=1000)
    t0 = time.perf_counter()
    result = run_backtest(series, make_persistence(), cfg)
    elapsed = time.perf_counter() - t0
    _report(12, "one million ticks backtested in under five seconds",
            elapsed < 5.0 and len(result.period_returns) == 1000,
            f"{elapsed:.2f}s, {result.n_trades} trades")


def test_million_tick_trade_heavy_throughput():
    # criterion 12's persistence predictor never trades, so it never runs
    # the exit scan; the leaked one opens a trade about every 24 ticks
    series = gen_synthetic(SyntheticSpec(n_ticks=1_000_000, sigma_noise=5e-4,
                                         spread_bps=1.0, seed=99))
    cfg = StrategyConfig(threshold_bps=10.0, stop_loss_bps=50.0,
                         take_profit_bps=50.0, fee_bps=1.0, period_ticks=1000)
    t0 = time.perf_counter()
    result = run_backtest(series, make_leaked(1), cfg)
    elapsed = time.perf_counter() - t0
    assert result.n_trades > 0
    assert elapsed < 5.0, f"{elapsed:.2f}s for {result.n_trades} trades"


def test_million_tick_trade_heavy_memory_is_bounded():
    # the exit table holds a few arrays per candidate entry (45,419 here)
    # and a chunk of candidates x EXIT_BLOCK at a time, and no Fill is built
    # unless read: the peak measured 16.7 MB, where the per-trade walk that
    # built every fill peaked at 29.1 MB and a table of Python lists per
    # candidate at 34 MB
    series = gen_synthetic(SyntheticSpec(n_ticks=1_000_000, sigma_noise=5e-4,
                                         spread_bps=1.0, seed=99))
    cfg = StrategyConfig(threshold_bps=10.0, stop_loss_bps=50.0,
                         take_profit_bps=50.0, fee_bps=1.0, period_ticks=1000)
    surprise = surprise_series(make_leaked(1), series)
    tracemalloc.start()
    try:
        result = run_backtest_signals(series, surprise, cfg)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert result.n_trades == 41_651
    assert peak_mb < 30.0, f"engine peaked at {peak_mb:.1f} MB"


def test_million_tick_noise_surprise_throughput():
    # the noise baseline draws one gaussian per tick; it must stay a bulk
    # array computation, not one generator per tick
    series = gen_synthetic(SyntheticSpec(n_ticks=1_000_000, sigma_noise=5e-4,
                                         spread_bps=1.0, seed=99))
    t0 = time.perf_counter()
    surprise = surprise_series(make_noise(3e-4, seed=1), series)
    elapsed = time.perf_counter() - t0
    assert np.isfinite(surprise).all() and surprise.std() > 0
    assert elapsed < 2.0, f"{elapsed:.2f}s for {len(series)} ticks"


def test_wide_variant_sweep_memory_is_bounded():
    # the engine reads the 512 variant columns in blocks of a fixed number
    # of elements: the peak measured 8.1 MB, where one block holding every
    # column peaked at 58.2 MB
    series = gen_synthetic(SyntheticSpec(n_ticks=6000, sigma_noise=3e-4,
                                         phi=0.9, sigma_signal=2e-4,
                                         spread_bps=1.0, seed=4))
    net = train(series.window(0, 2000),
                TrainSpec(window=6, hidden=(8,), dropout_p=0.2, epochs=20,
                          learning_rate=0.05, seed=1))
    spec = SweepSpec(n_configs=8, threshold_range=(4.0, 8.0), fee_bps=0.2,
                     K=64, period_ticks=64, seed=2)
    tracemalloc.start()
    try:
        triples = sweep(series.window(2000, 6000), net, spec)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert sum(result.n_trades for _, result, _ in triples) > 0
    assert all(mc.K == 64 for _, _, mc in triples)
    assert peak_mb < 25.0, f"sweep peaked at {peak_mb:.1f} MB"


def test_training_memory_is_bounded():
    # train allocates each hidden layer's two (n, width) arrays once per
    # call: on 16,000 rows with hidden 16 the peak measured 7.56 MB. A
    # third array, as the gradient's own, peaked at 9.61 MB; one more
    # (n, 16) array (2 MB) crosses the gate
    series = gen_synthetic(SyntheticSpec(n_ticks=16_007, sigma_noise=3e-4,
                                         phi=0.9, sigma_signal=2e-4,
                                         spread_bps=1.0, seed=4))
    spec = TrainSpec(window=6, hidden=(16,), dropout_p=0.2, epochs=3,
                     learning_rate=0.05, seed=1)
    tracemalloc.start()
    try:
        net = train(series, spec)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert np.isfinite(net.final_loss)
    assert peak_mb < 8.5, f"train peaked at {peak_mb:.2f} MB"


def _run_child(script, *args):
    """The whitespace-split stdout of `script` run by a fresh interpreter."""
    src = str(Path(risklab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    return done.stdout.split()


# The process's own peak RSS, in KiB. Not ru_maxrss: a child's ru_maxrss
# starts at the peak its parent had reached when it started the child, so
# in a long test session it hid any rise below pytest's own peak.
_OWN_PEAK = """\
def own_peak_kib():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))
"""

# Writes a million-tick series and prints how far write_csv raised the
# process's peak RSS, in KiB.
_WRITE_RSS_SCRIPT = _OWN_PEAK + """\
import sys
import numpy as np
from risklab import TickSeries, write_csv
n = 1_000_000
bid = 100.0 + np.random.default_rng(5).random(n)
series = TickSeries(np.arange(1, n + 1), bid, bid + 0.01)
del bid
before = own_peak_kib()
write_csv(series, sys.argv[1])
print(own_peak_kib() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_million_tick_write_csv_memory_is_bounded(tmp_path):
    # the writer formats fixed-size chunks, so its peak does not grow with
    # the rows: the rise measured 2.8 MB on a 37 MB file, where a writer
    # holding every row's text in memory rose by 173 MB
    out = tmp_path / "million.csv"
    rise_mb = int(*_run_child(_WRITE_RSS_SCRIPT, out)) / 1024
    assert out.stat().st_size > 30e6
    assert rise_mb < 16.0, f"write_csv raised peak RSS by {rise_mb:.1f} MB"


# Loads a tick CSV and prints its length and how far load_csv raised the
# process's peak RSS, in KiB.
_LOAD_RSS_SCRIPT = _OWN_PEAK + """\
import sys
from risklab import load_csv
before = own_peak_kib()
series = load_csv(sys.argv[1])
print(len(series), own_peak_kib() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_million_tick_load_csv_memory_is_bounded(tmp_path):
    # the loader parses fixed-size blocks of bytes straight into the
    # series' columns (24 MB): the rise measured 30 MB on a 37 MB file,
    # where parsing through np.loadtxt into rows the series then copied
    # rose by 47 MB, and holding the file's text twice 82.6 MB
    n = 1_000_000
    bid = 100.0 + np.random.default_rng(5).random(n)
    path = tmp_path / "million.csv"
    write_csv(TickSeries(np.arange(1, n + 1), bid, bid + 0.01), path)
    del bid
    ticks, rise_kib = map(int, _run_child(_LOAD_RSS_SCRIPT, path))
    assert ticks == n
    rise_mb = rise_kib / 1024
    assert rise_mb < 36.0, f"load_csv raised peak RSS by {rise_mb:.1f} MB"


# Times `risklab run` on the benchmark sweep's shape (16k training rows,
# hidden 16, window 6, K = 16 variant passes on 4k rows) and prints its
# exit code, CPU seconds and wall seconds. The untimed first run loads the
# modules `run` imports lazily: reading them from a cold disk cache adds
# wall time without CPU time.
_RUN_CPU_SCRIPT = """\
import contextlib, io, sys, time
from risklab.cli import main
argv = ["run", "--config", sys.argv[1], "--out-dir", sys.argv[2]]
with contextlib.redirect_stdout(io.StringIO()):
    main(argv)
    cpu0, t0 = time.process_time(), time.perf_counter()
    code = main(argv)
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - t0
print(code, cpu_s, wall_s)
"""

_SWEEP_SHAPE_CONFIG = """\
[experiment]
seed = 41

[data]
kind = synthetic
n_ticks = 20000
sigma_noise = 0.0003
phi = 0.9
sigma_signal = 0.0002
spread_bps = 1.0

[train]
kind = net
window = 6
hidden = 16
dropout_p = 0.2
epochs = 20
learning_rate = 0.05
split = 0.8

[sweep]
n_configs = 2
threshold_lo = 0.0
threshold_hi = 1.0
stop_loss_lo = 30
stop_loss_hi = 40
take_profit_lo = 30
take_profit_hi = 40
fee_bps = 0.2
k = 16
period_ticks = 64
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_run_uses_no_more_cpu_than_wall_time(tmp_path):
    # BLAS runs on one thread, so CPU time cannot exceed wall time; with
    # OpenBLAS's default second thread spinning between matmuls, this run
    # measured 0.48 s of CPU for 0.25 s of wall time on two CPUs
    config = tmp_path / "sweep.ini"
    config.write_text(_SWEEP_SHAPE_CONFIG, encoding="utf-8")
    code, cpu_s, wall_s = _run_child(_RUN_CPU_SCRIPT, config, tmp_path / "out")
    assert int(code) == EXIT_OK
    cpu_s, wall_s = float(cpu_s), float(wall_s)
    assert cpu_s <= 1.2 * wall_s, f"run used {cpu_s:.2f} s of CPU in {wall_s:.2f} s"
