"""The experiment pipeline as a library call, and the names the benchmark's
tracer and worker look up in risklab."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from risklab import (DegenerateError, SweepSpec, SyntheticSpec, TrainSpec,
                     analysis, backtest, cli, gen_synthetic, surprise_series,
                     sweep, train)
from risklab.cli import EXIT_OK, main
from risklab.pipeline import run_experiment

from backtest_oracle import walk_backtest
from test_cli import RUN_CONFIG, ZERO_TRADE_CONFIG

ROOT = Path(__file__).resolve().parents[1]


def _config(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_run_experiment_hands_over_what_run_writes(tmp_path, capsys):
    config = _config(tmp_path, RUN_CONFIG)
    handed = []
    fit, n_trades = run_experiment(cli.load_experiment(config),
                                   lambda name, text: handed.append((name, text)))
    assert [name for name, _ in handed] == ["points.csv", "mc.json", "pml.json",
                                            "correlation.csv", "rolling.csv"]
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    for name, text in handed:
        assert (out / name).read_bytes() == text.encode("utf-8"), name
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["fit"] == {"n_points": fit.n_points,
                               "n_clamped": fit.n_clamped}
    assert manifest["n_trades_total"] == n_trades > 0


def test_run_experiment_hands_over_the_sweep_before_failing(tmp_path):
    handed = []
    exp = cli.load_experiment(_config(tmp_path, ZERO_TRADE_CONFIG))
    with pytest.raises(DegenerateError,
                       match="^degenerate sweep: no strategy traded"):
        run_experiment(exp, lambda name, text: handed.append(name))
    assert handed == ["points.csv", "mc.json"]


def test_benchmark_hooks_resolve():
    # the tracer skips a target it cannot find, so a moved function would
    # read zero in the benchmark's per-layer metrics instead of failing
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _ in tracing.TARGETS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}"
    # the benchmark's worker parses each experiment config with it
    assert callable(getattr(cli, "load_experiment", None))


def test_sweep_calls_variant_surprise_series_once_per_variant(monkeypatch):
    # the tracer counts variant passes and rows where `sweep` calls
    # `analysis.variant_surprise_series`, reading the series third
    series = gen_synthetic(SyntheticSpec(n_ticks=1500, sigma_noise=3e-4,
                                         phi=0.9, sigma_signal=2e-4,
                                         spread_bps=1.0, seed=4))
    net = train(series.window(0, 800),
                TrainSpec(window=6, hidden=(8,), dropout_p=0.2, epochs=5))
    calls = []
    original = analysis.variant_surprise_series

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "variant_surprise_series", counted)
    evaluation = series.window(800, 1500)
    spec = SweepSpec(n_configs=3, threshold_range=(1.0, 4.0), K=4,
                     period_ticks=64, seed=2)
    sweep(evaluation, net, spec)
    assert len(calls) == spec.n_configs * spec.K
    assert all(args[2] is evaluation for args in calls)
    # every variant is handed the one shared first hidden layer
    assert len({id(args[3]) for args in calls}) == 1
    assert calls[0][3] is not None


def test_sweep_and_run_build_fills_only_when_read(tmp_path, monkeypatch):
    # a result keeps its trades as arrays; `sweep` and `run` never read
    # `fills`, so neither may pay for a Fill per execution
    made = []

    class CountedFill(backtest.Fill):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(backtest, "Fill", CountedFill)
    series = gen_synthetic(SyntheticSpec(n_ticks=1500, sigma_noise=3e-4,
                                         phi=0.9, sigma_signal=2e-4,
                                         spread_bps=1.0, seed=4))
    net = train(series.window(0, 800),
                TrainSpec(window=6, hidden=(8,), dropout_p=0.2, epochs=5))
    evaluation = series.window(800, 1500)
    spec = SweepSpec(n_configs=3, threshold_range=(0.0, 1.0), K=4,
                     period_ticks=64, seed=2)
    triples = sweep(evaluation, net, spec)
    out = tmp_path / "out"
    assert main(["run", "--config", str(_config(tmp_path, RUN_CONFIG)),
                 "--out-dir", str(out)]) == EXIT_OK
    assert made == []

    cfg, result, _ = triples[0]
    assert result.n_trades > 0
    fills = result.fills
    assert len(made) == len(fills) == 2 * result.n_trades
    assert result.fills is fills
    _, want, _ = walk_backtest(
        evaluation.bid.tolist(), evaluation.ask.tolist(),
        surprise_series(net, evaluation).tolist(), cfg.threshold_bps,
        cfg.stop_loss_bps, cfg.take_profit_bps, cfg.fee_bps,
        cfg.allow_short, cfg.period_ticks)
    ts = evaluation.ts.tolist()
    assert fills == tuple((ts[i], side, price, reason)
                          for i, side, price, reason in want)
