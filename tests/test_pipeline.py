"""The experiment pipeline as a library call, and the names the benchmark's
tracer and worker look up in risklab."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from risklab import DegenerateError, cli
from risklab.cli import EXIT_OK, main
from risklab.pipeline import run_experiment

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
