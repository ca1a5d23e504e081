"""Tests of the benchmark itself.

    python3 -m pytest benchmark/selftest.py

The file name keeps it out of the repository's default test collection: it
runs the smoke mode (all four workloads, traced and not) in a subprocess,
which takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def test_benchmark_json_names_what_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == tracing.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_emits_every_metric_with_its_unit(smoke):
    _, final = smoke
    assert final["correct"] and final["failed"] == 0
    for workload in workloads.WORKLOADS:
        lines = final["workloads"][workload]
        for kind in ("end_to_end", "per_layer"):
            line = lines[kind]
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            assert got == want, (workload, kind)
            for m in line["metrics"].values():
                assert isinstance(m["value"], (int, float))


def test_smoke_reports_failures_hashes_and_fingerprint(smoke):
    reports, _ = smoke
    assert [r["workload"] for r in reports] == list(workloads.WORKLOADS)
    for report in reports:
        assert report["failed_frac"] == 0.0, report["failures"]
        assert report["artifacts_sha256"]
        fingerprint = report["fingerprint"]
        for key in ("nproc", "python", "numpy", "scipy", "blas",
                    "git_commit", "loadavg_start", "loadavg_end"):
            assert key in fingerprint
        layers = report["per_layer"]
        assert layers["trace.accounted_frac"]["value"] > 0.95
        assert layers["cli.import_s"]["value"] > 0


def test_layers_run_where_the_workloads_say(smoke):
    _, final = smoke

    def value(workload, name):
        return final["workloads"][workload]["per_layer"]["metrics"][name][
            "value"]

    assert value("sweep_decay", "predictor.variant_passes") > 0
    assert value("sweep_decay", "pml.windows") > 0
    assert value("sweep_decay", "market_data.csv_bytes_written") == 0
    assert value("sweep_decay", "predictor.surprise_calls.noise") == 0
    assert value("tape_edge", "market_data.csv_bytes_written") > 0
    assert value("tape_edge", "predictor.variant_passes") == 0
    assert value("tape_edge", "predictor.train_calls") == 0
    assert value("tape_edge", "predictor.surprise_calls.noise") == 2
    assert value("tape_edge", "backtest.trades") > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                           "sweep_decay", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
