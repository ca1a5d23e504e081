"""End-to-end command-line tests: exit codes, artifacts, determinism."""

import ctypes
import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import risklab
from risklab import SyntheticSpec, gen_synthetic, pipeline, write_csv
from risklab.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from risklab.pml import RiskReturnPoint, RollingPmlResult, points_to_csv
from risklab.market_data import load_csv

GEN_SPEC = """\
[synthetic]
n_ticks = 400
sigma_noise = 0.0003
phi = 0.9
sigma_signal = 0.0002
spread_bps = 1.0
seed = 9
"""

RUN_CONFIG = """\
[experiment]
seed = 3

[data]
kind = synthetic
n_ticks = 3000
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
n_configs = 10
threshold_lo = 0.5
threshold_hi = 8
stop_loss_lo = 20
stop_loss_hi = 80
take_profit_lo = 20
take_profit_hi = 80
fee_bps = 0.2
k = 8
period_ticks = 64

[rolling]
window = 1200
step = 900
"""

ARTIFACTS = ("points.csv", "pml.json", "mc.json", "correlation.csv",
             "rolling.csv", "manifest.json")


GOOD_CSV = "ts_ns,bid,ask\n1,99.0,101.0\n2,99.5,100.5\n3,99.0,101.0\n"

ZERO_TRADE_CONFIG = """\
[data]
kind = synthetic
n_ticks = 500

[train]
kind = persistence

[sweep]
n_configs = 2
threshold_lo = 5000
threshold_hi = 5000
k = 1
period_ticks = 64
"""


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _with_key(config, section, key, value):
    """`config` with `key = value` in `[section]`, replacing a value it has
    there; other sections keep theirs."""
    line = f"{key} = {value}\n"
    header = f"[{section}]\n"
    if header not in config:
        return config + f"\n{header}{line}"
    start = config.index(header) + len(header)
    end = config.find("\n[", start) + 1 or len(config)
    body = config[start:end]
    if re.search(f"^{key} = ", body, flags=re.M):
        body = re.sub(f"^{key} = .*\n", line, body, flags=re.M)
    else:
        body = line + body
    return config[:start] + body + config[end:]


def test_with_key_edits_only_its_section():
    config = _with_key(RUN_CONFIG, "rolling", "window", "5000")
    assert config == RUN_CONFIG.replace("window = 1200", "window = 5000")
    assert "[train]\nkind = net\nwindow = 6\n" in config
    added = _with_key(RUN_CONFIG, "train", "l2", "0.5")
    assert added == RUN_CONFIG.replace("[train]\n", "[train]\nl2 = 0.5\n")
    assert _with_key(RUN_CONFIG, "pml", "bootstrap", "5") \
        == RUN_CONFIG + "\n[pml]\nbootstrap = 5\n"


def _exit_code(argv):
    """The code `risklab` exits with; argparse rejects a flag by SystemExit."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def test_gen_data_writes_deterministic_csv(tmp_path, capsys):
    spec = _write(tmp_path / "spec.ini", GEN_SPEC)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["gen-data", "--spec", spec, "--out", str(out1)]) == EXIT_OK
    assert main(["gen-data", "--spec", spec, "--out", str(out2)]) == EXIT_OK
    text = out1.read_text(encoding="utf-8")
    assert text == out2.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "ts_ns,bid,ask"
    assert len(lines) == 401
    assert len(load_csv(out1)) == 400


def test_gen_data_invalid_spec_exits_2(tmp_path, capsys):
    spec = _write(tmp_path / "spec.ini",
                  "[synthetic]\nn_ticks = 100\nphi = 1.5\n")
    assert main(["gen-data", "--spec", spec,
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert "[synthetic] phi must satisfy |phi| < 1" in capsys.readouterr().err
    spec = _write(tmp_path / "spec.ini", "[synthetic]\nn_ticks = 1\n")
    assert main(["gen-data", "--spec", spec,
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert "[synthetic] n_ticks must be at least 2" in capsys.readouterr().err
    for key, value in (("sigma_noise", "nan"), ("spread_bps", "nan"),
                       ("decay_to", "nan"), ("sigma_signal", "inf"),
                       ("phi", "-inf")):
        spec = _write(tmp_path / "spec.ini",
                      f"[synthetic]\nn_ticks = 100\n{key} = {value}\n")
        assert main(["gen-data", "--spec", spec,
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG, key
        assert f"[synthetic] {key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
    # timestamps past int64 would wrap around
    spec = _write(tmp_path / "spec.ini",
                  "[synthetic]\nn_ticks = 100\ndt_ns = 100000000000000000\n")
    assert main(["gen-data", "--spec", spec,
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert "[synthetic] dt_ns * n_ticks must be at most" \
        in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_gen_data_missing_spec_exits_3(tmp_path, capsys):
    assert main(["gen-data", "--spec", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "x.csv")]) == EXIT_IO


def test_gen_data_rejects_unknown_key_and_missing_section(tmp_path, capsys):
    spec = _write(tmp_path / "spec.ini",
                  "[synthetic]\nn_ticks = 100\nbananas = 3\n")
    assert main(["gen-data", "--spec", spec,
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert "bananas" in capsys.readouterr().err
    spec = _write(tmp_path / "other.ini", "[data]\nkind = synthetic\n")
    assert main(["gen-data", "--spec", spec,
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_train_and_backtest_round_trip(tmp_path, capsys):
    spec = _write(tmp_path / "spec.ini", GEN_SPEC)
    data = tmp_path / "ticks.csv"
    assert main(["gen-data", "--spec", spec, "--out", str(data)]) == EXIT_OK
    config = _write(tmp_path / "train.ini",
                    "[train]\nkind = net\nwindow = 6\nhidden = 8\n"
                    "dropout_p = 0.2\nepochs = 30\nseed = 1\n")
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--config", config,
                 "--out", str(model)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["kind"] == "dropout-net"
    assert summary["final_loss"] > 0
    assert main(["backtest", "--data", str(data), "--predictor", str(model),
                 "--threshold-bps", "1", "--fee-bps", "0.2",
                 "--period-ticks", "64"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["n_trades"] > 0
    assert report["n_periods"] == 7
    assert np.isfinite(report["mean"])


def test_backtest_persistence_never_trades(tmp_path, capsys):
    spec = _write(tmp_path / "spec.ini", GEN_SPEC)
    data = tmp_path / "ticks.csv"
    main(["gen-data", "--spec", spec, "--out", str(data)])
    config = _write(tmp_path / "train.ini", "[train]\nkind = persistence\n")
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--config", config,
                 "--out", str(model)]) == EXIT_OK
    capsys.readouterr()
    assert main(["backtest", "--data", str(data),
                 "--predictor", str(model)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["n_trades"] == 0
    assert report["sharpe"] is None


def test_backtest_timestamp_beyond_int64_exits_2(tmp_path, capsys):
    data = _write(tmp_path / "ticks.csv", "ts_ns,bid,ask\n"
                  "1,99.0,101.0\n99999999999999999999,99.0,101.0\n")
    model = tmp_path / "model.json"
    config = _write(tmp_path / "train.ini", "[train]\nkind = persistence\n")
    assert main(["train", "--data", _write(tmp_path / "ok.csv", GOOD_CSV),
                 "--config", config, "--out", str(model)]) == EXIT_OK
    capsys.readouterr()
    assert main(["backtest", "--data", data,
                 "--predictor", str(model)]) == EXIT_CONFIG
    assert "malformed row at line 3" in capsys.readouterr().err


def test_backtest_non_utf8_data_exits_2(tmp_path, capsys):
    data = tmp_path / "ticks.csv"
    data.write_bytes(GOOD_CSV.encode("utf-8") + b"4,99.\xff,101.0\n")
    model = tmp_path / "model.json"
    config = _write(tmp_path / "train.ini", "[train]\nkind = persistence\n")
    assert main(["train", "--data", _write(tmp_path / "ok.csv", GOOD_CSV),
                 "--config", config, "--out", str(model)]) == EXIT_OK
    capsys.readouterr()
    assert main(["backtest", "--data", str(data),
                 "--predictor", str(model)]) == EXIT_CONFIG
    assert "ticks.csv: not UTF-8 text" in capsys.readouterr().err


def test_fit_pml_non_utf8_points_exits_2(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_bytes(points_to_csv(
        [RiskReturnPoint(f"c{i}", 0.3 * x, x, 0.0, x, False)
         for i, x in enumerate((0.01, 0.02, 0.03))]).encode("utf-8")
        + b"c3,0.\xff,0.04,0,0.04,false\n")
    assert main(["fit-pml", "--points", str(points)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "points.csv: not UTF-8 text" in captured.err
    assert "Traceback" not in captured.err


def _break_json(doc):
    return "{" + doc


def _misfit_weights(doc):
    d = json.loads(doc)
    d["weights"][0] = d["weights"][0][:-1]
    return json.dumps(d)


def _nan_noise_scale(doc):
    return json.dumps({**json.loads(doc), "kind": "noise",
                       "noise_scale": float("nan")})


@pytest.mark.parametrize("breakage", [_break_json, _misfit_weights,
                                      _nan_noise_scale])
def test_backtest_malformed_predictor_exits_2(tmp_path, capsys, breakage):
    data = _write(tmp_path / "ticks.csv", GOOD_CSV)
    config = _write(tmp_path / "train.ini",
                    "[train]\nkind = net\nwindow = 1\nhidden = 2\n"
                    "epochs = 2\n")
    model = tmp_path / "model.json"
    assert main(["train", "--data", data, "--config", config,
                 "--out", str(model)]) == EXIT_OK
    model.write_text(breakage(model.read_text(encoding="utf-8")),
                     encoding="utf-8")
    capsys.readouterr()
    assert main(["backtest", "--data", data,
                 "--predictor", str(model)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed predictor document" in captured.err


def test_backtest_non_finite_parameters_exit_2(tmp_path, capsys):
    data = _write(tmp_path / "ticks.csv", GOOD_CSV)
    config = _write(tmp_path / "train.ini", "[train]\nkind = leaked\n")
    model = tmp_path / "model.json"
    assert main(["train", "--data", data, "--config", config,
                 "--out", str(model)]) == EXIT_OK
    capsys.readouterr()
    for flag in ("--threshold-bps", "--stop-loss-bps", "--take-profit-bps",
                 "--fee-bps", "--rf", "--periods-per-year"):
        for value in ("nan", "inf"):
            assert _exit_code(["backtest", "--data", data, "--predictor",
                               str(model), flag, value]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{flag}: must be finite" in captured.err


def test_sweep_command_writes_points_and_mc(tmp_path, capsys):
    spec = _write(tmp_path / "spec.ini", GEN_SPEC)
    data = tmp_path / "ticks.csv"
    main(["gen-data", "--spec", spec, "--out", str(data)])
    config = _write(tmp_path / "exp.ini",
                    "[train]\nkind = leaked\n\n"
                    "[sweep]\nn_configs = 4\nthreshold_lo = 1\n"
                    "threshold_hi = 10\nfee_bps = 0.2\nk = 1\n"
                    "period_ticks = 64\n")
    model = tmp_path / "model.json"
    main(["train", "--data", str(data), "--config", config,
          "--out", str(model)])
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main(["sweep", "--data", str(data), "--predictor", str(model),
                 "--config", config, "--out-dir", str(out_dir)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_configs"] == 4
    points = (out_dir / "points.csv").read_text(encoding="utf-8")
    assert points.splitlines()[0] == \
        "config_id,mean_return,sigma_total,sigma_mc,sigma_priced,clamped"
    assert len(points.splitlines()) == 5
    mc = json.loads((out_dir / "mc.json").read_text(encoding="utf-8"))
    assert len(mc) == 4
    assert mc[0]["config_id"] == "cfg000"
    assert mc[0]["K"] == 1


def test_sweep_and_fit_pml_documents_are_pinned(tmp_path, capsys):
    # mc.json and fit-pml's stdout, byte for byte, against documents whose
    # keys are spelled out here: a renamed, added or dropped key, or another
    # mode string, changes the bytes
    spec = _write(tmp_path / "spec.ini", GEN_SPEC)
    data = tmp_path / "ticks.csv"
    config = _write(tmp_path / "exp.ini",
                    "[train]\nkind = net\nwindow = 4\nhidden = 4\n"
                    "epochs = 5\n\n[sweep]\nn_configs = 3\n"
                    "threshold_lo = 0\nthreshold_hi = 1\nfee_bps = 0.2\n"
                    "k = 2\nperiod_ticks = 64\n")
    model = tmp_path / "model.json"
    out = tmp_path / "out"
    assert main(["gen-data", "--spec", spec, "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data), "--config", config,
                 "--out", str(model)]) == EXIT_OK
    assert main(["sweep", "--data", str(data), "--predictor", str(model),
                 "--config", config, "--out-dir", str(out)]) == EXIT_OK
    capsys.readouterr()

    def text(doc):
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"

    triples = risklab.sweep(load_csv(data), risklab.load_predictor(model),
                            risklab.SweepSpec(n_configs=3,
                                              threshold_range=(0.0, 1.0),
                                              fee_bps=0.2, K=2,
                                              period_ticks=64))
    mc_doc = [{"config_id": f"cfg{i:03d}",
               "strategy": {"threshold_bps": cfg.threshold_bps,
                            "stop_loss_bps": cfg.stop_loss_bps,
                            "take_profit_bps": cfg.take_profit_bps,
                            "fee_bps": cfg.fee_bps,
                            "allow_short": cfg.allow_short,
                            "period_ticks": cfg.period_ticks},
               "n_trades": result.n_trades, "mu_mc": mc.mu_mc,
               "sigma2_mc": mc.sigma2_mc, "K": mc.K,
               "n_periods": mc.n_periods, "mode": "per_period",
               "per_period_variance": mc.per_period_variance.tolist()}
              for i, (cfg, result, mc) in enumerate(triples)]
    assert any(mc.sigma2_mc > 0 for _, _, mc in triples)
    assert (out / "mc.json").read_text(encoding="utf-8") == text(mc_doc)

    assert main(["fit-pml", "--points", str(out / "points.csv"),
                 "--intercept", "free"]) == EXIT_OK
    fit = risklab.fit_pml(risklab.load_points_csv(out / "points.csv"),
                          intercept_mode="free")
    assert capsys.readouterr().out == text(
        {"sr_theta": fit.sr_theta,
         "sr_theta_annualized": fit.sr_theta_annualized,
         "stderr": fit.stderr, "stderr_bootstrap": fit.stderr_bootstrap,
         "r2": fit.r2, "r_f_per_period": fit.r_f_per_period,
         "n_points": fit.n_points, "n_clamped": fit.n_clamped,
         "intercept_mode": fit.intercept_mode, "risk_axis": fit.risk_axis,
         "fitted_intercept": fit.fitted_intercept})


def test_fit_pml_exact_line(tmp_path, capsys):
    rf = 0.05 / 252
    x = np.linspace(0.001, 0.02, 8)
    pts = [RiskReturnPoint(f"c{i}", rf + 3.0 * xi, xi, 0.0, xi, False)
           for i, xi in enumerate(x)]
    path = tmp_path / "points.csv"
    path.write_text(points_to_csv(pts), encoding="utf-8")
    assert main(["fit-pml", "--points", str(path)]) == EXIT_OK
    fit = json.loads(capsys.readouterr().out)
    assert fit["sr_theta"] == pytest.approx(3.0, abs=1e-9)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-9)
    assert fit["intercept_mode"] == "fixed"


def test_fit_pml_error_paths(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    assert main(["fit-pml", "--points", str(empty)]) == EXIT_CONFIG
    assert "malformed points header" in capsys.readouterr().err
    header_only = tmp_path / "h.csv"
    header_only.write_text(
        "config_id,mean_return,sigma_total,sigma_mc,sigma_priced,clamped\n",
        encoding="utf-8")
    assert main(["fit-pml", "--points", str(header_only)]) == EXIT_CONFIG
    missing = tmp_path / "missing.csv"
    assert main(["fit-pml", "--points", str(missing)]) == EXIT_IO
    same = tmp_path / "same.csv"
    same.write_text(
        "config_id,mean_return,sigma_total,sigma_mc,sigma_priced,clamped\n"
        "a,0.001,0.01,0,0.01,false\nb,0.002,0.01,0,0.01,false\n",
        encoding="utf-8")
    assert main(["fit-pml", "--points", str(same)]) == EXIT_NUMERIC
    assert "degenerate" in capsys.readouterr().err
    points = tmp_path / "points.csv"
    points.write_text(points_to_csv(
        [RiskReturnPoint(f"c{i}", 0.3 * x, x, 0.0, x, False)
         for i, x in enumerate((0.01, 0.02, 0.03))]), encoding="utf-8")
    for flags in (["--bootstrap", "-1"],
                  ["--bootstrap", "5", "--bootstrap-seed", "-1"]):
        assert main(["fit-pml", "--points", str(points), *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be nonnegative" in captured.err
    # a non-finite rate or year length would put NaN or inf in the JSON
    for flag, value in (("--rf", "nan"), ("--rf", "inf"),
                        ("--periods-per-year", "inf")):
        assert _exit_code(["fit-pml", "--points", str(same), flag,
                           value]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: must be finite" in captured.err


def test_correlate_stdout_and_file_agree(tmp_path, capsys):
    spec = _write(tmp_path / "spec.ini", GEN_SPEC)
    data = tmp_path / "ticks.csv"
    main(["gen-data", "--spec", spec, "--out", str(data)])
    config = _write(tmp_path / "train.ini", "[train]\nkind = leaked\n")
    model = tmp_path / "model.json"
    main(["train", "--data", str(data), "--config", config,
          "--out", str(model)])
    capsys.readouterr()
    assert main(["correlate", "--data", str(data),
                 "--predictor", str(model)]) == EXIT_OK
    stdout_text = capsys.readouterr().out
    lines = stdout_text.splitlines()
    assert lines[0] == "lag,corr,n"
    assert len(lines) == 12
    by_lag = {int(l.split(",")[0]): l.split(",")[1] for l in lines[1:]}
    assert float(by_lag[1]) == pytest.approx(1.0, abs=1e-9)
    assert by_lag[0] == ""
    out_file = tmp_path / "corr.csv"
    assert main(["correlate", "--data", str(data), "--predictor", str(model),
                 "--out", str(out_file)]) == EXIT_OK
    assert out_file.read_text(encoding="utf-8") == stdout_text


def test_run_emits_all_artifacts_and_is_reproducible(tmp_path, capsys):
    config = _write(tmp_path / "exp.ini", RUN_CONFIG)
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    out3 = tmp_path / "out3"
    assert main(["run", "--config", config, "--out-dir", str(out1)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["out_dir"] == str(out1)
    assert np.isfinite(summary["sr_theta"])
    assert main(["run", "--config", config, "--out-dir", str(out2)]) == EXIT_OK
    assert main(["run", "--config", config, "--out-dir", str(out3),
                 "--jobs", "3"]) == EXIT_OK
    for name in ARTIFACTS:
        assert (out1 / name).is_file(), name
        a = (out1 / name).read_bytes()
        assert a == (out2 / name).read_bytes(), name
        assert a == (out3 / name).read_bytes(), name
    manifest = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seeds"]["experiment"] == 3
    assert manifest["seeds"]["data"] == 3
    assert manifest["config"]["sweep"]["n_configs"] == 10
    assert manifest["config"]["rolling"]["window"] == 1200
    fit = json.loads((out1 / "pml.json").read_text(encoding="utf-8"))
    assert fit["n_points"] == 10
    assert np.isfinite(fit["sr_theta"])
    points_lines = (out1 / "points.csv").read_text(encoding="utf-8").splitlines()
    assert len(points_lines) == 11
    rolling_lines = (out1 / "rolling.csv").read_text(encoding="utf-8").splitlines()
    assert rolling_lines[0] == "window_start,sr_theta,sr_observed,gap"
    assert len(rolling_lines) == 4


def test_run_on_the_mc_risk_axis_is_reproducible(tmp_path, capsys):
    # the paper's reading: regress on the dropout-resolved (epistemic) share
    config = _write(tmp_path / "mc.ini", RUN_CONFIG + "\n[pml]\nrisk_axis = mc\n")
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert main(["run", "--config", config, "--out-dir", str(out1)]) == EXIT_OK
    assert main(["run", "--config", config, "--out-dir", str(out2)]) == EXIT_OK
    fit = json.loads((out1 / "pml.json").read_text(encoding="utf-8"))
    assert fit["risk_axis"] == "mc"
    assert np.isfinite(fit["sr_theta"])
    for name in ARTIFACTS:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_zero_trade_sweep_exits_4(tmp_path, capsys):
    config = _write(tmp_path / "exp.ini", ZERO_TRADE_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", config,
                 "--out-dir", str(out)]) == EXIT_NUMERIC
    assert "degenerate sweep" in capsys.readouterr().err
    # the diagnostics that exist before the failure are still on disk
    assert (out / "points.csv").is_file()
    assert not (out / "pml.json").exists()


def test_failed_rerun_leaves_no_artifact_of_the_earlier_run(tmp_path):
    out = tmp_path / "out"
    good = _write(tmp_path / "good.ini", RUN_CONFIG)
    assert main(["run", "--config", good, "--out-dir", str(out)]) == EXIT_OK
    assert all((out / name).is_file() for name in ARTIFACTS)
    bad = _write(tmp_path / "bad.ini", ZERO_TRADE_CONFIG)
    assert main(["run", "--config", bad, "--out-dir", str(out)]) == EXIT_NUMERIC
    # only the rerun's own files are left, none of the first run's
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "mc.json",
                                                     "points.csv"]
    assert len((out / "points.csv").read_text(encoding="utf-8").splitlines()) == 3
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "failed"
    assert manifest["error"] == "DegenerateError"
    assert manifest["exit_code"] == EXIT_NUMERIC
    assert "no strategy traded" in manifest["message"]
    assert manifest["config"]["sweep"]["n_configs"] == 2
    assert "fit" not in manifest


def test_sweep_and_decay_leave_no_artifact_of_an_earlier_run(tmp_path,
                                                             capsys):
    config = _write(tmp_path / "exp.ini", RUN_CONFIG)
    spec = _write(tmp_path / "spec.ini", GEN_SPEC)
    data = tmp_path / "ticks.csv"
    model = tmp_path / "model.json"
    assert main(["gen-data", "--spec", spec, "--out", str(data)]) == EXIT_OK
    sweep_config = _write(tmp_path / "sweep.ini",
                          "[train]\nkind = leaked\n\n"
                          "[sweep]\nn_configs = 2\nthreshold_lo = 1\n"
                          "threshold_hi = 10\nk = 1\nperiod_ticks = 64\n")
    assert main(["train", "--data", str(data), "--config", sweep_config,
                 "--out", str(model)]) == EXIT_OK
    for command, left in (
            (["sweep", "--data", str(data), "--predictor", str(model),
              "--config", sweep_config], ["mc.json", "points.csv"]),
            (["decay", "--config", config], ["rolling.csv"])):
        out = tmp_path / command[0]
        assert main(["run", "--config", config,
                     "--out-dir", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
        assert main(command + ["--out-dir", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == left, command[0]


def test_manifest_ignores_jobs(tmp_path, capsys):
    # --jobs changes nothing, so the manifest cannot show it
    plain = _write(tmp_path / "plain.ini", RUN_CONFIG)
    runs = (([plain], "a"), ([plain, "--jobs", "2"], "c"))
    manifests = []
    for args, name in runs:
        out = tmp_path / name
        assert main(["run", "--config", *args, "--out-dir", str(out)]) == EXIT_OK
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert "status" not in json.loads(manifests[0])


def test_run_config_errors_exit_2(tmp_path, capsys):
    no_data = _write(tmp_path / "a.ini", "[train]\nkind = persistence\n")
    assert main(["run", "--config", no_data,
                 "--out-dir", str(tmp_path / "o1")]) == EXIT_CONFIG
    assert "[data]" in capsys.readouterr().err
    bad_section = _write(tmp_path / "b.ini",
                         "[data]\nkind = synthetic\nn_ticks = 100\n"
                         "[bananas]\nx = 1\n")
    assert main(["run", "--config", bad_section,
                 "--out-dir", str(tmp_path / "o2")]) == EXIT_CONFIG
    assert "bananas" in capsys.readouterr().err
    rolling_needs_net = _write(tmp_path / "c.ini",
                               "[data]\nkind = synthetic\nn_ticks = 100\n"
                               "[train]\nkind = persistence\n"
                               "[rolling]\nwindow = 50\nstep = 50\n")
    assert main(["run", "--config", rolling_needs_net,
                 "--out-dir", str(tmp_path / "o3")]) == EXIT_CONFIG
    not_ini = _write(tmp_path / "d.ini", "this is not an ini file\n")
    assert main(["run", "--config", not_ini,
                 "--out-dir", str(tmp_path / "o4")]) == EXIT_CONFIG
    missing = tmp_path / "missing.ini"
    assert main(["run", "--config", str(missing),
                 "--out-dir", str(tmp_path / "o5")]) == EXIT_IO
    capsys.readouterr()
    # a nonpositive jobs count is rejected before any work is done
    good = _write(tmp_path / "e.ini", RUN_CONFIG)
    for command in ("run", "decay"):
        out = tmp_path / f"o6-{command}"
        assert main([command, "--config", good, "--out-dir", str(out),
                     "--jobs", "0"]) == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()
    zero_jobs = _write(tmp_path / "f.ini", RUN_CONFIG + "\n[output]\njobs = 0\n")
    assert main(["run", "--config", zero_jobs,
                 "--out-dir", str(tmp_path / "o7")]) == EXIT_CONFIG
    assert "[output] unknown keys: jobs" in capsys.readouterr().err
    assert not (tmp_path / "o7").exists()
    nan_fee = _write(tmp_path / "g.ini",
                     RUN_CONFIG.replace("fee_bps = 0.2", "fee_bps = nan"))
    assert main(["run", "--config", nan_fee,
                 "--out-dir", str(tmp_path / "o8")]) == EXIT_CONFIG
    assert "fee_bps must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o8").exists()
    # a non-finite float fails before the out-dir exists, whatever its key
    for section, key, value in (
            ("data", "sigma_noise", "nan"), ("data", "spread_bps", "nan"),
            ("data", "decay_to", "nan"), ("data", "sigma_signal", "inf"),
            ("train", "learning_rate", "nan"), ("train", "l2", "inf"),
            ("pml", "rf_annual", "nan"), ("pml", "periods_per_year", "inf"),
            ("rolling", "train_frac", "nan")):
        config = _write(tmp_path / "h.ini",
                        _with_key(RUN_CONFIG, section, key, value))
        out = tmp_path / f"o9-{key}"
        assert main(["run", "--config", config,
                     "--out-dir", str(out)]) == EXIT_CONFIG, key
        assert f"[{section}] {key} must be finite" in capsys.readouterr().err
        assert not out.exists()
    noise = _write(tmp_path / "i.ini", RUN_CONFIG.replace(
        "kind = net", "kind = noise\nscale = nan"))
    assert main(["run", "--config", noise,
                 "--out-dir", str(tmp_path / "o10")]) == EXIT_CONFIG
    assert "[train] scale must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o10").exists()
    # a spec's own check names the section its value came from
    for section, key, value, message in (
            ("train", "window", "0", "window must be at least 1"),
            ("data", "n_ticks", "1", "n_ticks must be at least 2"),
            ("data", "dt_ns", str(10**17), "dt_ns * n_ticks must be at most"),
            ("sweep", "threshold_lo", "9",
             "threshold_range must be a nonempty interval")):
        config = _write(tmp_path / "l.ini",
                        _with_key(RUN_CONFIG, section, key, value))
        out = tmp_path / f"o13-{key}"
        assert main(["run", "--config", config,
                     "--out-dir", str(out)]) == EXIT_CONFIG, key
        assert f"error: [{section}] {message}" in capsys.readouterr().err
        assert not out.exists()
    for kind, setting, message in (
            ("leaked", "horizon = 0", "leak horizon must be at least 1"),
            ("noise", "seed = -1", "noise seed must be nonnegative")):
        config = _write(tmp_path / "m.ini", RUN_CONFIG.replace(
            "kind = net", f"kind = {kind}\n{setting}"))
        assert main(["run", "--config", config,
                     "--out-dir", str(tmp_path / "o14")]) == EXIT_CONFIG
        assert f"error: [train] {message}" in capsys.readouterr().err
    # a [rolling] section that cannot run fails before any work is done
    for old, new in (("step = 900", "step = 0"),
                     ("step = 900", "step = 900\ntrain_frac = 1.5"),
                     ("window = 1200", "window = 5000"),
                     ("window = 1200", "window = 10")):
        config = _write(tmp_path / "j.ini", RUN_CONFIG.replace(old, new))
        for command in ("run", "decay"):
            out = tmp_path / f"o11-{command}"
            assert main([command, "--config", config,
                         "--out-dir", str(out)]) == EXIT_CONFIG, new
            assert "[rolling] " in capsys.readouterr().err
            assert not out.exists()
    # so does a sweep that asks for dropout variants of a predictor without
    # dropout
    without_rolling = RUN_CONFIG[:RUN_CONFIG.index("[rolling]")]
    train = without_rolling[without_rolling.index("[train]"):
                            without_rolling.index("[sweep]")]
    for kind in ("noise", "leaked", "persistence", None):
        config = (_with_key(RUN_CONFIG, "train", "dropout_p", "0")
                  if kind is None else
                  without_rolling.replace(train, f"[train]\nkind = {kind}\n\n"))
        _write(tmp_path / "k.ini", config)
        for command in ("run", "decay") if kind is None else ("run",):
            out = tmp_path / f"o12-{command}"
            assert main([command, "--config", str(tmp_path / "k.ini"),
                         "--out-dir", str(out)]) == EXIT_CONFIG, kind
            assert "[sweep] k > 1" in capsys.readouterr().err
            assert not out.exists()


def _config_commands(tmp_path, config):
    """argv of each command that reads a config file, reading `config`;
    `train` and `sweep` also get a valid tick CSV and predictor. Every
    output goes under tmp_path / "out"."""
    data = str(tmp_path / "ticks.csv")
    model = str(tmp_path / "model.json")
    assert main(["gen-data", "--spec", _write(tmp_path / "spec.ini", GEN_SPEC),
                 "--out", data]) == EXIT_OK
    assert main(["train", "--data", data, "--config",
                 _write(tmp_path / "leaked.ini", "[train]\nkind = leaked\n"),
                 "--out", model]) == EXIT_OK
    out = tmp_path / "out"
    return {"gen-data": ["gen-data", "--spec", config, "--out",
                         str(out / "ticks.csv")],
            "train": ["train", "--data", data, "--config", config,
                      "--out", str(out / "model.json")],
            "sweep": ["sweep", "--data", data, "--predictor", model,
                      "--config", config, "--out-dir", str(out)],
            "run": ["run", "--config", config, "--out-dir", str(out)],
            "decay": ["decay", "--config", config, "--out-dir", str(out)]}


def test_non_utf8_config_exits_2_before_any_output(tmp_path, capsys):
    config = tmp_path / "latin1.ini"
    config.write_bytes(RUN_CONFIG.encode("utf-8") + b"# \xff\n")
    commands = _config_commands(tmp_path, str(config))
    capsys.readouterr()
    for name, argv in commands.items():
        assert main(argv) == EXIT_CONFIG, name
        err = capsys.readouterr().err
        assert err.startswith("error: latin1.ini: not UTF-8 text ("), name
        assert not (tmp_path / "out").exists(), name


def test_unknown_section_exits_2_for_every_config(tmp_path, capsys):
    bogus = "\n[bogus]\nx = 1\n"
    spec = _write(tmp_path / "spec-bogus.ini", GEN_SPEC + bogus)
    config = _write(tmp_path / "exp-bogus.ini", RUN_CONFIG + bogus)
    commands = _config_commands(tmp_path, config)
    commands["gen-data"][2] = spec
    # a gen-data spec holds [synthetic] only; an experiment config does not
    commands["gen-data [experiment]"] = ["gen-data", "--spec", _write(
        tmp_path / "spec-seed.ini", "[experiment]\nseed = 3\n\n" + GEN_SPEC),
        "--out", str(tmp_path / "out" / "ticks.csv")]
    capsys.readouterr()
    for name, argv in commands.items():
        assert main(argv) == EXIT_CONFIG, name
        assert "unknown config sections: " in capsys.readouterr().err, name
        assert not (tmp_path / "out").exists(), name


def test_train_and_sweep_check_every_experiment_section(tmp_path, capsys):
    # a config that `run` rejects fails `train` and `sweep` too, whichever
    # section holds the unknown key, although each reads one section
    config = tmp_path / "exp.ini"
    commands = _config_commands(tmp_path, str(config))
    capsys.readouterr()
    for section in ("data", "train", "sweep", "pml", "rolling",
                    "correlation", "output"):
        _write(config, _with_key(RUN_CONFIG, section, "bogus_key", "1"))
        for name in ("train", "sweep", "run"):
            assert main(commands[name]) == EXIT_CONFIG, (section, name)
            assert f"[{section}] unknown keys: bogus_key" \
                in capsys.readouterr().err, (section, name)
            assert not (tmp_path / "out").exists(), (section, name)
    # [data] stays optional for the commands that read a CSV; the net
    # that `train` writes has the dropout that the sweep's k = 8 needs
    _write(config, RUN_CONFIG[:RUN_CONFIG.index("[data]")]
           + RUN_CONFIG[RUN_CONFIG.index("[train]"):])
    (tmp_path / "out").mkdir()
    assert main(commands["train"]) == EXIT_OK
    commands["sweep"][4] = str(tmp_path / "out" / "model.json")
    assert main(commands["sweep"]) == EXIT_OK


def test_train_and_sweep_read_the_config_before_the_data(tmp_path, capsys):
    # a bad config exits 2 before a tick CSV or predictor is read: here
    # neither exists, which would exit 3
    missing = str(tmp_path / "missing")
    bad = _write(tmp_path / "bad.ini",
                 _with_key(RUN_CONFIG, "pml", "bogus_key", "1"))
    good = _write(tmp_path / "good.ini", RUN_CONFIG)
    for config, code in ((bad, EXIT_CONFIG), (good, EXIT_IO)):
        assert main(["train", "--data", missing, "--config", config,
                     "--out", str(tmp_path / "model.json")]) == code
        assert main(["sweep", "--data", missing, "--predictor", missing,
                     "--config", config,
                     "--out-dir", str(tmp_path / "out")]) == code
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "out").exists()


def test_experiment_seed_is_the_default_seed_of_train_and_sweep(tmp_path,
                                                               capsys):
    # the README's config: [experiment] seed = 3, and no seed in [train] or
    # [sweep], so both train and sweep with seed 3, as `run` does
    config = _write(tmp_path / "exp.ini", RUN_CONFIG)
    out = tmp_path / "out"
    out.mkdir()
    assert main(_config_commands(tmp_path, config)["train"]) == EXIT_OK
    model = out / "model.json"
    assert json.loads(model.read_text("utf-8"))["train_spec"]["seed"] == 3
    assert main(["sweep", "--data", str(tmp_path / "ticks.csv"),
                 "--predictor", str(model), "--config", config,
                 "--out-dir", str(out)]) == EXIT_OK
    mc = json.loads((out / "mc.json").read_text("utf-8"))
    spec = risklab.SweepSpec(n_configs=10, threshold_range=(0.5, 8.0),
                             stop_loss_range=(20.0, 80.0),
                             take_profit_range=(20.0, 80.0), fee_bps=0.2,
                             K=8, period_ticks=64, seed=3)
    strategies = [dataclasses.asdict(c) for c in risklab.sweep_configs(spec)]
    assert [doc["strategy"] for doc in mc] == strategies
    assert strategies != [dataclasses.asdict(c) for c in risklab.sweep_configs(
        dataclasses.replace(spec, seed=0))]


def test_only_run_and_decay_accept_jobs(tmp_path, capsys):
    commands = _config_commands(tmp_path, _write(tmp_path / "exp.ini",
                                                 RUN_CONFIG))
    capsys.readouterr()
    assert _exit_code(commands["sweep"] + ["--jobs", "2"]) == EXIT_CONFIG
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    for name in ("run", "decay"):
        assert main(commands[name] + ["--jobs", "1"]) == EXIT_OK, name


def test_rolling_window_longer_than_a_csv_exits_2_before_the_sweep(
        tmp_path, capsys):
    # a CSV's length is known only once it is loaded, after the out-dir exists
    data = tmp_path / "ticks.csv"
    write_csv(gen_synthetic(SyntheticSpec(n_ticks=1000, seed=3)), data)
    csv_data = RUN_CONFIG[RUN_CONFIG.index("[data]"):RUN_CONFIG.index("[train]")]
    on_csv = RUN_CONFIG.replace(csv_data, f"[data]\nkind = csv\npath = {data}\n\n")
    config = _write(tmp_path / "long.ini",
                    _with_key(on_csv, "rolling", "window", "1500"))
    run_out, decay_out = tmp_path / "run-out", tmp_path / "decay-out"
    assert main(["run", "--config", config,
                 "--out-dir", str(run_out)]) == EXIT_CONFIG
    assert "[rolling] window 1500 exceeds series length 1000" \
        in capsys.readouterr().err
    # only the manifest, which records the failure
    assert [p.name for p in run_out.iterdir()] == ["manifest.json"]
    manifest = json.loads((run_out / "manifest.json").read_text("utf-8"))
    assert (manifest["status"], manifest["exit_code"]) == ("failed", EXIT_CONFIG)
    assert main(["decay", "--config", config,
                 "--out-dir", str(decay_out)]) == EXIT_CONFIG
    assert "[rolling] window 1500" in capsys.readouterr().err
    assert not decay_out.exists()
    # the same file with a window that fits runs
    fits = _write(tmp_path / "fits.ini",
                  _with_key(on_csv, "rolling", "window", "1000"))
    assert main(["run", "--config", fits,
                 "--out-dir", str(run_out)]) == EXIT_OK
    assert sorted(p.name for p in run_out.iterdir()) == sorted(ARTIFACTS)


def test_decay_command(tmp_path, capsys):
    config = _write(tmp_path / "exp.ini", RUN_CONFIG)
    out = tmp_path / "decay-out"
    assert main(["decay", "--config", config, "--out-dir", str(out)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_windows"] == 3
    assert -1.0 <= summary["kendall_tau"] <= 1.0
    assert (out / "rolling.csv").is_file()
    no_rolling = _write(tmp_path / "nr.ini",
                        "[data]\nkind = synthetic\nn_ticks = 100\n")
    assert main(["decay", "--config", no_rolling,
                 "--out-dir", str(out)]) == EXIT_CONFIG
    assert "rolling" in capsys.readouterr().err


def test_decay_with_diverging_training_prints_no_numpy_warning(tmp_path):
    # every window's training overflows; decay reports the NaN windows
    # through its exit code and message alone, in a fresh process whose
    # stderr is what a user sees
    config = _write(tmp_path / "exp.ini",
                    _with_key(RUN_CONFIG, "train", "learning_rate", "100000"))
    src = str(Path(risklab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from risklab.cli import main; sys.exit(main())",
         "decay", "--config", config, "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == EXIT_NUMERIC
    assert done.stderr == "error: trend needs at least 2 finite values\n"


def test_decay_with_all_tied_windows_exits_4(tmp_path, capsys, monkeypatch):
    # two finite windows with one sr_theta: Kendall's tau is undefined
    def tied(series, *args, **kwargs):
        theta = np.array([0.5, np.nan, 0.5])
        return RollingPmlResult(window_starts=np.array([0, 900, 1800]),
                                sr_theta_series=theta,
                                sr_observed_series=theta.copy(),
                                gap_series=np.zeros(3))

    monkeypatch.setattr(pipeline, "rolling_pml", tied)
    config = _write(tmp_path / "exp.ini", RUN_CONFIG)
    out = tmp_path / "decay-out"
    assert main(["decay", "--config", config,
                 "--out-dir", str(out)]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "equal" in captured.err


def _child_stdout(code, cwd=None):
    """Standard output of `python -c code` in a fresh interpreter that
    imports risklab from this checkout."""
    src = str(Path(risklab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=cwd or src,
                          env={**os.environ, "PYTHONPATH": src})
    return done.stdout


def test_no_scipy_module_is_loaded(tmp_path):
    # numpy is risklab's only runtime dependency: the scipy modules loaded
    # after the import, each command and each mean-variance solve
    _write(tmp_path / "spec.ini", GEN_SPEC)
    _write(tmp_path / "train.ini", "[train]\nkind = net\nwindow = 6\n"
           "hidden = 8\ndropout_p = 0.2\nepochs = 30\nseed = 1\n")
    _write(tmp_path / "sweep.ini", "[sweep]\nn_configs = 4\nthreshold_lo = 1\n"
           "threshold_hi = 10\nfee_bps = 0.2\nk = 2\nperiod_ticks = 64\n")
    _write(tmp_path / "exp.ini", RUN_CONFIG)
    code = textwrap.dedent("""\
        import json, sys
        loaded = {}

        def record(step):
            loaded[step] = sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")

        import risklab
        record("import")
        from risklab import capm, cli
        data, model = ["--data", "ticks.csv"], ["--predictor", "model.json"]
        for argv in (["gen-data", "--spec", "spec.ini", "--out", "ticks.csv"],
                     ["train", *data, "--config", "train.ini",
                      "--out", "model.json"],
                     ["backtest", *data, *model],
                     ["sweep", *data, *model, "--config", "sweep.ini",
                      "--out-dir", "out"],
                     ["fit-pml", "--points", "out/points.csv"],
                     ["correlate", *data, *model],
                     ["run", "--config", "exp.ini", "--out-dir", "out"],
                     ["decay", "--config", "exp.ini", "--out-dir", "out"]):
            assert cli.main(argv) == 0, argv
            record(argv[0])
        universe = capm.AssetUniverse(mu=[0.05, 0.1, 0.15],
                                      sigma=[[0.01, 0, 0], [0, 0.04, 0],
                                             [0, 0, 0.09]])
        capm.min_variance_portfolio(universe, 0.1)
        record("min_variance_portfolio")
        capm.tangency_portfolio(universe, 0.01)
        record("tangency_portfolio")
        print(json.dumps(loaded))
        """)
    loaded = json.loads(_child_stdout(code, cwd=tmp_path).splitlines()[-1])
    assert list(loaded) == [
        "import", "gen-data", "train", "backtest", "sweep", "fit-pml",
        "correlate", "run", "decay", "min_variance_portfolio",
        "tangency_portfolio"]
    assert loaded == dict.fromkeys(loaded, [])


def test_commands_load_no_numpy_or_scipy_module_after_import(tmp_path):
    # numpy imports numpy.random and numpy.ma on first use; a command that
    # is first to use one pays for the import inside its own run
    config = _write(tmp_path / "exp.ini", RUN_CONFIG)
    code = textwrap.dedent(f"""\
        import sys
        import risklab.cli
        loaded = set(sys.modules)
        for command in ("run", "decay"):
            argv = [command, "--config", {config!r}, "--out-dir", "out"]
            assert risklab.cli.main(argv) == 0
        print(sorted(m for m in set(sys.modules) - loaded
                     if m.split(".")[0] in ("numpy", "scipy")))
        """)
    assert _child_stdout(code, cwd=tmp_path).splitlines()[-1] == "[]"


def test_main_runs_blas_on_one_thread(tmp_path, capsys):
    # a second OpenBLAS thread spins between matmuls and saves no wall time
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    getters = [getattr(lib, name) for name in (
        "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_", "openblas_get_num_threads")
        if hasattr(lib, name)]
    if not getters:
        pytest.skip("numpy's BLAS exports no known OpenBLAS thread getter")
    threads = getters[0]
    threads.argtypes, threads.restype = [], ctypes.c_int
    spec = _write(tmp_path / "spec.ini", GEN_SPEC)
    assert main(["gen-data", "--spec", spec,
                 "--out", str(tmp_path / "ticks.csv")]) == EXIT_OK
    assert threads() == 1


def test_out_dir_falls_back_to_environment(tmp_path, capsys, monkeypatch):
    spec = _write(tmp_path / "spec.ini", GEN_SPEC)
    data = tmp_path / "ticks.csv"
    main(["gen-data", "--spec", spec, "--out", str(data)])
    config = _write(tmp_path / "exp.ini",
                    "[train]\nkind = leaked\n\n"
                    "[sweep]\nn_configs = 2\nthreshold_lo = 1\n"
                    "threshold_hi = 10\nfee_bps = 0.2\nk = 1\n"
                    "period_ticks = 64\n")
    model = tmp_path / "model.json"
    main(["train", "--data", str(data), "--config", config,
          "--out", str(model)])
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("RISKLAB_OUT", str(env_dir))
    capsys.readouterr()
    assert main(["sweep", "--data", str(data), "--predictor", str(model),
                 "--config", config]) == EXIT_OK
    assert (env_dir / "points.csv").is_file()


def test_sweep_out_dir_comes_from_the_flag_then_the_config(tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RISKLAB_OUT", raising=False)
    main(["gen-data", "--spec", _write(tmp_path / "spec.ini", GEN_SPEC),
          "--out", "ticks.csv"])
    config = _write(tmp_path / "exp.ini",
                    "[train]\nkind = leaked\n\n"
                    "[sweep]\nn_configs = 2\nthreshold_lo = 1\n"
                    "threshold_hi = 10\nfee_bps = 0.2\nk = 1\n"
                    "period_ticks = 64\n\n[output]\ndir = from-config\n")
    main(["train", "--data", "ticks.csv", "--config", config,
          "--out", "model.json"])
    sweep = ["sweep", "--data", "ticks.csv", "--predictor", "model.json",
             "--config", config]
    assert main(sweep) == EXIT_OK
    assert (tmp_path / "from-config" / "points.csv").is_file()
    assert main(sweep + ["--out-dir", "from-flag"]) == EXIT_OK
    assert (tmp_path / "from-flag" / "points.csv").is_file()
    assert not (tmp_path / "risklab-out").exists()
    capsys.readouterr()


def test_argparse_surface(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["fit-pml"])  # missing required --points
    assert e.value.code == 2
    capsys.readouterr()
