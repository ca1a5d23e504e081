"""The README stays true: its Python examples run, and the public surface it
describes is what `risklab` exports."""

import contextlib
import dataclasses
import hashlib
import io
import re
from pathlib import Path

import pytest

import risklab
from risklab import (analysis, capm, cli, market_data, pml, predictor,
                     uncertainty)

README = Path(__file__).resolve().parents[1] / "README.md"

# names removed from the public surface; none may come back unnoticed
REMOVED = {
    risklab: ("BboTick", "mid", "predict", "surprise", "predict_variant",
              "resample", "sr_theta_line", "rolling_to_dict",
              "average_correlation_curves", "MODE_WINDOW", "write_points_csv",
              "load_universe", "mc_disentangle", "cluster_tightness"),
    market_data: ("BboTick", "mid", "resample"),
    predictor: ("predict", "surprise", "predict_variant", "MaskStream",
                "draw_masks", "variant_masks"),
    pml: ("sr_theta_line", "rolling_to_dict", "pml_fit_to_dict",
          "write_points_csv"),
    capm: ("load_universe", "universe_from_dict"),
    uncertainty: ("MODE_WINDOW", "mc_disentangle"),
    analysis: ("cluster_tightness", "PreparedSweep", "prepare_sweep",
               "finish_sweep"),
    risklab.TickSeries: ("tick", "ticks", "is_regular", "resolution_ns",
                         "symbol"),
    risklab.VariantSet: ("remask_per_tick",),
    risklab.AssetUniverse: ("labels",),
    risklab.McEstimate: ("mode",),
    risklab.CorrelationCurve: ("max_lag",),
}


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.M | re.S)


def test_readme_python_blocks_run_in_order(capsys):
    blocks = _python_blocks()
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert namespace["fit"].n_points == 10
    assert namespace["est"].K == 8
    assert namespace["returns"].shape == (8, namespace["est"].n_periods)
    capsys.readouterr()


# sha256 of the README config's `run` artifacts that kept their bytes when
# numpy ran without its AVX-512 kernels and when OpenBLAS took another
# core's kernels (ROADMAP item 13); `mc.json` and `pml.json` did not, and
# `manifest.json` names the versions. A change that alters one of these
# on purpose updates it here and says why in CHANGES.md.
README_RUN_SHA256 = {
    "points.csv":
        "104a42660dd51ca025110c51a9263762ea30ba45cb76abe6838a16e66aa81f01",
    "correlation.csv":
        "9fc2703ff601cca28507cb80f9e4771611d24aba80447b8bdea0cf615ff974e5",
    "rolling.csv":
        "63cb4f717309004c921bdaae309c35229940ec8a25e3b748d3b7327491a43b70",
}


def _readme_config():
    [config] = re.findall(r"^```ini\n(.*?)^```",
                          README.read_text(encoding="utf-8"),
                          flags=re.M | re.S)
    return config


def test_readme_config_run_writes_the_pinned_bytes(tmp_path):
    path = tmp_path / "experiment.ini"
    path.write_text(_readme_config(), encoding="utf-8")
    out = tmp_path / "results"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in README_RUN_SHA256}
    assert got == README_RUN_SHA256


# sha256 of the tick-CSV path's artifacts: a `gen-data` spec whose AR(1)
# recursion spans two of `gen_synthetic`'s chunks, and `correlate` on its
# CSV with the leaked predictor and with a small trained net. Rules as for
# README_RUN_SHA256.
TAPE_SPEC = """\
[synthetic]
n_ticks = 20000
sigma_noise = 0.0003
phi = 0.9
sigma_signal = 0.0002
decay_to = 0.0
spread_bps = 1.0
seed = 5
"""
TAPE_TRAIN = {
    "leaked": "[train]\nkind = leaked\nhorizon = 2\n",
    "net": "[train]\nkind = net\nwindow = 6\nhidden = 4\nepochs = 20\n"
           "seed = 2\n",
}
TAPE_SHA256 = {
    "ticks.csv":
        "e2cc54f933947f30219597d8e687b858b19ffb6dce1d132d0446abf6084b1575",
    "corr-leaked.csv":
        "0a067df02557a82cf3779a6d88d678d9ca6bc4bef4bde175d62ba95ed3b46189",
    "corr-net.csv":
        "f320da8656e62f39a1ff381b692f5456b524c7ca77df26d88a4a19a178903388",
}


def test_tape_commands_write_the_pinned_bytes(tmp_path):
    (tmp_path / "spec.ini").write_text(TAPE_SPEC, encoding="utf-8")
    data = str(tmp_path / "ticks.csv")
    calls = [["gen-data", "--spec", str(tmp_path / "spec.ini"),
              "--out", data]]
    for kind, config in TAPE_TRAIN.items():
        (tmp_path / f"{kind}.ini").write_text(config, encoding="utf-8")
        model = str(tmp_path / f"{kind}.json")
        calls += [["train", "--data", data, "--config",
                   str(tmp_path / f"{kind}.ini"), "--out", model],
                  ["correlate", "--data", data, "--predictor", model,
                   "--out", str(tmp_path / f"corr-{kind}.csv")]]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in calls:
            assert cli.main(argv) == 0, argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in TAPE_SHA256}
    assert got == TAPE_SHA256


# sha256 of `backtest`'s stdout on a 3,000-tick `gen-data` CSV for each
# baseline predictor (persistence never trades), and of `fit-pml
# --risk-axis mc`'s stdout on the README run's points.csv. Rules as for
# README_RUN_SHA256. `fit-pml` on the priced axis is not pinned: with
# either intercept mode its `sr_theta` changes when OpenBLAS takes
# another core's kernels.
BACKTEST_SPEC = """\
[synthetic]
n_ticks = 3000
sigma_noise = 0.0003
phi = 0.9
sigma_signal = 0.0002
spread_bps = 1.0
seed = 11
"""
BACKTEST_TRAIN = {
    "persistence": "[train]\nkind = persistence\n",
    "leaked": "[train]\nkind = leaked\nhorizon = 2\n",
    "noise": "[train]\nkind = noise\nscale = 0.0003\nseed = 3\n",
}
STDOUT_SHA256 = {
    "backtest persistence":
        "211184a09e5ee85bf0aa52d2db1e8041892dcae2944af278ecb5cecfe326316d",
    "backtest leaked":
        "47d500a27d88d545006f21e7a25baf9849672896fd2a45eefc7b222df07413a8",
    "backtest noise":
        "276e3e3429852429178d0e40c9196f261fb5d6bba38e41bde05366ece73a196c",
    "fit-pml mc":
        "7ebcc26b47676ad16b223cf8c1158ae689b537f1dff9a4dd931e6560ab4036cc",
}


def _stdout_sha256(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0, argv
    return hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()


def test_backtest_and_fit_pml_print_the_pinned_bytes(tmp_path):
    (tmp_path / "spec.ini").write_text(BACKTEST_SPEC, encoding="utf-8")
    (tmp_path / "experiment.ini").write_text(_readme_config(),
                                             encoding="utf-8")
    data = str(tmp_path / "ticks.csv")
    results = tmp_path / "results"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-data", "--spec", str(tmp_path / "spec.ini"),
                         "--out", data]) == 0
        assert cli.main(["run", "--config", str(tmp_path / "experiment.ini"),
                         "--out-dir", str(results)]) == 0
    got = {}
    for kind, config in BACKTEST_TRAIN.items():
        (tmp_path / f"{kind}.ini").write_text(config, encoding="utf-8")
        model = str(tmp_path / f"{kind}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["train", "--data", data, "--config",
                             str(tmp_path / f"{kind}.ini"), "--out",
                             model]) == 0
        got[f"backtest {kind}"] = _stdout_sha256(
            ["backtest", "--data", data, "--predictor", model,
             "--threshold-bps", "2", "--period-ticks", "128"])
    got["fit-pml mc"] = _stdout_sha256(
        ["fit-pml", "--points", str(results / "points.csv"),
         "--risk-axis", "mc"])
    assert got == STDOUT_SHA256


# sha256 of `backtest`'s stdout (leaked predictor) and `correlate`'s stdout
# on `write_csv` tapes outside `load_csv`'s bulk grammar, so the per-row
# scan reads them: a 3,000-tick series moved before the epoch, and the same
# series priced 1e4 times higher, whose price digits read as one integer
# pass 2**53. Rules as for README_RUN_SHA256. `correlate` reads the series
# priced as `gen_synthetic` gave it. That tape's bytes change with numpy's
# AVX-512 kernels off: `gen_synthetic`'s `np.exp` then gives other last
# bits, which the 10 decimals keep at mids near 1e6 (near 100 they round
# away), and `backtest`'s stdout on it changes with them. So `backtest`
# reads the plain tape as `write_csv` wrote it and `load_csv` read it back,
# priced 1e4 times higher and written again.
SCAN_TAPE_SPEC = market_data.SyntheticSpec(
    n_ticks=3000, sigma_noise=0.0003, phi=0.9, sigma_signal=0.0002,
    spread_bps=1.0, seed=11)
SCAN_TAPE_SHA256 = {
    "backtest before-epoch":
        "47d500a27d88d545006f21e7a25baf9849672896fd2a45eefc7b222df07413a8",
    "correlate before-epoch":
        "25a6a01ce535659e481487242ff331dbe8fb6e6c235a9548165fdaf52f49b432",
    "backtest priced-1e4":
        "8d3775e53feb2df7c3f595be2bbd597a6232df509ad1fc1ae778caf238fb6016",
    "correlate priced-1e4":
        "652d66b66789cad090d45303941c2abde50701f5c1d86cc136d15b14d7941415",
}


def test_tapes_the_scan_reads_print_the_pinned_bytes(tmp_path):
    s = market_data.gen_synthetic(SCAN_TAPE_SPEC)
    market_data.write_csv(s, tmp_path / "plain.csv")
    read = market_data.load_csv(tmp_path / "plain.csv")
    before_epoch = market_data.TickSeries(s.ts - 10**15, s.bid, s.ask)
    tapes = {"backtest before-epoch": before_epoch,
             "correlate before-epoch": before_epoch,
             "backtest priced-1e4": market_data.TickSeries(
                 read.ts, read.bid * 1e4, read.ask * 1e4),
             "correlate priced-1e4": market_data.TickSeries(
                 s.ts, s.bid * 1e4, s.ask * 1e4)}
    flags = {"backtest": ["--threshold-bps", "2", "--period-ticks", "128"],
             "correlate": []}
    config = tmp_path / "leaked.ini"
    config.write_text(BACKTEST_TRAIN["leaked"], encoding="utf-8")
    got = {}
    for key, series in tapes.items():
        command = key.split()[0]
        data = tmp_path / f"{key.replace(' ', '-')}.csv"
        market_data.write_csv(series, data)
        with open(data, "rb") as fh:
            assert market_data._parse_bytes(fh) is None, key
        model = str(tmp_path / f"{key.replace(' ', '-')}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["train", "--data", str(data), "--config",
                             str(config), "--out", model]) == 0
        got[key] = _stdout_sha256([command, "--data", str(data),
                                   "--predictor", model, *flags[command]])
    assert got == SCAN_TAPE_SHA256


# sha256 of `sweep`'s points.csv for a net that `train` fitted, both on the
# ticks that `gen-data` writes from the README config's [data] section and
# [experiment] seed, as the README's stage-by-stage commands run them.
# Rules as for README_RUN_SHA256. The predictor JSON is not pinned: its
# weights change when OpenBLAS takes another core's kernels. Nor is
# `fit-pml`'s printed fit, whose `x @ x` rests on the BLAS kernel too.
README_SWEEP_SHA256 = {
    "points.csv":
        "8ec7e6e55675936cda2940ea13ad041da46c2027cc24c2eddc20838db8195458",
}


def test_readme_config_train_then_sweep_writes_the_pinned_bytes(tmp_path):
    config = _readme_config()
    data_keys = re.search(r"^\[data\]\nkind = synthetic\n(.*?)\n\n", config,
                          flags=re.M | re.S).group(1)
    seed = re.search(r"^seed = (\d+)$", config, flags=re.M).group(1)
    (tmp_path / "spec.ini").write_text(
        f"[synthetic]\n{data_keys}\nseed = {seed}\n", encoding="utf-8")
    (tmp_path / "experiment.ini").write_text(config, encoding="utf-8")
    data, model = str(tmp_path / "ticks.csv"), str(tmp_path / "model.json")
    out = tmp_path / "results"
    experiment = str(tmp_path / "experiment.ini")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["gen-data", "--spec", str(tmp_path / "spec.ini"),
                      "--out", data],
                     ["train", "--data", data, "--config", experiment,
                      "--out", model],
                     ["sweep", "--data", data, "--predictor", model,
                      "--config", experiment, "--out-dir", str(out)]):
            assert cli.main(argv) == 0, argv
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in README_SWEEP_SHA256}
    assert got == README_SWEEP_SHA256


# sha256 of `decay`'s stdout and rolling.csv on a signal that fades to
# nothing, so the later windows record NaN, and of the points.csv of a
# K = 1 `run` with the noise predictor. Rules as for README_RUN_SHA256.
DECAY_CONFIG = """\
[experiment]
seed = 41

[data]
kind = synthetic
n_ticks = 6000
sigma_noise = 0.0003
phi = 0.9
sigma_signal = 0.0002
spread_bps = 1.0
decay_to = 0.0

[train]
kind = net
window = 6
hidden = 8
dropout_p = 0.2
epochs = 40
learning_rate = 0.05

[sweep]
n_configs = 4
threshold_lo = 2
threshold_hi = 4
stop_loss_lo = 30
stop_loss_hi = 40
take_profit_lo = 30
take_profit_hi = 40
fee_bps = 0.2
k = 4
period_ticks = 64

[rolling]
window = 1200
step = 600
"""
NOISE_RUN_CONFIG = """\
[experiment]
seed = 7

[data]
kind = synthetic
n_ticks = 6000
sigma_noise = 0.0003
phi = 0.9
sigma_signal = 0.0002
spread_bps = 1.0

[train]
kind = noise
scale = 0.0003

[sweep]
n_configs = 6
threshold_lo = 4.5
threshold_hi = 5.5
stop_loss_lo = 40
stop_loss_hi = 60
take_profit_lo = 40
take_profit_hi = 60
fee_bps = 0.5
k = 1
period_ticks = 256
"""
DECAY_AND_NOISE_SHA256 = {
    "decay stdout":
        "34e62ca2b335d1b2803b125b2617ab8277a1d9f2f0d1cc21e2d482e2d9629ad4",
    "decay/rolling.csv":
        "02b22f2385855a65319dc8eebaf914ffa29d01d7a2d5b91f3a01c139f6a96033",
    "noise/points.csv":
        "79a5bb45ce84348407f3bf41bb945793225063783e9ae10fa960872c7da8fc03",
}


def test_decay_and_noise_run_write_the_pinned_bytes(tmp_path, monkeypatch):
    # relative paths, so that decay's stdout names the same out_dir
    monkeypatch.chdir(tmp_path)
    Path("decay.ini").write_text(DECAY_CONFIG, encoding="utf-8")
    Path("noise.ini").write_text(NOISE_RUN_CONFIG, encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["decay", "--config", "decay.ini",
                         "--out-dir", "decay"]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", "noise.ini",
                         "--out-dir", "noise"]) == 0
    assert "3600,,," in Path("decay/rolling.csv").read_text(encoding="utf-8")
    got = {"decay stdout":
           hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}
    got.update((name, hashlib.sha256(Path(name).read_bytes()).hexdigest())
               for name in ("decay/rolling.csv", "noise/points.csv"))
    assert got == DECAY_AND_NOISE_SHA256


def test_readme_names_no_removed_api():
    text = README.read_text(encoding="utf-8")
    for name in ("BboTick", "predict_variant", "resample", "sr_theta_line",
                 "rolling_to_dict", "average_correlation_curves",
                 "MODE_WINDOW", "remask_per_tick", "resolution_ns",
                 "is_regular", "pml_fit_to_dict", "symbol", "write_points_csv",
                 "load_universe", "universe_from_dict"):
        assert not re.search(rf"\b{name}\b", text), name


def test_public_names_resolve():
    for name in risklab.__all__:
        assert hasattr(risklab, name), name
    assert len(set(risklab.__all__)) == len(risklab.__all__)


@pytest.mark.parametrize("owner", list(REMOVED), ids=lambda o: o.__name__)
def test_removed_names_are_gone(owner):
    for name in REMOVED[owner]:
        assert not hasattr(owner, name), name
        if dataclasses.is_dataclass(owner):  # fields without a default
            assert name not in {f.name for f in dataclasses.fields(owner)}, name
        assert name not in getattr(owner, "__all__", ()), name
        if owner is risklab:
            with pytest.raises(ImportError):
                exec(f"from risklab import {name}", {})
