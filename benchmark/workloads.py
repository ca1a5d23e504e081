"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, and
the correctness check each pass gets outside its timed region.

A workload is made of parts, each a short sequence of `risklab` calls with its
own inputs and check:

  sweep   `run` on a trained dropout net with a K=16 variant sweep
  decay   `decay`: rolling refits over 19 short windows
  tape    `gen-data` writes a tick CSV that `backtest` and `correlate` read
  edge    two K=1 `run` calls, with the noise and the leaked predictor

`inputs(name, seed, smoke)` returns every part's parameters; everything the
program sees (INI files and predictor documents) is rendered from them by
`input_files`, so the same seed always gives byte-identical inputs. `check`
runs inside the worker after the timed pass and maps a command name to the
reason it failed.

This module imports only the standard library at import time; `check` imports
risklab's public API and the test-suite oracle `tests/backtest_oracle.py`.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

# Two workloads of two parts each. On the 2-vCPU virtual machine the sizes
# were tuned on, speed drifts by tens of percent over tens of seconds, so a
# run must be long to give a steady median; pairing the parts keeps the number
# of runs, and so the benchmark's total time, within budget while every layer
# stays measured.
WORKLOADS = {"sweep_decay": ("sweep", "decay"), "tape_edge": ("tape", "edge")}

WHY = {
    "sweep_decay": "the paper's main path (run: training, K=16 variant sweep, "
                   "engine-bound) plus the rolling refit (decay: "
                   "training-bound, 760 short engine calls); no CSV",
    "tape_edge": "tick CSV written and read back twice (persistence never "
                 "trades), plus K=1 runs with the per-tick noise surprise "
                 "and the longest trade-heavy scans; no training",
}


class Command(NamedTuple):
    """One risklab CLI call. Paths are relative to the pass directory."""

    name: str
    argv: Tuple[str, ...]
    artifacts: Tuple[str, ...]


def _experiment_seed(seed: int) -> int:
    # the CLI rejects negative seeds; keep every --seed value usable
    return abs(int(seed)) % (2 ** 31)


def _part_inputs(part: str, s: int, smoke: bool) -> dict:
    if part == "sweep":
        return {
            "seed": s,
            "data": {"n_ticks": 3000 if smoke else 20000, "sigma_noise": 3e-4,
                     "phi": 0.9, "sigma_signal": 2e-4, "spread_bps": 1.0},
            # 16000 training rows: large enough for OpenBLAS to use threads
            "train": {"kind": "net", "window": 6, "hidden": 16,
                      "dropout_p": 0.2, "epochs": 20 if smoke else 60,
                      "learning_rate": 0.05, "l2": 1e-4, "split": 0.8},
            # entry thresholds near zero make the trade count depend on
            # holding times rather than on the tail of each seed's signal
            "sweep": {"n_configs": 4 if smoke else 8,
                      "threshold_lo": 0.0, "threshold_hi": 1.0,
                      "stop_loss_lo": 30.0, "stop_loss_hi": 40.0,
                      "take_profit_lo": 30.0, "take_profit_hi": 40.0,
                      "fee_bps": 0.2, "k": 4 if smoke else 16,
                      "period_ticks": 64},
        }
    if part == "decay":
        return {
            "seed": s,
            "data": {"n_ticks": 4000 if smoke else 40000, "sigma_noise": 3e-4,
                     "phi": 0.9, "sigma_signal": 2e-4, "spread_bps": 1.0,
                     "decay_to": 0.0},
            "train": {"kind": "net", "window": 6, "hidden": 8,
                      "dropout_p": 0.2, "epochs": 20 if smoke else 150,
                      "learning_rate": 0.05, "l2": 1e-4, "split": 0.5},
            "sweep": {"n_configs": 4 if smoke else 8,
                      "threshold_lo": 2.0, "threshold_hi": 4.0,
                      "stop_loss_lo": 30.0, "stop_loss_hi": 40.0,
                      "take_profit_lo": 30.0, "take_profit_hi": 40.0,
                      "fee_bps": 0.2, "k": 4, "period_ticks": 64},
            "rolling": {"window": 2000 if smoke else 4000,
                        "step": 1000 if smoke else 2000},
        }
    if part == "tape":
        return {
            "seed": s,
            "synthetic": {"n_ticks": 20000 if smoke else 250000,
                          "sigma_noise": 5e-4, "spread_bps": 1.0},
            "backtest": {"threshold_bps": 10.0, "stop_loss_bps": 50.0,
                         "take_profit_bps": 50.0, "fee_bps": 1.0,
                         "period_ticks": 1000},
            "max_lag": 5,
        }
    if part == "edge":
        return {
            "seed": s,
            "data": {"n_ticks": 6000 if smoke else 60000, "sigma_noise": 3e-4,
                     "phi": 0.9, "sigma_signal": 2e-4, "spread_bps": 1.0},
            "noise_scale": 3e-4, "split": 0.5,
            "sweep": {"n_configs": 6, "threshold_lo": 4.5,
                      "threshold_hi": 5.5, "stop_loss_lo": 40.0,
                      "stop_loss_hi": 60.0, "take_profit_lo": 40.0,
                      "take_profit_hi": 60.0, "fee_bps": 0.5, "k": 1,
                      "period_ticks": 1000},
        }
    raise KeyError(part)


def inputs(name: str, seed: int, smoke: bool = False) -> dict:
    """Part -> parameters for workload `name`; `smoke` shrinks every size."""
    s = _experiment_seed(seed)
    return {part: _part_inputs(part, s, smoke) for part in WORKLOADS[name]}


# ------------------------------------------------------------ rendering


def _ini(sections: Dict[str, dict]) -> str:
    lines: List[str] = []
    for section, pairs in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value!r}" if isinstance(value, float)
                     else f"{key} = {value}" for key, value in pairs.items())
        lines.append("")
    return "\n".join(lines)


def _experiment_ini(p: dict, train: dict, extra: Dict[str, dict] = ()) -> str:
    return _ini({"experiment": {"seed": p["seed"]},
                 "data": {"kind": "synthetic", **p["data"]},
                 "train": train,
                 "sweep": p["sweep"],
                 **dict(extra)})


def _fixed_predictor(kind: str) -> str:
    """A parameter-free predictor document in risklab's JSON format."""
    return json.dumps({"kind": kind, "scale": 1.0, "horizon": 1,
                       "noise_scale": 0.0, "noise_seed": 0,
                       "final_loss": 0.0, "train_spec": None, "weights": [],
                       "weight_shapes": [], "biases": []}, indent=2) + "\n"


def _part_files(part: str, p: dict) -> Dict[str, str]:
    if part == "sweep":
        return {"sweep.ini": _experiment_ini(p, p["train"])}
    if part == "decay":
        return {"decay.ini": _experiment_ini(p, p["train"],
                                             {"rolling": p["rolling"]})}
    if part == "tape":
        return {"synth.ini": _ini({"synthetic": {"seed": p["seed"],
                                                 **p["synthetic"]}}),
                "persistence.json": _fixed_predictor("persistence"),
                "leaked.json": _fixed_predictor("leaked")}
    if part == "edge":
        return {"noise.ini": _experiment_ini(
                    p, {"kind": "noise", "scale": p["noise_scale"],
                        "split": p["split"]}),
                "leaked.ini": _experiment_ini(
                    p, {"kind": "leaked", "horizon": 1,
                        "split": p["split"]})}
    raise KeyError(part)


def input_files(name: str, params: dict) -> Dict[str, str]:
    """File name -> text of every input the workload's commands read."""
    files: Dict[str, str] = {}
    for part in WORKLOADS[name]:
        files.update(_part_files(part, params[part]))
    return files


def config_files(name: str, params: dict) -> List[str]:
    return [f for f in input_files(name, params) if f.endswith(".ini")]


_RUN_ARTIFACTS = ("points.csv", "mc.json", "pml.json", "correlation.csv",
                  "manifest.json")


def _run(name: str, config: str, out_dir: str) -> Command:
    return Command(name, ("run", "--config", config, "--out-dir", out_dir,
                          "--jobs", "1"),
                   tuple(f"{out_dir}/{a}" for a in _RUN_ARTIFACTS))


def _part_commands(part: str, p: dict) -> List[Command]:
    if part == "sweep":
        return [_run("run-net", "sweep.ini", "out-net")]
    if part == "decay":
        return [Command("decay", ("decay", "--config", "decay.ini",
                                  "--out-dir", "out-decay", "--jobs", "1"),
                        ("out-decay/rolling.csv",))]
    if part == "tape":
        bt = p["backtest"]
        return [
            Command("gen-data", ("gen-data", "--spec", "synth.ini", "--out",
                                 "ticks.csv"), ("ticks.csv",)),
            Command("backtest", ("backtest", "--data", "ticks.csv",
                                 "--predictor", "persistence.json",
                                 "--threshold-bps", str(bt["threshold_bps"]),
                                 "--stop-loss-bps", str(bt["stop_loss_bps"]),
                                 "--take-profit-bps",
                                 str(bt["take_profit_bps"]),
                                 "--fee-bps", str(bt["fee_bps"]),
                                 "--period-ticks", str(bt["period_ticks"])),
                    ()),
            Command("correlate", ("correlate", "--data", "ticks.csv",
                                  "--predictor", "leaked.json", "--max-lag",
                                  str(p["max_lag"]), "--out", "corr.csv"),
                    ("corr.csv",)),
        ]
    if part == "edge":
        return [_run(f"run-{kind}", f"{kind}.ini", f"out-{kind}")
                for kind in ("noise", "leaked")]
    raise KeyError(part)


def commands(name: str, params: dict) -> List[Command]:
    """The CLI calls of one pass, in order."""
    return [cmd for part in WORKLOADS[name]
            for cmd in _part_commands(part, params[part])]


def stdout_artifact(cmd: Command) -> str:
    """Where the worker stores what a command printed."""
    return f"{cmd.name}.stdout"


# --------------------------------------------------------------- checks


def _load_oracle(root: Path):
    path = root / "tests" / "backtest_oracle.py"
    spec = importlib.util.spec_from_file_location("backtest_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.walk_backtest


def _sweep_spec(p: dict):
    from risklab import SweepSpec
    sw = p["sweep"]
    return SweepSpec(n_configs=sw["n_configs"],
                     threshold_range=(sw["threshold_lo"], sw["threshold_hi"]),
                     stop_loss_range=(sw["stop_loss_lo"], sw["stop_loss_hi"]),
                     take_profit_range=(sw["take_profit_lo"],
                                        sw["take_profit_hi"]),
                     fee_bps=sw["fee_bps"], seed=p["seed"], K=sw["k"],
                     period_ticks=sw["period_ticks"])


def _series(p: dict):
    from risklab import SyntheticSpec, gen_synthetic
    return gen_synthetic(SyntheticSpec(seed=p["seed"], **p["data"]))


def _first_config_matches_oracle(root: Path, p: dict, series, split: float,
                                 predictor, out_dir: Path) -> str:
    """Empty string when the engine's first sweep config agrees with the
    per-tick oracle (fills and trade returns, exactly) and with what the
    CLI wrote for cfg000; otherwise the reason it does not."""
    from risklab import run_backtest_signals, surprise_series, sweep_configs
    cut = int(len(series) * split)
    evaluation = series.window(cut, len(series))
    signal = surprise_series(predictor, evaluation)
    cfg = sweep_configs(_sweep_spec(p))[0]
    result = run_backtest_signals(evaluation, signal, cfg)
    if result.n_trades == 0:
        return "first config never traded, so the oracle check is vacuous"
    walk = _load_oracle(root)
    want_returns, want_fills, want_periods = walk(
        evaluation.bid.tolist(), evaluation.ask.tolist(), signal.tolist(),
        cfg.threshold_bps, cfg.stop_loss_bps, cfg.take_profit_bps,
        cfg.fee_bps, cfg.allow_short, cfg.period_ticks)
    ts = evaluation.ts
    want = [(int(ts[i]), side, price, reason)
            for i, side, price, reason in want_fills]
    got = [(f.ts, f.side, f.price, f.reason) for f in result.fills]
    if got != want:
        return "engine fills differ from the oracle walk"
    if result.trade_returns.tolist() != want_returns:
        return "engine trade returns differ from the oracle walk"
    if result.period_returns.tolist() != want_periods:
        return "engine period returns differ from the oracle walk"
    mc = json.loads((out_dir / "mc.json").read_text(encoding="utf-8"))
    if mc[0]["n_trades"] != result.n_trades:
        return "mc.json cfg000 n_trades differs from the engine"
    rows = (out_dir / "points.csv").read_text(encoding="utf-8").splitlines()
    if rows[1].split(",")[:2] != ["cfg000", f"{result.mean:.12g}"]:
        return "points.csv cfg000 mean_return differs from the engine"
    return ""


def _json_stdout(pass_dir: Path, cmd_name: str) -> dict:
    return json.loads((pass_dir / f"{cmd_name}.stdout").read_text(
        encoding="utf-8"))


def _check_part(part: str, p: dict, root: Path,
                pass_dir: Path) -> Dict[str, str]:
    failures: Dict[str, str] = {}
    if part == "sweep":
        from risklab import TrainSpec, train
        series = _series(p)
        t = p["train"]
        net = train(series.window(0, int(len(series) * t["split"])),
                    TrainSpec(window=t["window"], hidden=(t["hidden"],),
                              dropout_p=t["dropout_p"], epochs=t["epochs"],
                              learning_rate=t["learning_rate"], l2=t["l2"],
                              seed=p["seed"]))
        why = _first_config_matches_oracle(root, p, series, t["split"], net,
                                           pass_dir / "out-net")
        if why:
            failures["run-net"] = why
    elif part == "edge":
        from risklab import make_leaked
        why = _first_config_matches_oracle(root, p, _series(p), p["split"],
                                           make_leaked(1),
                                           pass_dir / "out-leaked")
        if why:
            failures["run-leaked"] = why
    elif part == "decay":
        d, r = p["data"], p["rolling"]
        want = (d["n_ticks"] - r["window"]) // r["step"] + 1
        got = _json_stdout(pass_dir, "decay")["n_windows"]
        rows = (pass_dir / "out-decay" / "rolling.csv").read_text(
            encoding="utf-8").splitlines()
        if got != want or len(rows) != want + 1:
            failures["decay"] = (f"expected {want} windows, got {got} "
                                 f"and {len(rows) - 1} rolling.csv rows")
    elif part == "tape":
        n = p["synthetic"]["n_ticks"]
        with open(pass_dir / "ticks.csv", "rb") as fh:
            header = fh.readline()
            rows = 1 + sum(block.count(b"\n")
                           for block in iter(lambda: fh.read(1 << 20), b""))
        if header != b"ts_ns,bid,ask\n" or rows != n + 1:
            failures["gen-data"] = f"ticks.csv has {rows} lines, want {n + 1}"
        summary = _json_stdout(pass_dir, "backtest")
        periods = -(-n // p["backtest"]["period_ticks"])
        if summary["n_trades"] != 0 or summary["n_periods"] != periods:
            failures["backtest"] = ("persistence must never trade over "
                                    f"{periods} periods, got {summary}")
        corr = dict(line.split(",")[:2] for line in (
            pass_dir / "corr.csv").read_text(encoding="utf-8").splitlines()[1:])
        if not math.isclose(float(corr.get("1") or "nan"), 1.0,
                            abs_tol=1e-9):
            failures["correlate"] = ("leaked surprise must correlate 1 with "
                                     "the next return, got "
                                     f"{corr.get('1')!r}")
    return failures


def check(name: str, params: dict, root: Path,
          pass_dir: Path) -> Dict[str, str]:
    """Command name -> failure reason for every check that did not hold."""
    failures: Dict[str, str] = {}
    for part in WORKLOADS[name]:
        failures.update(_check_part(part, params[part], root, pass_dir))
    return failures
