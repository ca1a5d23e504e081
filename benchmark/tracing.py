"""Outside-in tracing of risklab's layers, installed from the benchmark.

`install` wraps the public functions of each risklab module and rebinds every
name under which a loaded risklab module refers to them (`risklab.cli`,
`.analysis`, `.pml`, `.backtest`, ...), so calls between layers open a span.
A span records its name, start, end, parent span and run id, plus counts
taken at the same boundary from the arguments and the result. Spans stay in
memory; the worker hands them to the benchmark when its pass ends, and
`layer_metrics` turns one pass's spans into the per-layer metrics.

A layer's self time is the time its spans cover minus the part their child
spans cover. Passes run with jobs = 1, so spans nest on one thread.

This module imports only the standard library.
"""

from __future__ import annotations

import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("market_data", "predictor", "backtest", "uncertainty", "analysis",
          "pml", "cli")
KINDS = {"dropout-net": "net", "noise": "noise", "leaked": "leaked",
         "persistence": "persistence"}


def _metric_units() -> Dict[str, str]:
    units = {
        "backtest.engine_s": "s", "backtest.engine_calls": "count",
        "backtest.engine_ticks": "count", "backtest.trades": "count",
        "backtest.us_per_trade": "us", "backtest.ns_per_tick": "ns",
        "predictor.variant_surprise_s": "s",
        "predictor.variant_passes": "count",
        "predictor.variant_rows": "count",
        "predictor.sample_variants_s": "s",
        "predictor.train_s": "s", "predictor.train_calls": "count",
        "predictor.train_epochs": "count",
    }
    for kind in KINDS.values():
        units[f"predictor.surprise_s.{kind}"] = "s"
        units[f"predictor.surprise_calls.{kind}"] = "count"
        units[f"predictor.surprise_ticks.{kind}"] = "count"
    units.update({
        "market_data.write_csv_s": "s", "market_data.load_csv_s": "s",
        "market_data.gen_synthetic_s": "s",
        "market_data.csv_bytes_written": "B",
        "market_data.csv_bytes_read": "B", "market_data.ticks_loaded": "count",
        "uncertainty.mc_s": "s", "uncertainty.estimates": "count",
        "analysis.sweep_self_s": "s", "analysis.configs": "count",
        "analysis.correlation_s": "s",
        "pml.fit_s": "s", "pml.points": "count", "pml.clamped": "count",
        "pml.rolling_self_s": "s", "pml.windows": "count",
        "pml.windows_nan": "count",
        "cli.artifact_bytes": "B", "cli.import_s": "s",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.accounted_frac": "frac", "trace.spans": "count"})
    return units


# name -> unit of every per-layer metric a traced run reports
PER_LAYER_UNITS = _metric_units()


class Tracer:
    """In-memory span recorder for one pass (one run id)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             count: Optional[Callable] = None):
        span = {"id": len(self.spans), "run": self.run_id, "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": 0.0, "end": 0.0, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            try:
                span["counts"] = count(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError) as e:
                # a changed signature loses the counts, never the call
                span["counts"] = {"error": repr(e)}
        return result


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _ticks(args, kwargs, result) -> dict:
    return {"ticks": len(result)}


def _csv_read(args, kwargs, result) -> dict:
    return {"ticks": len(result),
            "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _csv_written(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _epochs(args, kwargs, result) -> dict:
    return {"epochs": _arg(args, kwargs, 1, "spec").epochs}


def _surprise(args, kwargs, result) -> dict:
    predictor = _arg(args, kwargs, 0, "p")
    return {"kind": KINDS.get(predictor.kind, predictor.kind),
            "ticks": len(_arg(args, kwargs, 1, "series"))}


def _variant_rows(args, kwargs, result) -> dict:
    variants = _arg(args, kwargs, 0, "vs")
    n = len(_arg(args, kwargs, 2, "series"))
    return {"rows": max(n - variants.base.window, 0)}


def _engine(args, kwargs, result) -> dict:
    return {"ticks": len(_arg(args, kwargs, 0, "series")),
            "trades": result.n_trades}


def _configs(args, kwargs, result) -> dict:
    return {"configs": _arg(args, kwargs, 2, "spec").n_configs}


def _fit(args, kwargs, result) -> dict:
    return {"points": len(_arg(args, kwargs, 0, "points")),
            "clamped": result.n_clamped}


def _windows(args, kwargs, result) -> dict:
    return {"windows": len(result),
            "nan": sum(1 for v in result.sr_theta_series
                       if not math.isfinite(v))}


# (defining module, function, counts taken at its boundary)
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("risklab.market_data", "gen_synthetic", _ticks),
    ("risklab.market_data", "load_csv", _csv_read),
    ("risklab.market_data", "write_csv", _csv_written),
    ("risklab.predictor", "train", _epochs),
    ("risklab.predictor", "surprise_series", _surprise),
    ("risklab.predictor", "variant_surprise_series", _variant_rows),
    ("risklab.predictor", "sample_variants", None),
    ("risklab.backtest", "run_backtest", None),
    ("risklab.backtest", "run_backtest_signals", _engine),
    ("risklab.uncertainty", "mc_disentangle", None),
    ("risklab.uncertainty", "estimate_from_matrix", None),
    ("risklab.analysis", "sweep", _configs),
    ("risklab.analysis", "surprise_return_correlation", None),
    ("risklab.pml", "fit_pml", _fit),
    ("risklab.pml", "rolling_pml", _windows),
)


def _wrapper(tracer: Tracer, name: str, fn: Callable,
             count: Optional[Callable]) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it wherever risklab refers to it.

    A target missing from its module is skipped, so its layer reads zero
    rather than breaking a run.
    """
    wrappers: Dict[int, Callable] = {}
    for module_name, attr, count in TARGETS:
        fn = getattr(sys.modules.get(module_name), attr, None)
        if fn is not None:
            span = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            wrappers[id(fn)] = _wrapper(tracer, span, fn, count)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "risklab"
                                  or module_name.startswith("risklab.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def layer_metrics(spans: List[dict], wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass whose passes took wall_s."""
    out = {name: 0.0 if unit in ("s", "us", "ns", "frac") else 0
           for name, unit in PER_LAYER_UNITS.items()}
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    by_id = {span["id"]: span for span in spans}

    def add(key: str, value) -> None:
        out[key] += value

    for span in spans:
        name, counts = span["name"], span["counts"]
        layer = name.split(".", 1)[0]
        self_s = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        add(f"{layer}.self_s", self_s)
        if name == "backtest.run_backtest_signals":
            add("backtest.engine_s", self_s)
            add("backtest.engine_calls", 1)
            add("backtest.engine_ticks", counts.get("ticks", 0))
            add("backtest.trades", counts.get("trades", 0))
        elif name == "predictor.variant_surprise_series":
            add("predictor.variant_surprise_s", self_s)
            add("predictor.variant_passes", 1)
            add("predictor.variant_rows", counts.get("rows", 0))
        elif name == "predictor.sample_variants":
            add("predictor.sample_variants_s", self_s)
        elif name == "predictor.train":
            add("predictor.train_s", self_s)
            add("predictor.train_calls", 1)
            add("predictor.train_epochs", counts.get("epochs", 0))
        elif name == "predictor.surprise_series" and "kind" in counts:
            kind = counts["kind"]
            if f"predictor.surprise_s.{kind}" in out:
                add(f"predictor.surprise_s.{kind}", self_s)
                add(f"predictor.surprise_calls.{kind}", 1)
                add(f"predictor.surprise_ticks.{kind}", counts["ticks"])
        elif name == "market_data.write_csv":
            add("market_data.write_csv_s", self_s)
            add("market_data.csv_bytes_written", counts.get("bytes", 0))
        elif name == "market_data.load_csv":
            add("market_data.load_csv_s", self_s)
            add("market_data.csv_bytes_read", counts.get("bytes", 0))
            add("market_data.ticks_loaded", counts.get("ticks", 0))
        elif name == "market_data.gen_synthetic":
            add("market_data.gen_synthetic_s", self_s)
        elif layer == "uncertainty":
            add("uncertainty.mc_s", self_s)
            parent = by_id.get(span["parent"])
            if parent is None or not parent["name"].startswith("uncertainty."):
                add("uncertainty.estimates", 1)
        elif name == "analysis.sweep":
            add("analysis.sweep_self_s", self_s)
            add("analysis.configs", counts.get("configs", 0))
        elif name == "analysis.surprise_return_correlation":
            add("analysis.correlation_s", self_s)
        elif name == "pml.fit_pml":
            add("pml.fit_s", self_s)
            add("pml.points", counts.get("points", 0))
            add("pml.clamped", counts.get("clamped", 0))
        elif name == "pml.rolling_pml":
            add("pml.rolling_self_s", self_s)
            add("pml.windows", counts.get("windows", 0))
            add("pml.windows_nan", counts.get("nan", 0))
    engine_s, trades = out["backtest.engine_s"], out["backtest.trades"]
    ticks = out["backtest.engine_ticks"]
    out["backtest.us_per_trade"] = engine_s / trades * 1e6 if trades else 0.0
    out["backtest.ns_per_tick"] = engine_s / ticks * 1e9 if ticks else 0.0
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = len(spans)
    accounted = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.accounted_frac"] = accounted / wall_s if wall_s > 0 else 0.0
    return out


def import_seconds(stderr: str) -> Tuple[float, List[Tuple[str, float]]]:
    """Parse `python -X importtime` output.

    Returns the cumulative seconds of the top-level imports of risklab and
    risklab.cli, and the five modules with the largest own import time.
    """
    total_us = 0
    own: List[Tuple[str, float]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us = int(fields[0]), int(fields[1])
        module = fields[2]
        name = module.strip()
        own.append((name, self_us / 1e6))
        # top-level imports have exactly one space after the bar
        if module[:1] == " " and module[1:2] != " " \
                and name in ("risklab", "risklab.cli"):
            total_us += cumulative_us
    own.sort(key=lambda item: item[1], reverse=True)
    return total_us / 1e6, own[:5]
