"""One timed pass of a workload, in a fresh interpreter.

Usage (from `run.py`, never by hand): `python3 worker.py PASS_JSON`, with the
pass directory as the working directory. PASS_JSON holds the checkout root,
the workload name and parameters, and whether to trace.

The worker imports risklab from the checkout's `src`, parses the workload's
configs (the end of set-up), runs the workload's CLI calls in-process and
times them, then runs the correctness check outside the timed region. Its
last line of standard output is one JSON object for the benchmark.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _probe() -> float:
    """Seconds for a fixed mix of numpy and interpreter work.

    risklab cannot change this work, so its time tracks only how fast the
    machine runs right now; the benchmark rescales pass times by it.
    """
    import numpy as np
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(100_000)
    head = x[:15_000].tolist()
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(12):
        acc += float(np.cumsum(np.exp(np.sort(x) * 1e-3))[-1])
        text = ",".join(f"{v:.10f}" for v in head)
        acc += sum(float(v) for v in text.split(","))
        acc += sum(math.sqrt(abs(v)) for v in head)
    return time.perf_counter() - t0


def _blas() -> dict:
    """BLAS library numpy was built with, and its current thread count."""
    import ctypes

    import numpy as np
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh}
    for lib in sorted(p for p in paths
                      if "blas" in Path(p).name.lower() and ".so" in p):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _run_command(cli, argv) -> tuple:
    """Exit code and captured standard output of one `risklab` call."""
    out = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    except SystemExit as e:  # argparse rejects arguments this way
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # a crash is a failed operation, not a benchmark abort
        code, error = None, traceback.format_exc(limit=5)
    return code, out.getvalue(), error


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root = Path(job["root"])
    name, params, traced = job["workload"], job["params"], job["trace"]
    sys.path.insert(0, str(root / "src"))

    import risklab.cli as cli
    package = (root / "src" / "risklab").resolve()
    if Path(cli.__file__).resolve().parent != package:
        print(f"risklab imported from {cli.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    # parse each config as the CLI does; a later refactor may move the loader
    load_experiment = getattr(cli, "load_experiment", None)
    for config in workloads.config_files(name, params):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(config, encoding="utf-8")
        if parser.has_section("experiment") and load_experiment is not None:
            load_experiment(config)
    setup_end = time.monotonic()

    tracer = tracing.Tracer(job["run_id"]) if traced else None
    if tracer is not None:
        tracing.install(tracer)
    commands = workloads.commands(name, params)
    outcomes = []
    probe_before = _probe()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for cmd in commands:
        if tracer is None:
            outcomes.append(_run_command(cli, cmd.argv))
        else:
            outcomes.append(tracer.call("cli.main", _run_command,
                                        (cli, cmd.argv), {}))
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_s = (probe_before + _probe()) / 2.0
    # the check below calls traced functions too; keep only the pass's spans
    spans = list(tracer.spans) if tracer is not None else None

    results = []
    for cmd, (code, stdout, error) in zip(commands, outcomes):
        Path(workloads.stdout_artifact(cmd)).write_text(stdout,
                                                        encoding="utf-8")
        results.append({"name": cmd.name, "exit": code, "error": error})
    check_failures = {}
    if all(r["exit"] == 0 for r in results):
        try:
            check_failures = workloads.check(name, params, root, Path.cwd())
        except Exception:  # a check that cannot run fails every command
            reason = "check raised:\n" + traceback.format_exc(limit=5)
            check_failures = {cmd.name: reason for cmd in commands}

    import numpy as np
    import scipy
    doc = {"setup_end": setup_end, "wall_s": wall_s, "cpu_s": cpu_s,
           "peak_rss_mb": peak_rss_mb, "probe_s": probe_s,
           "commands": results,
           "check_failures": check_failures,
           "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
           "blas": _blas()}
    if spans is not None:
        doc["spans"] = spans
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
