"""risklab's benchmark: drives the `risklab` CLI on seeded workloads.

    python3 benchmark/run.py --workload sweep_decay --seed 1 --seconds 55 --trace 0
    python3 benchmark/run.py --smoke

Run from anywhere; the checkout is the directory above this file. Load is a
closed loop with one client: passes run one after another, each in a fresh
worker process (`worker.py`) so that its peak RSS is its own. A pass is one
round of the workload's CLI calls, made in-process after import. Passes
continue until `--seconds` would be exceeded (at least three are made).

With `--trace 0` the final line carries the end-to-end metrics: medians over
the untraced passes. With `--trace 1`, untraced and traced passes alternate
and the final line carries the per-layer metrics of the traced passes plus
the tracing overhead. `--smoke` runs every workload at tiny sizes, one
untraced and one traced pass each, and reports both kinds of metric.

Every pass is checked outside its timed region: each command exits 0, leaves
its artifacts, and passes the workload's check (`workloads.check`); every
pass must reproduce the first pass's artifacts byte for byte. Everything
before the final line is a JSON report with the samples, artifact hashes,
failures and a machine fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# The machine's speed drifts from run to run, so pass times are rescaled to a
# nominal speed: x_ref_s = x_s * PROBE_REF_S / probe_s, where probe_s times a
# fixed piece of work (worker.py's _probe) around the pass in the same worker.
PROBE_REF_S = 0.25
END_TO_END_UNITS = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
# measured as they are and reported beside the gated metrics
UNSCALED_UNITS = {"wall_s": "s", "cpu_s": "s", "probe_s": "s"}
MIN_PASSES = 3
# a traced run alternates untraced and traced passes, at least this many each
MIN_TRACED_PASSES = 2
# no pass starts that would end after LAST_END_S, and a worker still running
# at RUN_LIMIT_S is killed, so a run ends inside 180 s
LAST_END_S = 120.0
RUN_LIMIT_S = 165.0


def _loadavg() -> Optional[str]:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _tail(text: str, lines: int = 8) -> str:
    return "\n".join(text.strip().splitlines()[-lines:])


def run_pass(name: str, params: dict, pass_dir: Path, traced: bool,
             run_id: str, timeout: float) -> dict:
    """One worker process: its timings, failures and artifact hashes."""
    pass_dir.mkdir(parents=True)
    for file_name, text in workloads.input_files(name, params).items():
        (pass_dir / file_name).write_text(text, encoding="utf-8")
    job = pass_dir / "pass.json"
    job.write_text(json.dumps({"root": str(ROOT), "workload": name,
                               "params": params, "trace": traced,
                               "run_id": run_id}), encoding="utf-8")
    argv = [sys.executable, *(["-X", "importtime"] if traced else []),
            str(Path(__file__).with_name("worker.py")), str(job)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    commands = workloads.commands(name, params)
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=pass_dir, env=env, timeout=timeout,
                              capture_output=True, text=True)
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as e:
        stdout, stderr, code = "", f"worker timed out after {e.timeout} s", None
    ended = time.monotonic()
    try:
        doc = json.loads(stdout.strip().splitlines()[-1]) if code == 0 else None
    except (IndexError, ValueError):
        doc = None
    out = {"traced": traced, "duration_s": ended - started, "failures": {},
           "hashes": {}, "artifact_bytes": 0}
    if doc is None:
        reason = f"worker exited {code}: {_tail(stderr)}"
        out["failures"] = {cmd.name: reason for cmd in commands}
        return out
    scale = PROBE_REF_S / doc["probe_s"]
    out.update(setup_s=doc["setup_end"] - started, wall_s=doc["wall_s"],
               cpu_s=doc["cpu_s"], probe_s=doc["probe_s"],
               wall_ref_s=doc["wall_s"] * scale, cpu_ref_s=doc["cpu_s"] * scale,
               peak_rss_mb=doc["peak_rss_mb"], versions=doc["versions"],
               blas=doc["blas"])
    for cmd, result in zip(commands, doc["commands"]):
        expected = (*cmd.artifacts, workloads.stdout_artifact(cmd))
        missing = [a for a in expected if not (pass_dir / a).is_file()]
        if result["exit"] != 0:
            out["failures"][cmd.name] = (
                f"exit {result['exit']}: "
                f"{_tail(result['error'] or stderr)}")
        elif missing:
            out["failures"][cmd.name] = f"missing artifacts {missing}"
        elif cmd.name in doc["check_failures"]:
            out["failures"][cmd.name] = doc["check_failures"][cmd.name]
        for artifact in expected:
            if artifact not in missing:
                out["hashes"][artifact] = _sha256(pass_dir / artifact)
                out["artifact_bytes"] += (pass_dir / artifact).stat().st_size
    if traced:
        layers = tracing.layer_metrics(doc["spans"], doc["wall_s"])
        import_s, top_imports = tracing.import_seconds(stderr)
        layers["cli.import_s"] = import_s
        layers["cli.artifact_bytes"] = (out["artifact_bytes"]
                                        - layers["market_data.csv_bytes_written"])
        out["layers"], out["top_imports"] = layers, top_imports
    return out


def _summary(values: List[float], unit: str) -> dict:
    """Median plus the highest percentile with at least ten samples above it."""
    n = len(values)
    doc = {"unit": unit, "n": n, "median": statistics.median(values),
           "samples": values, "high_percentile": None}
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            doc["high_percentile"] = {"p": pct, "value": statistics.quantiles(
                values, n=100, method="inclusive")[pct - 1]}
            break
    return doc


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run one workload; returns the report, final metrics included."""
    params = workloads.inputs(name, seed, smoke)
    commands = workloads.commands(name, params)
    run_id = f"{name}-{seed}-{os.getpid()}-{int(time.time())}"
    run_dir = WORK / run_id
    load_start = _loadavg()
    min_passes = 1 if smoke else MIN_TRACED_PASSES if trace else MIN_PASSES
    passes: List[dict] = []
    started = time.monotonic()
    try:
        while True:
            n_untraced = sum(not p["traced"] for p in passes)
            # a traced run alternates untraced and traced passes
            traced = trace and len(passes) - n_untraced < n_untraced
            pass_dir = run_dir / f"pass{len(passes):02d}"
            passes.append(run_pass(name, params, pass_dir, traced, run_id,
                                   RUN_LIMIT_S - (time.monotonic() - started)))
            shutil.rmtree(pass_dir, ignore_errors=True)
            n_untraced = sum(not p["traced"] for p in passes)
            fewest = (min(n_untraced, len(passes) - n_untraced) if trace
                      else n_untraced)
            next_end = (time.monotonic() - started
                        + statistics.median(p["duration_s"] for p in passes))
            if next_end > LAST_END_S or (fewest >= min_passes
                                           and next_end > seconds):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    # every pass must reproduce the first pass's artifacts
    owner = {a: cmd.name for cmd in commands
             for a in (*cmd.artifacts, workloads.stdout_artifact(cmd))}
    first = passes[0]["hashes"]
    for i, p in enumerate(passes[1:], start=1):
        for artifact, digest in p["hashes"].items():
            if first.get(artifact, digest) != digest:
                p["failures"].setdefault(
                    owner[artifact],
                    f"{artifact} differs from the first pass's")
    attempted = len(passes) * len(commands)
    failures = [{"pass": i, "command": c, "reason": r}
                for i, p in enumerate(passes) for c, r in p["failures"].items()]
    ok = [p for p in passes if "wall_s" in p]
    untraced = [p for p in ok if not p["traced"]]
    end_to_end = {m: _summary([p[m] for p in untraced], unit)
                  for m, unit in {**END_TO_END_UNITS, **UNSCALED_UNITS}.items()
                  if untraced}
    sample = ok[0] if ok else {}
    report = {
        "workload": name, "why": workloads.WHY[name], "seed": seed,
        "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "params": params,
        "passes": {"untraced": sum(not p["traced"] for p in passes),
                   "traced": sum(p["traced"] for p in passes)},
        "pass_durations_s": [p["duration_s"] for p in passes],
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "end_to_end": end_to_end,
        "artifacts_sha256": first,
        "fingerprint": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "machine": platform.machine(),
            "python": platform.python_version(),
            **sample.get("versions", {}), "blas": sample.get("blas"),
            "git_commit": _git_commit(),
            "loadavg_start": load_start, "loadavg_end": _loadavg()},
    }
    traced_ok = [p for p in ok if p["traced"]]
    if traced_ok:
        layers = {m: statistics.median(p["layers"][m] for p in traced_ok)
                  for m in tracing.PER_LAYER_UNITS}
        if untraced:
            layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                          - end_to_end["wall_s"]["median"])
        report["per_layer"] = {m: {"value": v,
                                   "unit": tracing.PER_LAYER_UNITS[m]}
                               for m, v in layers.items()}
        report["top_imports"] = traced_ok[0]["top_imports"]
    return report


def result_line(report: dict, trace: bool) -> dict:
    """The final line: correctness, counts and one kind of metric."""
    if trace:
        metrics = report.get("per_layer", {})
    else:
        metrics = {m: {"value": report["end_to_end"][m]["median"],
                       "unit": unit}
                   for m, unit in END_TO_END_UNITS.items()
                   if m in report["end_to_end"]}
    return {"correct": report["failed"] == 0 and bool(metrics),
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def _checkout_complete() -> bool:
    return ((ROOT / "src" / "risklab" / "cli.py").is_file()
            and (ROOT / "tests" / "backtest_oracle.py").is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at tiny sizes, traced and not")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not _checkout_complete():
        print(f"error: {ROOT} lacks src/risklab or tests/backtest_oracle.py; "
              "run the benchmark from a risklab checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.smoke:
        reports = [measure(name, args.seed, 0.0, True, smoke=True)
                   for name in workloads.WORKLOADS]
        print(json.dumps(reports, indent=1))
        lines = {r["workload"]: {"end_to_end": result_line(r, False),
                                 "per_layer": result_line(r, True)}
                 for r in reports}
        print(json.dumps({
            "correct": all(v[k]["correct"] for v in lines.values()
                           for k in v),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "workloads": lines}))
        return 0

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, indent=1))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
