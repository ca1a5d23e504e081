"""Command-line front end: it parses arguments and INI configs (sections
of key-value pairs), prints summaries, writes artifacts and the manifest
and maps errors to exit codes; `risklab.pipeline` runs the experiments.
Every config file goes through `_read_config`: UTF-8, only the command's
known sections, and `[experiment] seed` as the default of every other
seed. Every section of an experiment config is parsed and key-checked by
`_parse_sections`, also by `train` and `sweep`, which read one section
each, and before any data file is read.
Every artifact is a pure function of (config, seed): reruns are
byte-identical. Every job runs serially, BLAS included (main pins it to
one thread); `run` and `decay` accept --jobs for compatibility and ignore it.

Exit codes: 0 success, 2 invalid config or arguments, 3 I/O failure,
4 numerical degeneracy (nothing traded, the fit had no spread, or a
forecast was not finite). Once `run` has its out-dir it writes
manifest.json last, also when it fails; a failed run's manifest records
the error class, its message and the exit code.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import math
import os
import platform
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .analysis import SweepSpec, surprise_return_correlation, sweep
from .backtest import StrategyConfig, annualized_sharpe, run_backtest, sharpe
from .errors import DegenerateError, ValidationError
from .market_data import SyntheticSpec, gen_synthetic, load_csv, write_csv
from .pipeline import (Experiment, PmlParams, RollingParams, TrainSetup,
                       correlation_csv, json_text, rolling_csv, run_decay,
                       run_experiment, write_sweep)
from .pml import (AXIS_MC, AXIS_PRICED, DEFAULT_PERIODS_PER_YEAR,
                  DEFAULT_RF_ANNUAL, INTERCEPT_FIXED, INTERCEPT_FREE, fit_pml,
                  load_points_csv, rolling_train_len, trend_tau)
from .predictor import (KIND_LEAKED, KIND_NET, KIND_NOISE, KIND_PERSISTENCE,
                        TrainSpec, load_predictor, make_leaked, make_noise,
                        make_persistence, save_predictor)

ENV_OUT_DIR = "RISKLAB_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_REQUIRED = object()

# every file `run` may write; `run`, `sweep` and `decay` clear them all so
# an out-dir never mixes files from two runs
_RUN_ARTIFACTS = ("points.csv", "mc.json", "pml.json", "correlation.csv",
                  "rolling.csv", "manifest.json")

# the sections of an experiment config, which `train` and `sweep` check too
_EXPERIMENT_SECTIONS = frozenset({"experiment", "data", "train", "sweep",
                                  "pml", "rolling", "correlation", "output"})


# ---------------------------------------------------------------- config


def _as_float(raw: str) -> float:
    value = float(raw.strip())
    if not math.isfinite(value):
        raise ValidationError("must be finite")
    return value


def _as_bool(raw: str) -> bool:
    token = raw.strip().lower()
    if token in ("true", "yes", "1"):
        return True
    if token in ("false", "no", "0"):
        return False
    raise ValueError(token)


def _as_opt_float(raw: str) -> Optional[float]:
    token = raw.strip().lower()
    return None if token in ("", "none") else _as_float(token)


def _as_hidden(raw: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


class _Section:
    """One INI section; every key must be consumed exactly once."""

    def __init__(self, name: str, mapping) -> None:
        self.name = name
        self._pairs = dict(mapping)

    def take(self, key: str, parse, default=_REQUIRED):
        if key not in self._pairs:
            if default is _REQUIRED:
                raise ValidationError(
                    f"[{self.name}] missing required key '{key}'")
            return default
        raw = self._pairs.pop(key)
        try:
            return parse(raw)
        except ValidationError as e:
            raise ValidationError(f"[{self.name}] {key} {e}: '{raw}'") from None
        except (ValueError, TypeError):
            raise ValidationError(
                f"[{self.name}] invalid value for '{key}': '{raw}'") from None

    def build(self, factory, *args, **kwargs):
        """Call factory, naming the section in its ValidationError."""
        try:
            return factory(*args, **kwargs)
        except ValidationError as e:
            raise ValidationError(f"[{self.name}] {e}") from None

    def done(self) -> None:
        if self._pairs:
            raise ValidationError(
                f"[{self.name}] unknown keys: {', '.join(sorted(self._pairs))}")


def _section(parser: configparser.ConfigParser, name: str) -> _Section:
    return _Section(name, parser[name] if parser.has_section(name) else {})


def _read_config(path, known) -> Tuple[configparser.ConfigParser, int]:
    """The INI file at `path`, which may hold only `known` sections, and
    its `[experiment] seed` (0 when unset)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except UnicodeDecodeError as e:
        raise ValidationError(
            f"{Path(path).name}: not UTF-8 text ({e.reason})") from None
    except configparser.Error as e:
        raise ValidationError(f"malformed config: {e}") from None
    unknown = set(parser.sections()) - known
    if unknown:
        raise ValidationError(
            f"unknown config sections: {', '.join(sorted(unknown))}")
    exp_sec = _section(parser, "experiment")
    seed = exp_sec.take("seed", int, 0)
    exp_sec.done()
    if seed < 0:
        raise ValidationError("[experiment] seed must be nonnegative")
    return parser, seed


def _synthetic_spec(sec: _Section, default_seed: int) -> SyntheticSpec:
    spec = sec.build(SyntheticSpec, n_ticks=sec.take("n_ticks", int),
                     dt_ns=sec.take("dt_ns", int, 1_000_000_000),
                     sigma_noise=sec.take("sigma_noise", _as_float, 5e-4),
                     phi=sec.take("phi", _as_float, 0.0),
                     sigma_signal=sec.take("sigma_signal", _as_float, 0.0),
                     spread_bps=sec.take("spread_bps", _as_float, 1.0),
                     seed=sec.take("seed", int, default_seed),
                     decay_to=sec.take("decay_to", _as_opt_float, None))
    sec.done()
    return spec


def _train_setup(sec: _Section, default_seed: int) -> TrainSetup:
    kind = sec.take("kind", str, KIND_NET)
    if kind == "net":
        kind = KIND_NET
    split = sec.take("split", _as_float, 0.5)
    if not 0.0 < split < 1.0:
        raise ValidationError("[train] split must lie in (0, 1)")
    spec = baseline = None
    if kind == KIND_NET:
        spec = sec.build(TrainSpec, window=sec.take("window", int, 8),
                         hidden=sec.take("hidden", _as_hidden, (16,)),
                         dropout_p=sec.take("dropout_p", _as_float, 0.2),
                         epochs=sec.take("epochs", int, 200),
                         learning_rate=sec.take("learning_rate", _as_float,
                                                0.05),
                         l2=sec.take("l2", _as_float, 1e-4),
                         seed=sec.take("seed", int, default_seed))
    elif kind == KIND_LEAKED:
        baseline = sec.build(make_leaked, sec.take("horizon", int, 1))
    elif kind == KIND_NOISE:
        baseline = sec.build(make_noise, sec.take("scale", _as_float, 1e-4),
                             seed=sec.take("seed", int, default_seed))
    elif kind == KIND_PERSISTENCE:
        baseline = make_persistence()
    else:
        raise ValidationError(f"[train] unknown kind '{kind}'")
    sec.done()
    return TrainSetup(split=split, spec=spec, baseline=baseline)


def _sweep_spec(sec: _Section, default_seed: int) -> SweepSpec:
    spec = sec.build(
        SweepSpec,
        n_configs=sec.take("n_configs", int, 16),
        threshold_range=(sec.take("threshold_lo", _as_float, 5.0),
                         sec.take("threshold_hi", _as_float, 50.0)),
        stop_loss_range=(sec.take("stop_loss_lo", _as_float, 10.0),
                         sec.take("stop_loss_hi", _as_float, 100.0)),
        take_profit_range=(sec.take("take_profit_lo", _as_float, 10.0),
                           sec.take("take_profit_hi", _as_float, 100.0)),
        fee_bps=sec.take("fee_bps", _as_float, 1.0),
        seed=sec.take("seed", int, default_seed),
        K=sec.take("k", int, 32),
        period_ticks=sec.take("period_ticks", int, 256),
        allow_short=sec.take("allow_short", _as_bool, True))
    sec.done()
    return spec


def _pml_params(sec: _Section) -> PmlParams:
    params = PmlParams(
        rf_annual=sec.take("rf_annual", _as_float, DEFAULT_RF_ANNUAL),
        periods_per_year=sec.take("periods_per_year", _as_float,
                                  float(DEFAULT_PERIODS_PER_YEAR)),
        intercept_mode=sec.take("intercept", str, INTERCEPT_FIXED),
        risk_axis=sec.take("risk_axis", str, AXIS_PRICED),
        bootstrap=sec.take("bootstrap", int, 0),
        bootstrap_seed=sec.take("bootstrap_seed", int, 0))
    sec.done()
    if params.rf_annual < 0:
        raise ValidationError("[pml] rf_annual must be nonnegative")
    if params.periods_per_year <= 0:
        raise ValidationError("[pml] periods_per_year must be positive")
    if params.intercept_mode not in (INTERCEPT_FIXED, INTERCEPT_FREE):
        raise ValidationError(
            f"[pml] unknown intercept '{params.intercept_mode}'")
    if params.risk_axis not in (AXIS_PRICED, AXIS_MC):
        raise ValidationError(f"[pml] unknown risk_axis '{params.risk_axis}'")
    if params.bootstrap < 0 or params.bootstrap_seed < 0:
        raise ValidationError("[pml] bootstrap settings must be nonnegative")
    return params


def _data_source(sec: _Section, default_seed: int
                 ) -> Tuple[Optional[SyntheticSpec], Optional[str]]:
    """(synthetic spec, CSV path) of a [data] section; one is None."""
    kind = sec.take("kind", str)
    if kind == "synthetic":
        return _synthetic_spec(sec, default_seed), None
    if kind == "csv":
        path = sec.take("path", str)
        sec.done()
        return None, path
    raise ValidationError(f"[data] unknown kind '{kind}'")


def _rolling_params(sec: _Section) -> RollingParams:
    params = RollingParams(window=sec.take("window", int),
                           step=sec.take("step", int),
                           train_frac=sec.take("train_frac", _as_float, 0.5))
    sec.done()
    return params


def _max_lag(sec: _Section) -> int:
    max_lag = sec.take("max_lag", int, 5)
    sec.done()
    if max_lag < 1:
        raise ValidationError("[correlation] max_lag must be at least 1")
    return max_lag


def _out_dir(sec: _Section) -> Optional[str]:
    out_dir = sec.take("dir", str, None)
    sec.done()
    return out_dir


def _parse_sections(parser: configparser.ConfigParser, seed: int) -> dict:
    """Section name -> its parse, for every experiment section: each
    section's own parser checks its keys and values. A missing [data] or
    [rolling] parses to None, any other missing section to its defaults."""
    def parse(name, parse_section, *args):
        if name in ("data", "rolling") and not parser.has_section(name):
            return None
        return parse_section(_section(parser, name), *args)

    return {"data": parse("data", _data_source, seed),
            "train": parse("train", _train_setup, seed),
            "sweep": parse("sweep", _sweep_spec, seed),
            "pml": parse("pml", _pml_params),
            "rolling": parse("rolling", _rolling_params),
            "correlation": parse("correlation", _max_lag),
            "output": parse("output", _out_dir)}


def load_experiment(path) -> Experiment:
    parser, seed = _read_config(path, _EXPERIMENT_SECTIONS)
    if not parser.has_section("data"):
        raise ValidationError("config needs a [data] section")
    sections = _parse_sections(parser, seed)
    synthetic, data_path = sections["data"]
    train_setup = sections["train"]
    sweep_spec = sections["sweep"]
    pml_params = sections["pml"]
    rolling = sections["rolling"]
    max_lag = sections["correlation"]
    out_dir = sections["output"]

    net = train_setup.spec
    if sweep_spec.K > 1 and (net is None or net.dropout_p == 0.0):
        raise ValidationError("[sweep] k > 1 needs dropout variants: "
                              f"[train] kind = {KIND_NET}, dropout_p > 0")
    if rolling is not None:
        if net is None:
            raise ValidationError(
                "[rolling] needs a trainable predictor ([train] kind = "
                f"{KIND_NET})")
        _section(parser, "rolling").build(
            rolling_train_len, rolling.window, rolling.step,
            rolling.train_frac, net.window,
            n_ticks=synthetic.n_ticks if synthetic else None)

    baseline = train_setup.baseline
    echo = {
        "experiment": {"seed": seed},
        "data": ({"kind": "synthetic", **dataclasses.asdict(synthetic)}
                 if synthetic is not None
                 else {"kind": "csv", "path": data_path}),
        "train": {"split": train_setup.split,
                  **({"kind": KIND_NET, **dataclasses.asdict(net)}
                     if net is not None else {"kind": baseline.kind}),
                  **({"horizon": baseline.horizon}
                     if baseline and baseline.kind == KIND_LEAKED else {}),
                  **({"scale": baseline.noise_scale,
                      "seed": baseline.noise_seed}
                     if baseline and baseline.kind == KIND_NOISE else {})},
        "sweep": dataclasses.asdict(sweep_spec),
        "pml": dataclasses.asdict(pml_params),
        "rolling": dataclasses.asdict(rolling) if rolling else None,
        "correlation": {"max_lag": max_lag},
        "output": {"dir": out_dir},
    }
    return Experiment(synthetic=synthetic, data_path=data_path,
                      train=train_setup, sweep=sweep_spec, pml=pml_params,
                      rolling=rolling, max_lag=max_lag, out_dir=out_dir,
                      seed=seed, echo=echo)


# ------------------------------------------------------------- artifacts


def _fresh_out_dir(flag: Optional[str], configured: Optional[str]) -> Path:
    """The chosen out-dir, created, with no file of an earlier run left."""
    chosen = flag or configured or os.environ.get(ENV_OUT_DIR) or "risklab-out"
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    for name in _RUN_ARTIFACTS:
        (path / name).unlink(missing_ok=True)
    return path


def _writer(out_dir: Path):
    """write(name, text) into out_dir."""
    return lambda name, text: (out_dir / name).write_text(text, "utf-8")


# --------------------------------------------------------------- commands


def _cmd_gen_data(args) -> None:
    parser, seed = _read_config(args.spec, {"synthetic"})
    if not parser.has_section("synthetic"):
        raise ValidationError("spec file needs a [synthetic] section")
    spec = _synthetic_spec(_section(parser, "synthetic"), default_seed=seed)
    write_csv(gen_synthetic(spec), args.out)


def _cmd_train(args) -> None:
    parser, seed = _read_config(args.config, _EXPERIMENT_SECTIONS)
    setup = _parse_sections(parser, seed)["train"]
    series = load_csv(args.data)
    predictor = setup.fit(series)
    save_predictor(predictor, args.out)
    print(json_text({"kind": predictor.kind,
                     "final_loss": predictor.final_loss,
                     "n_ticks": len(series)}), end="")


def _cmd_backtest(args) -> None:
    series = load_csv(args.data)
    predictor = load_predictor(args.predictor)
    cfg = StrategyConfig(threshold_bps=args.threshold_bps,
                         stop_loss_bps=args.stop_loss_bps,
                         take_profit_bps=args.take_profit_bps,
                         fee_bps=args.fee_bps,
                         allow_short=not args.no_short,
                         period_ticks=args.period_ticks)
    result = run_backtest(series, predictor, cfg)
    print(json_text({"mean": result.mean,
                     "stdev": result.stdev,
                     "n_trades": result.n_trades,
                     "n_periods": int(result.period_returns.size),
                     "sharpe": sharpe(result, args.rf),
                     "sharpe_annualized": annualized_sharpe(
                         result, args.rf, args.periods_per_year)}), end="")


def _cmd_sweep(args) -> None:
    parser, seed = _read_config(args.config, _EXPERIMENT_SECTIONS)
    spec = _parse_sections(parser, seed)["sweep"]
    series = load_csv(args.data)
    predictor = load_predictor(args.predictor)
    triples = sweep(series, predictor, spec)
    out_dir = _fresh_out_dir(args.out_dir, None)
    points = write_sweep(triples, _writer(out_dir))
    print(json_text({"n_configs": len(triples),
                     "n_clamped": sum(1 for p in points if p.clamped),
                     "out_dir": str(out_dir)}), end="")


def _cmd_fit_pml(args) -> None:
    points = load_points_csv(args.points)
    fit = fit_pml(points, r_f_per_period=args.rf,
                  intercept_mode=args.intercept, risk_axis=args.risk_axis,
                  periods_per_year=args.periods_per_year,
                  bootstrap=args.bootstrap, bootstrap_seed=args.bootstrap_seed)
    print(json_text(dataclasses.asdict(fit)), end="")


def _cmd_correlate(args) -> None:
    series = load_csv(args.data)
    predictor = load_predictor(args.predictor)
    curve = surprise_return_correlation(series, predictor,
                                        max_lag=args.max_lag)
    text = correlation_csv(curve)
    if args.out is None:
        print(text, end="")
    else:
        Path(args.out).write_text(text, encoding="utf-8")


def _cmd_decay(args) -> None:
    exp = load_experiment(args.config)
    result = run_decay(exp)
    out_dir = _fresh_out_dir(args.out_dir, exp.out_dir)
    _writer(out_dir)("rolling.csv", rolling_csv(result))
    print(json_text({"n_windows": len(result),
                     "kendall_tau": trend_tau(result.sr_theta_series),
                     "out_dir": str(out_dir)}), end="")


def _cmd_run(args) -> None:
    exp = load_experiment(args.config)
    out_dir = _fresh_out_dir(args.out_dir, exp.out_dir)
    write = _writer(out_dir)
    manifest = {
        "command": "run",
        "artifact": {"name": "risklab", "version": __version__},
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__},
        "config": exp.echo,
        "seeds": {"experiment": exp.seed,
                  "data": exp.synthetic.seed if exp.synthetic else None,
                  "train": exp.train.spec.seed if exp.train.spec else None,
                  "sweep": exp.sweep.seed,
                  "bootstrap": exp.pml.bootstrap_seed},
    }
    # the manifest is written last, on failure too, so it records how the
    # run ended
    try:
        fit, n_trades = run_experiment(exp, write)
    except Exception as e:
        manifest.update(status="failed", error=type(e).__name__,
                        message=str(e), exit_code=_exit_code(e))
        write("manifest.json", json_text(manifest))
        raise
    manifest.update(fit={"n_points": fit.n_points, "n_clamped": fit.n_clamped},
                    n_trades_total=n_trades)
    write("manifest.json", json_text(manifest))
    print(json_text({"out_dir": str(out_dir),
                     "sr_theta": fit.sr_theta,
                     "r2": fit.r2}), end="")


# ------------------------------------------------------------------ main


def _finite_float(raw: str) -> float:
    """argparse type of every float flag: anything but a finite number
    exits 2 before the command runs."""
    try:
        return _as_float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be finite, got '{raw}'") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risklab",
        description="Deterministic risk laboratory: synthetic tick data, "
                    "surprise-signal backtests, variant-spread "
                    "disentanglement, and market-line fits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic tick CSV")
    p.add_argument("--spec", required=True,
                   help="INI file with a [synthetic] section")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="fit a predictor and save it as JSON")
    p.add_argument("--data", required=True, help="tick CSV")
    p.add_argument("--config", required=True,
                   help="INI file with a [train] section")
    p.add_argument("--out", required=True, help="output predictor JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("backtest", help="run one strategy, print a summary")
    p.add_argument("--data", required=True, help="tick CSV")
    p.add_argument("--predictor", required=True, help="predictor JSON")
    p.add_argument("--threshold-bps", type=_finite_float, default=10.0)
    p.add_argument("--stop-loss-bps", type=_finite_float, default=50.0)
    p.add_argument("--take-profit-bps", type=_finite_float, default=50.0)
    p.add_argument("--fee-bps", type=_finite_float, default=1.0)
    p.add_argument("--period-ticks", type=int, default=256)
    p.add_argument("--no-short", action="store_true",
                   help="disable short entries")
    p.add_argument("--rf", type=_finite_float,
                   default=DEFAULT_RF_ANNUAL / DEFAULT_PERIODS_PER_YEAR,
                   help="per-period risk-free rate")
    p.add_argument("--periods-per-year", type=_finite_float,
                   default=float(DEFAULT_PERIODS_PER_YEAR))
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("sweep",
                       help="random strategy sweep: points.csv + mc.json")
    p.add_argument("--data", required=True, help="tick CSV")
    p.add_argument("--predictor", required=True, help="predictor JSON")
    p.add_argument("--config", required=True,
                   help="INI file with a [sweep] section")
    p.add_argument("--out-dir", default=None,
                   help=f"output directory (default ${ENV_OUT_DIR} or "
                        "./risklab-out)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit-pml",
                       help="fit the market line to a points CSV, print JSON")
    p.add_argument("--points", required=True,
                   help="CSV: config_id,mean_return,sigma_total,sigma_mc,"
                        "sigma_priced,clamped")
    p.add_argument("--rf", type=_finite_float,
                   default=DEFAULT_RF_ANNUAL / DEFAULT_PERIODS_PER_YEAR,
                   help="per-period risk-free rate")
    p.add_argument("--intercept", choices=[INTERCEPT_FIXED, INTERCEPT_FREE],
                   default=INTERCEPT_FIXED)
    p.add_argument("--risk-axis", choices=[AXIS_PRICED, AXIS_MC],
                   default=AXIS_PRICED)
    p.add_argument("--periods-per-year", type=_finite_float,
                   default=float(DEFAULT_PERIODS_PER_YEAR))
    p.add_argument("--bootstrap", type=int, default=0,
                   help="bootstrap resamples for a second stderr")
    p.add_argument("--bootstrap-seed", type=int, default=0)
    p.set_defaults(func=_cmd_fit_pml)

    p = sub.add_parser("correlate",
                       help="lead-lag surprise correlation CSV (lag,corr,n)")
    p.add_argument("--data", required=True, help="tick CSV")
    p.add_argument("--predictor", required=True, help="predictor JSON")
    p.add_argument("--max-lag", type=int, default=5)
    p.add_argument("--out", default=None,
                   help="output CSV (default: standard output)")
    p.set_defaults(func=_cmd_correlate)

    for name, func, summary in (
            ("decay", _cmd_decay, "rolling refit: rolling.csv + trend summary"),
            ("run", _cmd_run, "full experiment: all artifacts")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="experiment INI")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--jobs", type=int, default=None,
                       help="ignored, accepted for compatibility; runs are "
                            "serial")
        p.set_defaults(func=func)
    return parser


_EXIT_CODES = ((ValidationError, EXIT_CONFIG), (DegenerateError, EXIT_NUMERIC),
               (OSError, EXIT_IO))


def _exit_code(error: Exception) -> int:
    """The code `main` exits with; 1 (a traceback) for an unexpected error."""
    for cls, code in _EXIT_CODES:
        if isinstance(error, cls):
            return code
    return 1


# OpenBLAS setters as numpy 2 wheels, then plain builds, export them
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_",
                        "openblas_set_num_threads")


def _pin_blas_to_one_thread() -> None:
    """Run numpy's BLAS on one thread, if it is an OpenBLAS.

    OpenBLAS hands each matmul over about 262k multiply-adds (training on
    16k rows, variant passes on 4k) to a second thread, which spins between
    calls: on `run` that doubled the CPU time and saved no wall time. It
    splits a matmul's output, not its sums, so the bits do not change.
    dlsym on the handle of numpy's BLAS-linked extension also searches the
    libraries that extension links, which is how the setter is found.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return
    for name in _BLAS_THREAD_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return


def main(argv: Optional[Sequence[str]] = None) -> int:
    _pin_blas_to_one_thread()
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", None) is not None and args.jobs < 1:
            raise ValidationError("--jobs must be at least 1")
        args.func(args)
    except (ValidationError, DegenerateError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
