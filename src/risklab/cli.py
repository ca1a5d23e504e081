"""Command-line front end.

Subcommands wire the library into reproducible experiments driven by an
INI config (sections of key-value pairs). Every artifact is a pure
function of (config, seed): reruns are byte-identical. Every job runs
serially; --jobs and [output] jobs are accepted for compatibility only.

Exit codes: 0 success, 2 invalid config or arguments, 3 I/O failure,
4 numerical degeneracy (nothing traded, the fit had no spread, or a
forecast was not finite). Once `run` has its out-dir it writes
manifest.json last, also when it fails; a failed run's manifest records
the error class, its message and the exit code.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy

from . import __version__
from .analysis import CorrelationCurve, SweepSpec, surprise_return_correlation, sweep
from .backtest import StrategyConfig, annualized_sharpe, run_backtest, sharpe
from .errors import DegenerateError, ValidationError
from .market_data import SyntheticSpec, TickSeries, gen_synthetic, load_csv, write_csv
from .pml import (
    AXIS_MC,
    AXIS_PRICED,
    DEFAULT_PERIODS_PER_YEAR,
    DEFAULT_RF_ANNUAL,
    INTERCEPT_FIXED,
    INTERCEPT_FREE,
    PmlFit,
    RiskReturnPoint,
    RollingPmlResult,
    fit_pml,
    load_points_csv,
    rolling_pml,
    sweep_points,
    trend_tau,
    write_points_csv,
)
from .predictor import (
    KIND_LEAKED,
    KIND_NET,
    KIND_NOISE,
    KIND_PERSISTENCE,
    TrainSpec,
    load_predictor,
    make_leaked,
    make_noise,
    make_persistence,
    save_predictor,
    train,
)
from .uncertainty import mc_estimate_to_dict

ENV_OUT_DIR = "RISKLAB_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_REQUIRED = object()

# every file `run` may write; a rerun clears them all so an out-dir never
# mixes files from two runs
_RUN_ARTIFACTS = ("points.csv", "mc.json", "pml.json", "correlation.csv",
                  "rolling.csv", "manifest.json")


# ---------------------------------------------------------------- config


def _as_str(raw: str) -> str:
    return raw.strip()


def _as_int(raw: str) -> int:
    return int(raw.strip())


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

    def done(self) -> None:
        if self._pairs:
            raise ValidationError(
                f"[{self.name}] unknown keys: {', '.join(sorted(self._pairs))}")


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=str(path))
        except configparser.Error as e:
            raise ValidationError(f"malformed config: {e}") from None
    return parser


def _section(parser: configparser.ConfigParser, name: str) -> _Section:
    return _Section(name, parser[name] if parser.has_section(name) else {})


def _synthetic_spec(sec: _Section, default_seed: int) -> SyntheticSpec:
    spec = SyntheticSpec(n_ticks=sec.take("n_ticks", _as_int),
                         dt_ns=sec.take("dt_ns", _as_int, 1_000_000_000),
                         sigma_noise=sec.take("sigma_noise", _as_float, 5e-4),
                         phi=sec.take("phi", _as_float, 0.0),
                         sigma_signal=sec.take("sigma_signal", _as_float, 0.0),
                         spread_bps=sec.take("spread_bps", _as_float, 1.0),
                         seed=sec.take("seed", _as_int, default_seed),
                         decay_to=sec.take("decay_to", _as_opt_float, None))
    sec.done()
    return spec


@dataclass(frozen=True)
class TrainSetup:
    kind: str
    spec: Optional[TrainSpec]
    horizon: int
    noise_scale: float
    noise_seed: int
    split: float


def _train_setup(sec: _Section, default_seed: int) -> TrainSetup:
    kind = sec.take("kind", _as_str, KIND_NET)
    if kind == "net":
        kind = KIND_NET
    split = sec.take("split", _as_float, 0.5)
    if not 0.0 < split < 1.0:
        raise ValidationError("[train] split must lie in (0, 1)")
    spec = None
    horizon = 1
    noise_scale = 1e-4
    noise_seed = default_seed
    if kind == KIND_NET:
        spec = TrainSpec(window=sec.take("window", _as_int, 8),
                         hidden=sec.take("hidden", _as_hidden, (16,)),
                         dropout_p=sec.take("dropout_p", _as_float, 0.2),
                         epochs=sec.take("epochs", _as_int, 200),
                         learning_rate=sec.take("learning_rate", _as_float,
                                                0.05),
                         l2=sec.take("l2", _as_float, 1e-4),
                         seed=sec.take("seed", _as_int, default_seed))
    elif kind == KIND_LEAKED:
        horizon = sec.take("horizon", _as_int, 1)
    elif kind == KIND_NOISE:
        noise_scale = sec.take("scale", _as_float, 1e-4)
        noise_seed = sec.take("seed", _as_int, default_seed)
    elif kind != KIND_PERSISTENCE:
        raise ValidationError(f"[train] unknown kind '{kind}'")
    sec.done()
    return TrainSetup(kind=kind, spec=spec, horizon=horizon,
                      noise_scale=noise_scale, noise_seed=noise_seed,
                      split=split)


def _build_predictor(setup: TrainSetup, train_series: TickSeries):
    if setup.kind == KIND_NET:
        return train(train_series, setup.spec)
    if setup.kind == KIND_PERSISTENCE:
        return make_persistence()
    if setup.kind == KIND_LEAKED:
        return make_leaked(setup.horizon)
    return make_noise(setup.noise_scale, seed=setup.noise_seed)


def _sweep_spec(sec: _Section, default_seed: int) -> SweepSpec:
    spec = SweepSpec(
        n_configs=sec.take("n_configs", _as_int, 16),
        threshold_range=(sec.take("threshold_lo", _as_float, 5.0),
                         sec.take("threshold_hi", _as_float, 50.0)),
        stop_loss_range=(sec.take("stop_loss_lo", _as_float, 10.0),
                         sec.take("stop_loss_hi", _as_float, 100.0)),
        take_profit_range=(sec.take("take_profit_lo", _as_float, 10.0),
                           sec.take("take_profit_hi", _as_float, 100.0)),
        fee_bps=sec.take("fee_bps", _as_float, 1.0),
        seed=sec.take("seed", _as_int, default_seed),
        K=sec.take("k", _as_int, 32),
        period_ticks=sec.take("period_ticks", _as_int, 256),
        allow_short=sec.take("allow_short", _as_bool, True))
    sec.done()
    return spec


@dataclass(frozen=True)
class PmlParams:
    rf_annual: float
    periods_per_year: float
    intercept_mode: str
    risk_axis: str
    bootstrap: int
    bootstrap_seed: int

    @property
    def r_f_per_period(self) -> float:
        return self.rf_annual / self.periods_per_year


def _pml_params(sec: _Section) -> PmlParams:
    params = PmlParams(
        rf_annual=sec.take("rf_annual", _as_float, DEFAULT_RF_ANNUAL),
        periods_per_year=sec.take("periods_per_year", _as_float,
                                  float(DEFAULT_PERIODS_PER_YEAR)),
        intercept_mode=sec.take("intercept", _as_str, INTERCEPT_FIXED),
        risk_axis=sec.take("risk_axis", _as_str, AXIS_PRICED),
        bootstrap=sec.take("bootstrap", _as_int, 0),
        bootstrap_seed=sec.take("bootstrap_seed", _as_int, 0))
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


@dataclass(frozen=True)
class RollingParams:
    window: int
    step: int
    train_frac: float


@dataclass(frozen=True)
class Experiment:
    data_kind: str
    synthetic: Optional[SyntheticSpec]
    data_path: Optional[str]
    train: TrainSetup
    sweep: SweepSpec
    pml: PmlParams
    rolling: Optional[RollingParams]
    max_lag: int
    out_dir: Optional[str]
    seed: int
    echo: dict


def load_experiment(path) -> Experiment:
    parser = _read_ini(path)
    known = {"data", "train", "sweep", "pml", "rolling", "correlation",
             "output", "experiment"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ValidationError(
            f"unknown config sections: {', '.join(sorted(unknown))}")

    exp_sec = _section(parser, "experiment")
    seed = exp_sec.take("seed", _as_int, 0)
    exp_sec.done()
    if seed < 0:
        raise ValidationError("[experiment] seed must be nonnegative")

    if not parser.has_section("data"):
        raise ValidationError("config needs a [data] section")
    data_sec = _section(parser, "data")
    data_kind = data_sec.take("kind", _as_str)
    synthetic = None
    data_path = None
    if data_kind == "synthetic":
        synthetic = _synthetic_spec(data_sec, default_seed=seed)
    elif data_kind == "csv":
        data_path = data_sec.take("path", _as_str)
        data_sec.done()
    else:
        raise ValidationError(f"[data] unknown kind '{data_kind}'")

    train_setup = _train_setup(_section(parser, "train"), default_seed=seed)
    sweep_spec = _sweep_spec(_section(parser, "sweep"), default_seed=seed)
    pml_params = _pml_params(_section(parser, "pml"))

    rolling = None
    if parser.has_section("rolling"):
        roll_sec = _section(parser, "rolling")
        rolling = RollingParams(window=roll_sec.take("window", _as_int),
                                step=roll_sec.take("step", _as_int),
                                train_frac=roll_sec.take("train_frac",
                                                         _as_float, 0.5))
        roll_sec.done()
        if train_setup.kind != KIND_NET:
            raise ValidationError(
                "[rolling] needs a trainable predictor ([train] kind = "
                f"{KIND_NET})")

    corr_sec = _section(parser, "correlation")
    max_lag = corr_sec.take("max_lag", _as_int, 5)
    corr_sec.done()
    if max_lag < 1:
        raise ValidationError("[correlation] max_lag must be at least 1")

    out_sec = _section(parser, "output")
    out_dir = out_sec.take("dir", _as_str, None)
    jobs = out_sec.take("jobs", _as_int, 1)
    out_sec.done()
    if jobs < 1:
        raise ValidationError("[output] jobs must be at least 1")

    echo = {
        "experiment": {"seed": seed},
        "data": ({"kind": "synthetic", **dataclasses.asdict(synthetic)}
                 if synthetic is not None
                 else {"kind": "csv", "path": data_path}),
        "train": {"kind": train_setup.kind, "split": train_setup.split,
                  **({"horizon": train_setup.horizon}
                     if train_setup.kind == KIND_LEAKED else {}),
                  **({"scale": train_setup.noise_scale,
                      "seed": train_setup.noise_seed}
                     if train_setup.kind == KIND_NOISE else {}),
                  **({k: (list(v) if isinstance(v, tuple) else v)
                      for k, v in dataclasses.asdict(train_setup.spec).items()}
                     if train_setup.spec is not None else {})},
        "sweep": {k: (list(v) if isinstance(v, tuple) else v)
                  for k, v in dataclasses.asdict(sweep_spec).items()},
        "pml": dataclasses.asdict(pml_params),
        "rolling": dataclasses.asdict(rolling) if rolling else None,
        "correlation": {"max_lag": max_lag},
        "output": {"dir": out_dir},
    }
    return Experiment(data_kind=data_kind, synthetic=synthetic,
                      data_path=data_path, train=train_setup,
                      sweep=sweep_spec, pml=pml_params, rolling=rolling,
                      max_lag=max_lag, out_dir=out_dir, seed=seed,
                      echo=echo)


# ------------------------------------------------------------- artifacts


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _resolve_out_dir(flag: Optional[str], configured: Optional[str]) -> Path:
    chosen = flag or configured or os.environ.get(ENV_OUT_DIR) or "risklab-out"
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt(value: float) -> str:
    return "" if not np.isfinite(value) else f"{value:.12g}"


def _correlation_csv(curve: CorrelationCurve) -> str:
    lines = ["lag,corr,n"]
    for lag, corr, n in zip(curve.lags, curve.corr, curve.n):
        lines.append(f"{int(lag)},{_fmt(corr)},{int(n)}")
    return "\n".join(lines) + "\n"


def _rolling_csv(result: RollingPmlResult) -> str:
    lines = ["window_start,sr_theta,sr_observed,gap"]
    for start, theta, observed, gap in zip(result.window_starts,
                                           result.sr_theta_series,
                                           result.sr_observed_series,
                                           result.gap_series):
        lines.append(f"{int(start)},{_fmt(theta)},{_fmt(observed)},{_fmt(gap)}")
    return "\n".join(lines) + "\n"


def _write_sweep(triples, out_dir: Path) -> List[RiskReturnPoint]:
    """Write a sweep's points.csv and mc.json; returns its priced points."""
    points = sweep_points(triples)
    write_points_csv(points, out_dir / "points.csv")
    mc_doc = [{"config_id": point.config_id,
               "strategy": dataclasses.asdict(cfg),
               "n_trades": result.n_trades,
               **mc_estimate_to_dict(mc)}
              for point, (cfg, result, mc) in zip(points, triples)]
    _write_text(out_dir / "mc.json", _json_text(mc_doc))
    return points


# --------------------------------------------------------------- commands


def _cmd_gen_data(args) -> None:
    parser = _read_ini(args.spec)
    if not parser.has_section("synthetic"):
        raise ValidationError("spec file needs a [synthetic] section")
    spec = _synthetic_spec(_section(parser, "synthetic"), default_seed=0)
    write_csv(gen_synthetic(spec), args.out)


def _cmd_train(args) -> None:
    series = load_csv(args.data)
    setup = _train_setup(_section(_read_ini(args.config), "train"),
                         default_seed=0)
    predictor = _build_predictor(setup, series)
    save_predictor(predictor, args.out)
    print(_json_text({"kind": predictor.kind,
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
    print(_json_text({"mean": result.mean,
                      "stdev": result.stdev,
                      "n_trades": result.n_trades,
                      "n_periods": int(result.period_returns.size),
                      "sharpe": sharpe(result, args.rf),
                      "sharpe_annualized": annualized_sharpe(
                          result, args.rf, args.periods_per_year)}), end="")


def _cmd_sweep(args) -> None:
    series = load_csv(args.data)
    predictor = load_predictor(args.predictor)
    spec = _sweep_spec(_section(_read_ini(args.config), "sweep"),
                       default_seed=0)
    triples = sweep(series, predictor, spec)
    out_dir = _resolve_out_dir(args.out_dir, None)
    points = _write_sweep(triples, out_dir)
    print(_json_text({"n_configs": len(triples),
                      "n_clamped": sum(1 for p in points if p.clamped),
                      "out_dir": str(out_dir)}), end="")


def _cmd_fit_pml(args) -> None:
    points = load_points_csv(args.points)
    fit = fit_pml(points, r_f_per_period=args.rf,
                  intercept_mode=args.intercept, risk_axis=args.risk_axis,
                  periods_per_year=args.periods_per_year,
                  bootstrap=args.bootstrap, bootstrap_seed=args.bootstrap_seed)
    print(_json_text(dataclasses.asdict(fit)), end="")


def _cmd_correlate(args) -> None:
    series = load_csv(args.data)
    predictor = load_predictor(args.predictor)
    curve = surprise_return_correlation(series, predictor,
                                        max_lag=args.max_lag)
    text = _correlation_csv(curve)
    if args.out is None:
        print(text, end="")
    else:
        _write_text(Path(args.out), text)


def _cmd_decay(args) -> None:
    exp = load_experiment(args.config)
    if exp.rolling is None:
        raise ValidationError("decay needs a [rolling] section")
    result = _rolling(exp, _load_series(exp))
    out_dir = _resolve_out_dir(args.out_dir, exp.out_dir)
    _write_text(out_dir / "rolling.csv", _rolling_csv(result))
    print(_json_text({"n_windows": len(result),
                      "kendall_tau": trend_tau(result.sr_theta_series),
                      "out_dir": str(out_dir)}), end="")


def _load_series(exp: Experiment) -> TickSeries:
    if exp.synthetic is not None:
        return gen_synthetic(exp.synthetic)
    return load_csv(exp.data_path)


def _rolling(exp: Experiment, series: TickSeries) -> RollingPmlResult:
    return rolling_pml(series, exp.train.spec, exp.sweep,
                       window=exp.rolling.window, step=exp.rolling.step,
                       r_f_per_period=exp.pml.r_f_per_period,
                       train_frac=exp.rolling.train_frac,
                       intercept_mode=exp.pml.intercept_mode,
                       risk_axis=exp.pml.risk_axis)


def _cmd_run(args) -> None:
    exp = load_experiment(args.config)
    out_dir = _resolve_out_dir(args.out_dir, exp.out_dir)
    for name in _RUN_ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)
    manifest = {
        "command": "run",
        "artifact": {"name": "risklab", "version": __version__},
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "scipy": scipy.__version__},
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
        fit, n_trades = _run_artifacts(exp, out_dir)
    except Exception as e:
        manifest.update(status="failed", error=type(e).__name__,
                        message=str(e), exit_code=_exit_code(e))
        _write_text(out_dir / "manifest.json", _json_text(manifest))
        raise
    manifest.update(fit={"n_points": fit.n_points, "n_clamped": fit.n_clamped},
                    n_trades_total=n_trades)
    _write_text(out_dir / "manifest.json", _json_text(manifest))
    print(_json_text({"out_dir": str(out_dir),
                      "sr_theta": fit.sr_theta,
                      "r2": fit.r2}), end="")


def _run_artifacts(exp: Experiment, out_dir: Path) -> Tuple[PmlFit, int]:
    """Write every `run` artifact but the manifest; returns the fit and the
    total trade count."""
    series = _load_series(exp)
    cut = int(len(series) * exp.train.split)
    predictor = _build_predictor(exp.train, series.window(0, cut))
    evaluation = series.window(cut, len(series))

    triples = sweep(evaluation, predictor, exp.sweep)
    points = _write_sweep(triples, out_dir)
    if all(result.n_trades == 0 for _, result, _ in triples):
        raise DegenerateError(
            "degenerate sweep: no strategy traded in any configuration")
    try:
        fit = fit_pml(points, r_f_per_period=exp.pml.r_f_per_period,
                      intercept_mode=exp.pml.intercept_mode,
                      risk_axis=exp.pml.risk_axis,
                      periods_per_year=exp.pml.periods_per_year,
                      bootstrap=exp.pml.bootstrap,
                      bootstrap_seed=exp.pml.bootstrap_seed)
    except DegenerateError as e:
        raise DegenerateError(f"degenerate sweep: {e}") from None
    _write_text(out_dir / "pml.json", _json_text(dataclasses.asdict(fit)))

    curve = surprise_return_correlation(evaluation, predictor,
                                        max_lag=exp.max_lag)
    _write_text(out_dir / "correlation.csv", _correlation_csv(curve))

    if exp.rolling is not None:
        _write_text(out_dir / "rolling.csv",
                    _rolling_csv(_rolling(exp, series)))
    return fit, int(sum(r.n_trades for _, r, _ in triples))


# ------------------------------------------------------------------ main

_JOBS_HELP = "accepted for compatibility; runs are serial"


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
    p.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)
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

    p = sub.add_parser("decay",
                       help="rolling refit: rolling.csv + trend summary")
    p.add_argument("--config", required=True, help="experiment INI")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("run", help="full experiment: all artifacts")
    p.add_argument("--config", required=True, help="experiment INI")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)
    p.set_defaults(func=_cmd_run)
    return parser


_EXIT_CODES = ((ValidationError, EXIT_CONFIG), (DegenerateError, EXIT_NUMERIC),
               (OSError, EXIT_IO))


def _exit_code(error: Exception) -> int:
    """The code `main` exits with; 1 (a traceback) for an unexpected error."""
    for cls, code in _EXIT_CODES:
        if isinstance(error, cls):
            return code
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
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
