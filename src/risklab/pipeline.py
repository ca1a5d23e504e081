"""The experiment behind `risklab run` and `risklab decay`: fit a predictor,
sweep it into strategies, fit the market line, correlate the surprise with
returns and, with a [rolling] section, refit the net on sliding windows."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .analysis import CorrelationCurve, SweepSpec, surprise_return_correlation, sweep
from .errors import DegenerateError, ValidationError
from .market_data import SyntheticSpec, TickSeries, gen_synthetic, load_csv
from .pml import (PmlFit, RiskReturnPoint, RollingPmlResult, fit_pml,
                  points_to_csv, rolling_pml, rolling_train_len,
                  sweep_points)
from .predictor import Predictor, TrainSpec, train
from .uncertainty import mc_estimate_to_dict

Write = Callable[[str, str], None]


@dataclass(frozen=True)
class TrainSetup:
    """A net trained to `spec` or a fixed `baseline` (exactly one is set),
    fitted on the leading `split` of the series."""

    split: float
    spec: Optional[TrainSpec]
    baseline: Optional[Predictor]

    def fit(self, series: TickSeries) -> Predictor:
        return self.baseline if self.spec is None else train(series, self.spec)


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


@dataclass(frozen=True)
class RollingParams:
    window: int
    step: int
    train_frac: float


@dataclass(frozen=True)
class Experiment:
    """A parsed experiment config; `echo` is what the manifest records."""

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


def json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _fmt(value: float) -> str:
    return "" if not np.isfinite(value) else f"{value:.12g}"


def correlation_csv(curve: CorrelationCurve) -> str:
    lines = ["lag,corr,n"]
    for lag, corr, n in zip(curve.lags, curve.corr, curve.n):
        lines.append(f"{int(lag)},{_fmt(corr)},{int(n)}")
    return "\n".join(lines) + "\n"


def rolling_csv(result: RollingPmlResult) -> str:
    lines = ["window_start,sr_theta,sr_observed,gap"]
    for start, theta, observed, gap in zip(result.window_starts,
                                           result.sr_theta_series,
                                           result.sr_observed_series,
                                           result.gap_series):
        lines.append(f"{int(start)},{_fmt(theta)},{_fmt(observed)},{_fmt(gap)}")
    return "\n".join(lines) + "\n"


def write_sweep(triples, write: Write) -> List[RiskReturnPoint]:
    """Write a sweep's points.csv and mc.json; returns its priced points."""
    points = sweep_points(triples)
    write("points.csv", points_to_csv(points))
    write("mc.json", json_text([{"config_id": point.config_id,
                                 "strategy": dataclasses.asdict(cfg),
                                 "n_trades": result.n_trades,
                                 **mc_estimate_to_dict(mc)}
                                for point, (cfg, result, mc)
                                in zip(points, triples)]))
    return points


def _load_series(exp: Experiment) -> TickSeries:
    """The experiment's series, its [rolling] geometry checked against it
    (a CSV's length is known only here, before anything is written)."""
    series = (gen_synthetic(exp.synthetic) if exp.synthetic is not None
              else load_csv(exp.data_path))
    if exp.rolling is not None:
        try:
            rolling_train_len(exp.rolling.window, exp.rolling.step,
                              exp.rolling.train_frac, exp.train.spec.window,
                              n_ticks=len(series))
        except ValidationError as e:
            raise ValidationError(f"[rolling] {e}") from None
    return series


def run_decay(exp: Experiment,
              series: Optional[TickSeries] = None) -> RollingPmlResult:
    """The rolling refit over the whole series (loaded unless given)."""
    if exp.rolling is None:
        raise ValidationError("decay needs a [rolling] section")
    return rolling_pml(_load_series(exp) if series is None else series,
                       exp.train.spec, exp.sweep,
                       window=exp.rolling.window, step=exp.rolling.step,
                       r_f_per_period=exp.pml.r_f_per_period,
                       train_frac=exp.rolling.train_frac,
                       intercept_mode=exp.pml.intercept_mode,
                       risk_axis=exp.pml.risk_axis)


def run_experiment(exp: Experiment, write: Write) -> Tuple[PmlFit, int]:
    """Run `exp`; returns its fit and the sweep's total trade count.

    write(name, text) gets each artifact as soon as it is ready: points.csv,
    mc.json, pml.json, correlation.csv, then rolling.csv if configured.
    """
    series = _load_series(exp)
    cut = int(len(series) * exp.train.split)
    predictor = exp.train.fit(series.window(0, cut))
    evaluation = series.window(cut, len(series))

    triples = sweep(evaluation, predictor, exp.sweep)
    points = write_sweep(triples, write)
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
    write("pml.json", json_text(dataclasses.asdict(fit)))

    curve = surprise_return_correlation(evaluation, predictor,
                                        max_lag=exp.max_lag)
    write("correlation.csv", correlation_csv(curve))

    if exp.rolling is not None:
        write("rolling.csv", rolling_csv(run_decay(exp, series)))
    return fit, int(sum(r.n_trades for _, r, _ in triples))
