"""Priced-volatility regression and its rolling-window decay study.

Each swept strategy becomes one (sigma_priced, mean_return) point, where
sigma_priced^2 = max(0, sigma_total^2 - sigma_mc^2) strips the
cross-variant spread out of the realized variance. The fitted slope of
excess return on sigma_priced is the market line's Sharpe-per-unit-risk;
refitting it on sliding windows tracks how fast an edge decays.

How the axes map to the source paper's terms ("Trading with the Devil",
arXiv 2510.17165). The paper casts the risk a shared foundation model
brings as systematic and epistemic, and the risk of custom fine-tuning as
idiosyncratic and aleatory; under its "Aleatory Collapse Assumption",
MC dropout measures the epistemic risk. Here `sigma_mc` is the
dropout-resolved (epistemic) share and `sigma_priced` is the remainder.
`risk_axis = "mc"` (`AXIS_MC`) regresses on `sigma_mc`, which is the
paper's reading; the default `AXIS_PRICED` regresses on the remainder and
stays the default until more than the paper's abstract can be checked.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .analysis import PreparedSweep, SweepSpec, finish_sweep, prepare_sweep
from .backtest import (BacktestResult, StrategyConfig, run_backtest_columns,
                       sharpe)
from .errors import DegenerateError, ValidationError
from .market_data import TickSeries
from .predictor import TrainSpec, draw_masks, train
from .uncertainty import McEstimate

INTERCEPT_FIXED = "fixed"
INTERCEPT_FREE = "free"
AXIS_PRICED = "priced"
AXIS_MC = "mc"

DEFAULT_RF_ANNUAL = 0.05
DEFAULT_PERIODS_PER_YEAR = 252
DEFAULT_RF_PER_PERIOD = DEFAULT_RF_ANNUAL / DEFAULT_PERIODS_PER_YEAR

POINTS_CSV_HEADER = "config_id,mean_return,sigma_total,sigma_mc,sigma_priced,clamped"


@dataclass(frozen=True)
class RiskReturnPoint:
    """One strategy's coordinates in risk-return space (per period)."""

    config_id: str
    mean_return: float
    sigma_total: float
    sigma_mc: float
    sigma_priced: float
    clamped: bool

    def __post_init__(self) -> None:
        for name in ("mean_return", "sigma_total", "sigma_mc", "sigma_priced"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.sigma_total < 0 or self.sigma_mc < 0 or self.sigma_priced < 0:
            raise ValidationError("volatilities must be nonnegative")
        if self.sigma_priced > self.sigma_total * (1 + 1e-9) + 1e-15:
            raise ValidationError("sigma_priced cannot exceed sigma_total")


def priced_point(result: BacktestResult, mc: McEstimate,
                 config_id: str = "") -> RiskReturnPoint:
    """Subtract the cross-variant variance; clamp at zero when it exceeds
    the realized variance (clamped flag records that the max bound)."""
    if result.period_returns.size != mc.n_periods:
        raise ValidationError(
            f"period mismatch: backtest has {result.period_returns.size} "
            f"periods, estimate has {mc.n_periods}")
    var_total = result.stdev ** 2
    diff = var_total - mc.sigma2_mc
    return RiskReturnPoint(config_id=config_id,
                           mean_return=result.mean,
                           sigma_total=result.stdev,
                           sigma_mc=float(np.sqrt(mc.sigma2_mc)),
                           sigma_priced=float(np.sqrt(max(0.0, diff))),
                           clamped=bool(diff < 0.0))


def sweep_points(triples: Sequence[Tuple[StrategyConfig, BacktestResult,
                                         McEstimate]]) -> List[RiskReturnPoint]:
    """Priced points of a sweep, config ids cfg000, cfg001, ... in order."""
    return [priced_point(result, mc, config_id=f"cfg{i:03d}")
            for i, (_, result, mc) in enumerate(triples)]


@dataclass(frozen=True)
class PmlFit:
    """Least-squares market line over risk-return points.

    sr_theta is the per-period slope of excess return on the chosen risk
    axis; fixed intercept_mode pins the line to r_f (regression through
    the origin in excess coordinates, R² uncentered), free mode fits the
    intercept too (R² centered). stderr is the classical homoskedastic
    slope standard error; stderr_bootstrap is filled only when the fit
    was asked to resample.
    """

    sr_theta: float
    sr_theta_annualized: float
    stderr: float
    r2: float
    r_f_per_period: float
    n_points: int
    n_clamped: int
    intercept_mode: str
    risk_axis: str
    fitted_intercept: Optional[float] = None
    stderr_bootstrap: Optional[float] = None


def _risk_coordinate(points: Sequence[RiskReturnPoint],
                     risk_axis: str) -> np.ndarray:
    if risk_axis == AXIS_PRICED:
        return np.array([p.sigma_priced for p in points], dtype=np.float64)
    if risk_axis == AXIS_MC:
        return np.array([p.sigma_mc for p in points], dtype=np.float64)
    raise ValidationError(f"unknown risk_axis '{risk_axis}'")


def _fit_slope(x: np.ndarray, y: np.ndarray,
               intercept_mode: str) -> Tuple[float, float, float, Optional[float]]:
    """Returns (slope, stderr, r2, intercept). y is already in excess form."""
    n = x.size
    if intercept_mode == INTERCEPT_FIXED:
        sxx = float(x @ x)
        slope = float(x @ y) / sxx
        resid = y - slope * x
        rss = float(resid @ resid)
        stderr = float(np.sqrt(rss / (n - 1) / sxx))
        tss = float(y @ y)
        r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
        return slope, stderr, r2, None
    xm, ym = float(x.mean()), float(y.mean())
    dx = x - xm
    sxx = float(dx @ dx)
    slope = float(dx @ (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - slope * x - intercept
    rss = float(resid @ resid)
    stderr = float(np.sqrt(rss / (n - 2) / sxx))
    tss = float(((y - ym) @ (y - ym)))
    r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
    return slope, stderr, r2, intercept


def _one_value(x: np.ndarray) -> bool:
    """np.unique(x).size < 2, NaNs counting as one value, without np.unique
    (which imports numpy.ma)."""
    if x.size == 0:
        return True
    return bool(((x == x[0]) | (np.isnan(x) & np.isnan(x[0]))).all())


def fit_pml(points: Sequence[RiskReturnPoint],
            r_f_per_period: float = DEFAULT_RF_PER_PERIOD,
            intercept_mode: str = INTERCEPT_FIXED,
            risk_axis: str = AXIS_PRICED,
            periods_per_year: float = DEFAULT_PERIODS_PER_YEAR,
            bootstrap: int = 0,
            bootstrap_seed: int = 0) -> PmlFit:
    """Regress per-period excess return on the chosen volatility axis.

    Clamped points participate like any other; their count is reported.
    bootstrap > 0 adds a seeded resampling stderr alongside the classical
    one.
    """
    if intercept_mode not in (INTERCEPT_FIXED, INTERCEPT_FREE):
        raise ValidationError(f"unknown intercept_mode '{intercept_mode}'")
    need = 2 if intercept_mode == INTERCEPT_FIXED else 3
    if len(points) < need:
        raise ValidationError(
            f"insufficient points: {len(points)} given, {need} needed for "
            f"{intercept_mode} intercept")
    if periods_per_year <= 0:
        raise ValidationError("periods_per_year must be positive")
    if bootstrap < 0 or bootstrap_seed < 0:
        raise ValidationError("bootstrap settings must be nonnegative")
    x = _risk_coordinate(points, risk_axis)
    y = np.array([p.mean_return for p in points]) - r_f_per_period
    if _one_value(x):
        raise DegenerateError(
            f"degenerate fit: all {len(points)} points share one "
            f"sigma_{risk_axis} value")
    slope, stderr, r2, intercept = _fit_slope(x, y, intercept_mode)
    stderr_boot = None
    if bootstrap > 0:
        rng = np.random.default_rng(bootstrap_seed)
        slopes = []
        for _ in range(bootstrap):
            idx = rng.integers(0, x.size, x.size)
            xb, yb = x[idx], y[idx]
            if _one_value(xb):
                continue
            slopes.append(_fit_slope(xb, yb, intercept_mode)[0])
        if len(slopes) < 2:
            raise DegenerateError("bootstrap degenerate: fewer than 2 "
                                  "resamples had distinct risk values")
        stderr_boot = float(np.std(slopes, ddof=1))
    return PmlFit(sr_theta=slope,
                  sr_theta_annualized=slope * float(np.sqrt(periods_per_year)),
                  stderr=stderr, r2=r2, r_f_per_period=r_f_per_period,
                  n_points=len(points),
                  n_clamped=sum(1 for p in points if p.clamped),
                  intercept_mode=intercept_mode, risk_axis=risk_axis,
                  fitted_intercept=intercept, stderr_bootstrap=stderr_boot)


def trend_tau(values: Sequence[float]) -> float:
    """Kendall's tau-b of a series against time; NaN entries are skipped.

    Time has no ties, so tau-b = S / sqrt(tot) / sqrt(tot - ytie), with S
    the concordant minus discordant pairs, tot = n(n-1)/2 and ytie the
    pairs of equal values, all counted in integers. That is the float
    expression of `scipy.stats.kendalltau`, clamped to [-1, 1] as there,
    so the result is scipy's bit for bit without importing scipy.stats.
    Raises DegenerateError when fewer than 2 values are finite or all of
    them are equal (scipy would give NaN).
    """
    v = np.asarray(values, dtype=np.float64)
    v = v[np.isfinite(v)]
    n = v.size
    if n < 2:
        raise DegenerateError("trend needs at least 2 finite values")
    s = 0
    for i in range(n - 1):
        later = v[i + 1:]
        s += int((later > v[i]).sum()) - int((later < v[i]).sum())
    counts = np.unique(v, return_counts=True)[1]
    ytie = sum(c * (c - 1) // 2 for c in counts.tolist())
    tot = n * (n - 1) // 2
    if ytie == tot:
        raise DegenerateError(f"trend undefined: all {n} finite values are equal")
    tau = s / np.sqrt(tot) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


@dataclass(frozen=True)
class RollingPmlResult:
    window_starts: np.ndarray
    sr_theta_series: np.ndarray
    sr_observed_series: np.ndarray
    gap_series: np.ndarray

    def __post_init__(self) -> None:
        sizes = {a.size for a in (self.window_starts, self.sr_theta_series,
                                  self.sr_observed_series, self.gap_series)}
        if len(sizes) != 1:
            raise ValidationError("rolling series must have equal lengths")
        if self.window_starts.size > 1 and np.diff(self.window_starts).min() <= 0:
            raise ValidationError("window starts must increase")
        for a in (self.window_starts, self.sr_theta_series,
                  self.sr_observed_series, self.gap_series):
            a.setflags(write=False)

    def __len__(self) -> int:
        return int(self.window_starts.size)


def rolling_train_len(window: int, step: int, train_frac: float,
                      train_window: int, n_ticks: Optional[int] = None) -> int:
    """Check a rolling refit's geometry against the net's input window and,
    when known, the series length; returns each window's training ticks."""
    if not 0.0 < train_frac < 1.0:
        raise ValidationError("train_frac must lie in (0, 1)")
    if step < 1:
        raise ValidationError("step must be at least 1")
    if n_ticks is not None and window > n_ticks:
        raise ValidationError(
            f"window {window} exceeds series length {n_ticks}")
    train_len = int(window * train_frac)
    if train_len < train_window + 2:
        raise ValidationError(
            f"window too short for training: {train_len} leading ticks, "
            f"need at least {train_window + 2}")
    if window - train_len < 3:
        raise ValidationError("window too short for evaluation")
    return train_len


def rolling_pml(series: TickSeries, train_spec: TrainSpec,
                sweep_spec: SweepSpec, window: int, step: int,
                r_f_per_period: float = DEFAULT_RF_PER_PERIOD,
                train_frac: float = 0.5,
                intercept_mode: str = INTERCEPT_FIXED,
                risk_axis: str = AXIS_PRICED) -> RollingPmlResult:
    """Refit predictor and market line on sliding windows.

    Each window is split into a leading training slice (train_frac of the
    ticks) and a trailing evaluation slice that receives the sweep. The
    observed Sharpe tracks the first drawn sweep config. Windows whose
    training diverges, whose base or variant forecast is not finite, or
    whose sweep cannot support a fit (all points on one risk value, or a
    strategy that never trades), record NaN rather than aborting the run;
    no window changes another's numbers.

    Every window trains with one spec (so one seed) on train_len ticks, so
    every window draws the same dropout keep masks: they are drawn once,
    one bit per draw, and replayed in each window's training. The packed
    stream takes epochs * rows * sum(hidden) / 8 bytes, and training's own
    four float64 arrays per hidden layer take 4 * 8 * rows * sum(hidden);
    the stream is held only while it is no larger, that is while epochs
    <= 256, and above that each window draws its own.

    Each window is trained and its sweep prepared (`prepare_sweep`) in
    order of start. Then the variant columns of all windows go through one
    `run_backtest_columns` call, each column starting at its window's
    evaluation slice of `series`; the engine runs them in block-sized
    passes and keeps only their lean state. A window whose variant
    forecast turns out non-finite during the call fills its remaining
    columns with NaN rows, which never trade. Last, each window's sweep
    is finished (`finish_sweep`) and fitted.
    """
    n = len(series)
    train_len = rolling_train_len(window, step, train_frac, train_spec.window,
                                  n_ticks=n)
    starts = list(range(0, n - window + 1, step))
    masks = None
    if train_spec.dropout_p > 0 and train_spec.epochs <= 4 * 8 * 8:
        masks = draw_masks(train_spec, train_len - train_spec.window - 1)

    prepared: List[Optional[PreparedSweep]] = []
    for start in starts:
        chunk = series.window(start, start + window)
        try:
            predictor = train(chunk.window(0, train_len), train_spec,
                              masks=masks)
            prepared.append(prepare_sweep(chunk.window(train_len, window),
                                          predictor, sweep_spec))
        except DegenerateError:
            prepared.append(None)

    failed = set()

    def rows():
        for w, prep in enumerate(prepared):
            if prep is None:
                continue
            made = 0
            try:
                for row in prep.rows:
                    yield row
                    made += 1
            except DegenerateError:
                failed.add(w)
                yield from repeat(np.full(window - train_len, np.nan),
                                  len(prep.columns) - made)

    columns = [(start + train_len, cfg)
               for start, prep in zip(starts, prepared) if prep is not None
               for cfg in prep.columns]
    returns = None
    if columns:
        returns = run_backtest_columns(
            series, rows(), [cfg for _, cfg in columns],
            starts=[lo for lo, _ in columns], length=window - train_len)

    sr_theta = np.full(len(starts), np.nan)
    sr_obs = np.full(len(starts), np.nan)
    lo = 0
    for w, prep in enumerate(prepared):
        if prep is None:
            continue
        part = returns[lo:lo + len(prep.columns)] if prep.columns else None
        lo += len(prep.columns)
        if w in failed:
            continue
        triples = finish_sweep(prep, part)
        try:
            fit = fit_pml(sweep_points(triples),
                          r_f_per_period=r_f_per_period,
                          intercept_mode=intercept_mode, risk_axis=risk_axis)
        except DegenerateError:
            continue
        observed = sharpe(triples[0][1], r_f_per_period)
        sr_theta[w] = fit.sr_theta
        sr_obs[w] = np.nan if observed is None else observed
    return RollingPmlResult(window_starts=np.array(starts, dtype=np.int64),
                            sr_theta_series=sr_theta,
                            sr_observed_series=sr_obs,
                            gap_series=sr_theta - sr_obs)


def points_to_csv(points: Sequence[RiskReturnPoint]) -> str:
    """Canonical CSV, 12 significant digits, LF line endings."""
    out = io.StringIO()
    out.write(POINTS_CSV_HEADER + "\n")
    for p in points:
        out.write(f"{p.config_id},{p.mean_return:.12g},{p.sigma_total:.12g},"
                  f"{p.sigma_mc:.12g},{p.sigma_priced:.12g},"
                  f"{'true' if p.clamped else 'false'}\n")
    return out.getvalue()


def load_points_csv(path: Union[str, Path]) -> List[RiskReturnPoint]:
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or [c.strip() for c in rows[0]] != POINTS_CSV_HEADER.split(","):
        raise ValidationError("malformed points header")
    points = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 6 or row[5].strip() not in ("true", "false"):
            raise ValidationError(f"malformed points row at line {lineno}")
        try:
            points.append(RiskReturnPoint(
                config_id=row[0].strip(),
                mean_return=float(row[1]), sigma_total=float(row[2]),
                sigma_mc=float(row[3]), sigma_priced=float(row[4]),
                clamped=row[5].strip() == "true"))
        except ValueError:
            raise ValidationError(
                f"malformed points row at line {lineno}") from None
    return points
