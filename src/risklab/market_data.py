"""Best bid/offer tick data: CSV store, resampling, synthetic generation.

A tick series is the unit every other module consumes. Internally quotes are
held as numpy arrays (int64 nanosecond timestamps, float64 bid/ask) so that
signal computation and backtests stay vectorized; `BboTick` objects are
materialized on demand.

The CSV format is fixed: UTF-8, "\n" line endings, header `ts_ns,bid,ask`,
prices written with up to 10 fractional digits (trailing zeros trimmed,
at least one decimal kept). `write_csv(load_csv(f))` reproduces a
canonically formatted file byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import ValidationError

CSV_HEADER = "ts_ns,bid,ask"

# Synthetic series start one step after the epoch and open at this mid.
INITIAL_MID = 100.0


@dataclass(frozen=True)
class BboTick:
    """One top-of-book observation. `ts` is integer nanoseconds."""

    ts: int
    bid: float
    ask: float

    @property
    def mid(self) -> float:
        return (self.bid + self.ask) / 2.0


def mid(tick: BboTick) -> float:
    """Mid price of a quote, (bid + ask) / 2."""
    return (tick.bid + tick.ask) / 2.0


@dataclass(frozen=True)
class TickSeries:
    """An ordered best bid/offer series for one symbol.

    `resolution_ns` is the tick spacing for regular series; for irregular
    raw data it records the smallest observed gap. Arrays are read-only.
    """

    symbol: str
    resolution_ns: int
    ts: np.ndarray
    bid: np.ndarray
    ask: np.ndarray

    def __post_init__(self) -> None:
        ts = np.ascontiguousarray(self.ts, dtype=np.int64)
        bid = np.ascontiguousarray(self.bid, dtype=np.float64)
        ask = np.ascontiguousarray(self.ask, dtype=np.float64)
        if ts.ndim != 1 or ts.shape != bid.shape or ts.shape != ask.shape:
            raise ValidationError("ts, bid, ask must be 1-d arrays of equal length")
        if ts.size == 0:
            raise ValidationError("tick series must contain at least one tick")
        if self.resolution_ns <= 0:
            raise ValidationError("resolution_ns must be positive")
        if not (ts[1:] > ts[:-1]).all():  # np.diff would wrap at int64's ends
            raise ValidationError("timestamps must be strictly increasing")
        if not np.isfinite(bid).all() or not np.isfinite(ask).all():
            raise ValidationError("quotes must be finite")
        if (bid <= 0).any():
            raise ValidationError("bids must be positive")
        if (ask < bid).any():
            raise ValidationError("crossed quote: ask below bid")
        for name, arr in (("ts", ts), ("bid", bid), ("ask", ask)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.ts.size)

    @property
    def mid(self) -> np.ndarray:
        return (self.bid + self.ask) / 2.0

    def is_regular(self) -> bool:
        """True when consecutive timestamps all differ by resolution_ns."""
        if len(self) < 2:
            return True
        return bool((np.diff(self.ts) == self.resolution_ns).all())

    def tick(self, i: int) -> BboTick:
        return BboTick(int(self.ts[i]), float(self.bid[i]), float(self.ask[i]))

    def ticks(self) -> List[BboTick]:
        return [self.tick(i) for i in range(len(self))]

    def window(self, start: int, stop: int) -> "TickSeries":
        """Sub-series over tick indices [start, stop)."""
        if not 0 <= start < stop <= len(self):
            raise ValidationError(f"bad window [{start}, {stop}) for {len(self)} ticks")
        return TickSeries(self.symbol, self.resolution_ns,
                          self.ts[start:stop], self.bid[start:stop],
                          self.ask[start:stop])


def _infer_resolution(ts: np.ndarray) -> int:
    if ts.size < 2:
        return 1
    return int(np.diff(ts).min())


def format_price(x: float) -> str:
    """Canonical price text: up to 10 fractional digits, zeros trimmed."""
    s = f"{x:.10f}".rstrip("0")
    if s.endswith("."):
        s += "0"
    return s


_ROW_DTYPE = np.dtype([("ts", "i8"), ("bid", "f8"), ("ask", "f8")])
_TS_MIN, _TS_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def load_csv(path: Union[str, Path], symbol: Optional[str] = None) -> TickSeries:
    """Load a tick series, validating every row.

    Errors carry 1-based line numbers (the header is line 1): malformed
    rows, nonpositive or crossed quotes, and non-monotone timestamps are
    all rejected, as is a file with no data rows.

    The body is parsed in bulk by `np.loadtxt`, and `TickSeries` checks the
    columns as arrays. Whenever the parse or a check fails, the per-row
    scan `_scan_rows` decides instead: it is the reference, so it returns
    the same series or raises the same line-numbered error. Both read the
    file in text mode, so CRLF and lone CR line ends count as newlines.
    """
    path = Path(path)
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    if header != CSV_HEADER:
        raise ValidationError(f"{path.name}: malformed header, expected '{CSV_HEADER}'")
    if not body:
        raise ValidationError(f"{path.name}: empty file, no data rows")
    symbol = symbol if symbol is not None else path.stem
    rows = _parse_bulk(path, body)
    if rows is not None:
        try:
            return TickSeries(symbol, _infer_resolution(rows["ts"]),
                              rows["ts"], rows["bid"], rows["ask"])
        except ValidationError:
            pass  # the scan names the first bad line
    ts, bid, ask = _scan_rows(path, body)
    return TickSeries(symbol, _infer_resolution(ts), ts, bid, ask)


def _parse_bulk(path: Path, body: str) -> Optional[np.ndarray]:
    """The body's rows, or None when loadtxt cannot parse one per line."""
    if body.isspace():  # no row at all; loadtxt would only warn
        return None
    # A fresh handle, not the text in memory: fed io.StringIO(body) loadtxt
    # took longer and about 35 MB more peak memory on 250k ticks. Not the
    # path either: numpy would then pick a decompressor by file suffix.
    try:
        with open(path, encoding="utf-8") as fh:
            rows = np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",",
                              comments=None, skiprows=1, ndmin=1)
    except ValueError:
        return None
    # loadtxt skips blank lines, which the scan rejects
    if rows.size != body.count("\n") + (not body.endswith("\n")):
        return None
    return rows


def _scan_rows(path: Path, body: str) -> Tuple[np.ndarray, ...]:
    """Parse and check the body row by row; errors name the first bad line."""
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    n = len(lines)
    ts = np.empty(n, dtype=np.int64)
    bid = np.empty(n, dtype=np.float64)
    ask = np.empty(n, dtype=np.float64)
    prev_ts = None
    for i, line in enumerate(lines):
        lineno = i + 2
        parts = line.split(",")
        if len(parts) != 3:
            raise ValidationError(f"{path.name}: malformed row at line {lineno}")
        try:
            t = int(parts[0])
            b = float(parts[1])
            a = float(parts[2])
        except ValueError:
            raise ValidationError(f"{path.name}: malformed row at line {lineno}") from None
        if not (_TS_MIN <= t <= _TS_MAX and math.isfinite(b) and math.isfinite(a)):
            raise ValidationError(f"{path.name}: malformed row at line {lineno}")
        if b <= 0.0:
            raise ValidationError(f"{path.name}: nonpositive quote at line {lineno}")
        if a < b:
            raise ValidationError(f"{path.name}: crossed quote at line {lineno}")
        if prev_ts is not None and t <= prev_ts:
            raise ValidationError(f"{path.name}: non-monotone timestamp at line {lineno}")
        ts[i], bid[i], ask[i] = t, b, a
        prev_ts = t
    return ts, bid, ask


def write_csv(series: TickSeries, path: Union[str, Path]) -> None:
    """Write the canonical CSV form (prices beyond 10 fractional digits round)."""
    rows = [CSV_HEADER]
    for i in range(len(series)):
        rows.append(f"{int(series.ts[i])},{format_price(float(series.bid[i]))},"
                    f"{format_price(float(series.ask[i]))}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def resample(series: TickSeries, target_ns: int) -> TickSeries:
    """Downsample to a regular grid by last-observation-carried-forward.

    One output tick per target bucket, stamped at the bucket's right edge
    (a multiple of target_ns) and carrying the last quote at or before that
    edge. Buckets that close before the first observation are omitted.
    Resampling an already-aligned series at its own resolution is the
    identity, and resampling is idempotent.
    """
    if target_ns <= 0:
        raise ValidationError("target_ns must be positive")
    if target_ns < series.resolution_ns:
        raise ValidationError(
            f"target {target_ns}ns is smaller than source resolution "
            f"{series.resolution_ns}ns")
    if series.is_regular() and target_ns % series.resolution_ns != 0:
        raise ValidationError(
            f"target {target_ns}ns is not a multiple of source resolution "
            f"{series.resolution_ns}ns")
    first = int(series.ts[0])
    last = int(series.ts[-1])
    first_edge = -(-first // target_ns) * target_ns
    last_edge = -(-last // target_ns) * target_ns
    edges = np.arange(first_edge, last_edge + 1, target_ns, dtype=np.int64)
    idx = np.searchsorted(series.ts, edges, side="right") - 1
    return TickSeries(series.symbol, target_ns, edges,
                      series.bid[idx], series.ask[idx])


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the planted-signal random walk generator.

    Log mid follows m[t+1] = m[t] + s[t] + eps[t] with eps ~ N(0, sigma_noise^2)
    and a latent AR(1) signal s[t+1] = phi*s[t] + eta[t], eta ~ N(0, sig(t)^2).
    `spread_bps` is the full quoted spread in basis points of mid (half on
    each side). With `decay_to` set, the signal innovation volatility
    interpolates linearly from sigma_signal down to decay_to across the
    series, reaching decay_to exactly at the final innovation.
    """

    n_ticks: int
    dt_ns: int = 1_000_000_000
    sigma_noise: float = 5e-4
    phi: float = 0.0
    sigma_signal: float = 0.0
    spread_bps: float = 1.0
    seed: int = 0
    decay_to: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_ticks < 2:
            raise ValidationError("n_ticks must be at least 2")
        if self.dt_ns <= 0:
            raise ValidationError("dt_ns must be positive")
        if self.sigma_noise < 0:
            raise ValidationError("sigma_noise must be nonnegative")
        if not abs(self.phi) < 1:
            raise ValidationError("phi must satisfy |phi| < 1")
        if self.sigma_signal < 0:
            raise ValidationError("sigma_signal must be nonnegative")
        if self.spread_bps < 0:
            raise ValidationError("spread_bps must be nonnegative")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.decay_to is not None and self.decay_to < 0:
            raise ValidationError("decay_to must be nonnegative")


def signal_vol_schedule(spec: SyntheticSpec) -> np.ndarray:
    """Per-step signal innovation volatility, one entry per drawn innovation."""
    m = spec.n_ticks - 1
    if spec.decay_to is None:
        return np.full(m, spec.sigma_signal)
    ramp = np.arange(m) / max(m - 1, 1)
    return spec.sigma_signal + (spec.decay_to - spec.sigma_signal) * ramp


def gen_synthetic(spec: SyntheticSpec, symbol: str = "SYN") -> TickSeries:
    """Generate a seeded synthetic series; identical spec, identical bytes.

    All randomness comes from spec.seed via a local generator: noise
    innovations are drawn first, then signal innovations. Global numpy
    random state is never touched.

    The AR(1) recursion is written out in Python floats rather than taken
    from `scipy.signal.lfilter`, whose import alone took about 1 s of every
    CLI call (2-vCPU Xeon VM). Python never fuses the multiply and the
    add, so the values are lfilter's bit for bit; with phi = 0 the signal
    is eta itself.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_ticks
    eps = rng.normal(0.0, spec.sigma_noise, n - 1) if spec.sigma_noise > 0 \
        else np.zeros(n - 1)
    sched = signal_vol_schedule(spec)
    eta = rng.standard_normal(n - 1) * sched
    # s[t+1] = phi*s[t] + eta[t] with s[0] = 0
    s = np.empty(n)
    s[0] = 0.0
    if spec.phi == 0.0:
        s[1:] = eta
    else:
        phi, y, ys = spec.phi, 0.0, []
        for e in eta.tolist():
            y = e + phi * y
            ys.append(y)
        s[1:] = ys
    log_mid = math.log(INITIAL_MID) + np.concatenate(
        ([0.0], np.cumsum(s[:-1] + eps)))
    mid_px = np.exp(log_mid)
    half = spec.spread_bps * 1e-4 / 2.0
    ts = spec.dt_ns * np.arange(1, n + 1, dtype=np.int64)
    return TickSeries(symbol, int(spec.dt_ns), ts,
                      mid_px * (1.0 - half), mid_px * (1.0 + half))
