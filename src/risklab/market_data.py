"""Best bid/offer tick data: CSV store and synthetic generation.

A tick series is the unit every other module consumes. Quotes are held as
numpy arrays (int64 nanosecond timestamps, float64 bid/ask) so that signal
computation and backtests stay vectorized.

The CSV format is fixed: UTF-8, header `ts_ns,bid,ask`, then one
`ts,bid,ask` row a line. `write_csv` writes "\\n" line ends and prices
with up to 10 fractional digits (trailing zeros trimmed, at least one
decimal kept). `write_csv(load_csv(f))` reproduces a canonically formatted
file byte for byte.

`write_csv` formats fixed-size chunks of rows as arrays: each price is
rounded exactly to 10 decimals (Dekker's TwoProduct, ties to even, as
`f"{x:.10f}"` does), digits go into a byte matrix, and a mask trims the
zeros. A chunk with a negative timestamp or a price from 2**52 up is
written row by row with `format_price`, the reference.

`load_csv` parses a file in bulk from its bytes when it keeps to a strict
grammar, and hands any other file to a per-row scan, the reference.
`write_csv`'s output keeps to it while its timestamps are nonnegative and
its prices stay below 9e5: below that bound a price's digits, written with
10 decimals and read as one integer M, stay below 2**53. The bulk parse is
exact: it divides M once by a power of ten (see `load_csv`).
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, List, Optional, Tuple, Union

import numpy as np

from .errors import ValidationError

CSV_HEADER = "ts_ns,bid,ask"

# Synthetic series start one step after the epoch and open at this mid.
INITIAL_MID = 100.0


@dataclass(frozen=True)
class TickSeries:
    """An ordered best bid/offer series. Arrays are read-only."""

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
        out = np.add(self.bid, self.ask)
        out /= 2.0
        return out

    def window(self, start: int, stop: int) -> "TickSeries":
        """Sub-series over tick indices [start, stop)."""
        if not 0 <= start < stop <= len(self):
            raise ValidationError(f"bad window [{start}, {stop}) for {len(self)} ticks")
        return TickSeries(self.ts[start:stop], self.bid[start:stop],
                          self.ask[start:stop])


def format_price(x: float) -> str:
    """Canonical price text: up to 10 fractional digits, zeros trimmed."""
    s = f"{x:.10f}".rstrip("0")
    if s.endswith("."):
        s += "0"
    return s


_TS_MIN, _TS_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def load_csv(path: Union[str, Path]) -> TickSeries:
    """Load a tick series, validating every row.

    Errors carry 1-based line numbers (the header is line 1): malformed
    rows, nonpositive or crossed quotes, and non-monotone timestamps are
    all rejected, as is a file with no data rows or one that is not UTF-8.

    `_parse_bytes` reads the file in binary and parses it in bulk when it
    keeps to this grammar:
    - the header line ends in "\\n" or "\\r\\n", and so does every row but
      the last, which may have no line end;
    - a row is `digits,digits.digits,digits.digits` and nothing else: no
      signs, spaces, `_`, exponents, `nan`/`inf` text or blank lines;
    - a timestamp has at most 19 digits and is below 2**63;
    - a price has at most 19 digits, and its digits read as one integer M
      stay below 2**53.
    Such a price with k decimals is M / 10**k. M and 10**k (k <= 18) are
    exact doubles, so the one division rounds the exact value once and
    gives the double `float(text)` gives (Clinger, "How to read floating
    point numbers accurately", 1990). `TickSeries` then checks the
    columns as arrays.

    Any other file, and any file whose columns fail a check, goes to the
    per-row scan `_scan_rows`: it is the reference, so it returns the same
    series or raises the line-numbered error. The scan reads the file as
    text, so a lone "\\r" ends a line there. Only the scan holds the file's
    text in memory.

    The file is opened once, and the scan rewinds it. A pipe cannot be
    rewound, so it is read whole first and both parsers read those bytes.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        if not fh.seekable():
            fh = io.BytesIO(fh.read())
        columns = _parse_bytes(fh)
        if columns is not None:
            try:
                return TickSeries(*columns)
            except ValidationError:
                pass  # the scan names the first bad line
        fh.seek(0)
        return TickSeries(*_scan_rows(path, _read_body(path, fh)))


def _read_body(path: Path, fh: BinaryIO) -> str:
    """The text after a valid header line of the file `fh` reads from its
    start, which must hold some text; `path` names the file in errors."""
    text = io.TextIOWrapper(fh, encoding="utf-8")
    try:
        # a long first line is rejected without being read whole
        if text.readline(len(CSV_HEADER) + 1).removesuffix("\n") != CSV_HEADER:
            raise ValidationError(
                f"{path.name}: malformed header, expected '{CSV_HEADER}'")
        body = text.read()
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path.name}: not UTF-8 text ({e.reason})") from None
    if not body:
        raise ValidationError(f"{path.name}: empty file, no data rows")
    return body


_HEADER_LINES = (f"{CSV_HEADER}\n".encode("ascii"),
                 f"{CSV_HEADER}\r\n".encode("ascii"))
# Bytes per read; each read is parsed up to its last newline. On 250k
# ticks 256 and 512 KiB parsed fastest: 64 KiB makes more numpy calls, and
# from 1 MiB on the block's arrays fall out of cache.
_READ_BYTES = 1 << 18
# digits per number read as an integer: 10**19 < 2**64, so each is exact
# in uint64
_MAX_DIGITS = 19
# the longest row the parser takes: a timestamp, two prices with their
# comma and point, and "\r\n"
_MAX_ROW_BYTES = _MAX_DIGITS + 2 * (2 + _MAX_DIGITS) + 2
_LANE_BYTES = 8
_ZERO, _COMMA, _POINT, _NEWLINE, _CR = b"0,.\n\r"
# the bytes other than digits in a row, once a CR is set aside
_ROW_BYTES = np.array([_COMMA, _POINT, _COMMA, _POINT, _NEWLINE], dtype=np.uint8)
_LANES = -(-_MAX_DIGITS // _LANE_BYTES)
# _LANE_MASKS[j, w] keeps the low nibbles of the bytes that lane j (the
# digits 8j+1 to 8j+8 from the right) holds of a w-digit number
_LANE_MASKS = np.array(
    [[(2**64 - 2**(8 * (8 - min(max(w - 8 * j, 0), 8)))) & 0x0F0F0F0F0F0F0F0F
      for w in range(_MAX_DIGITS + 1)] for j in range(_LANES)],
    dtype=np.uint64)
# leading ASCII zeros: the lanes of the first field read inside the block
_PAD = b"0" * (_LANES * _LANE_BYTES)
_POW10 = np.array([10**k for k in range(_MAX_DIGITS + 1)], dtype=np.uint64)
_POW10_F = np.array([float(10**k) for k in range(_MAX_DIGITS + 1)])
_MANTISSA_LIMIT = 2**53
_INT64_MAX = np.uint64(_TS_MAX)


def _parse_bytes(fh: BinaryIO) -> Optional[Tuple[np.ndarray, ...]]:
    """ts, bid, ask of the file `fh` reads, from its start, in `load_csv`'s
    bulk grammar, else None: one field outside it, such as a signed
    timestamp or a price past 19 digits or 2**53, sends the whole file to
    the scan.

    The file is read `_READ_BYTES` at a time; each read is parsed by
    `_parse_block` up to its last newline into the columns, so memory holds
    a block and the columns. When a block's rows do not fit, the columns
    grow to hold them and the rows the unread bytes should hold at the
    density read so far, and every growth adds at least a quarter. The
    columns are shrunk in place to the rows read at the end.
    """
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    head = fh.read(len(_HEADER_LINES[1]))
    header = next((h for h in _HEADER_LINES if head.startswith(h)), None)
    if header is None:
        return None
    columns = [np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64),
               np.empty(0, dtype=np.float64)]
    n, rest, done = 0, head[len(header):], len(header)

    def reserve(rows: int) -> List[np.ndarray]:
        need = n + rows
        if need > columns[0].size:
            cap = max(need + need * max(size - done, 0) // done,
                      columns[0].size * 5 // 4)
            for column in columns:
                column.resize(cap, refcheck=False)
        return [column[n:need] for column in columns]

    while True:
        block = fh.read(_READ_BYTES)
        if block:
            data = b"".join((_PAD, rest, block))
            cut = data.rfind(b"\n", len(_PAD)) + 1
            if cut == 0:  # a row longer than a read
                rest = data[len(_PAD):]
                if len(rest) > _MAX_ROW_BYTES:
                    return None
                continue
        elif rest:  # the last row has no newline
            data = b"".join((_PAD, rest, b"\n"))
            cut = len(data)
        else:
            break
        done += cut - len(_PAD)
        rows = _parse_block(data, cut, reserve)
        if rows is None:
            return None
        n += rows
        rest = data[cut:]
    if n == 0:
        return None
    for column in columns:
        column.resize(n, refcheck=False)  # no view of a column is left
    return tuple(columns)


def _parse_block(data: bytes, cut: int,
                 reserve: Callable[[int], List[np.ndarray]]) -> Optional[int]:
    """Parse the rows in data[len(_PAD):cut] into the ts, bid and ask
    arrays of that many rows that `reserve(rows)` returns.

    Every field is an unsigned digit string read as an exact integer.
    Returns the number of rows, or None unless every row is in the bulk
    grammar. data[cut - 1] is a newline.
    """
    buf = np.frombuffer(data, dtype=np.uint8, count=cut)
    # every byte but a digit; uint8 wraps the bytes below "0" past 9
    pos = np.flatnonzero(buf - np.uint8(_ZERO) > 9)
    kind = buf[pos]
    # a CR precedes a newline, or the row is not ours
    cr = kind == _CR
    n_cr = int(np.count_nonzero(cr))
    if n_cr:
        pos, kind = pos[~cr], kind[~cr]
    if kind.size % _ROW_BYTES.size or \
            not (kind.reshape(-1, _ROW_BYTES.size) == _ROW_BYTES).all():
        return None
    comma1, dot1, comma2, dot2, newline = pos.reshape(-1, _ROW_BYTES.size).T
    rows = newline.size
    ts, bid, ask = reserve(rows)
    lo = np.empty(rows, dtype=np.intp)
    lo[0] = len(_PAD)
    lo[1:] = newline[:-1] + 1
    hi = newline
    if n_cr:
        cr = buf[hi - 1] == _CR
        if np.count_nonzero(cr) != n_cr:
            return None
        hi = hi - cr
    # lane i holds data[i:i + 8] as a little-endian integer
    lanes = np.ndarray((cut - _LANE_BYTES + 1,), dtype="<u8", buffer=data,
                       strides=(1,))
    width = comma1 - lo
    if width.min() < 1 or width.max() > _MAX_DIGITS:
        return None
    value = _digits(lanes, comma1, width)
    if (value > _INT64_MAX).any():
        return None
    ts[:] = value.view(np.int64)
    if not (_prices(lanes, comma1, dot1, comma2, bid)
            and _prices(lanes, comma2, dot2, hi, ask)):
        return None
    return rows


def _digits(lanes: np.ndarray, end: np.ndarray,
            width: np.ndarray) -> np.ndarray:
    """Value of the `width` (1 to 19) ASCII digits before each byte `end`.

    Eight digits at a time: a lane right-aligned on the digits is masked to
    them and folded with Lemire's three multiply-shift (SWAR) steps
    ("Number parsing at a gigabyte per second", 2021); wrapping uint64
    products are exact in the bits kept.
    """
    value = None
    for j in range(-(-int(width.max()) // _LANE_BYTES)):
        x = lanes[end - _LANE_BYTES * (j + 1)]
        x &= _LANE_MASKS[j, width]
        x *= 10 * 2**8 + 1
        x >>= 8
        x &= np.uint64(0x00FF00FF00FF00FF)
        x *= 100 * 2**16 + 1
        x >>= 16
        x &= np.uint64(0x0000FFFF0000FFFF)
        x *= 10000 * 2**32 + 1
        x >>= 32
        if value is None:
            value = x
        else:
            x *= _POW10[_LANE_BYTES * j]
            value += x
    return value


def _prices(lanes: np.ndarray, comma: np.ndarray, dot: np.ndarray,
            end: np.ndarray, out: np.ndarray) -> bool:
    """Write the prices `digits.digits` between each comma and end to `out`,
    each M / 10**k as `load_csv` says.

    False, leaving `out` partly written, when a field is empty, has more
    than 19 digits, or has M from 2**53 up.
    """
    n_int = dot - comma - 1
    n_frac = end - dot - 1
    if min(n_int.min(), n_frac.min()) < 1 or \
            (n_int + n_frac).max() > _MAX_DIGITS:
        return False
    m = _digits(lanes, dot, n_int)
    m *= _POW10[n_frac]
    m += _digits(lanes, end, n_frac)
    if m.max() >= _MANTISSA_LIMIT:
        return False
    np.divide(m, _POW10_F[n_frac], out=out)
    return True


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


# Rows per formatted chunk: the writer's memory is bounded by the chunk, not
# the series (writing a million rows raised peak RSS by 2.6 MB). tape_edge's
# peak fell from 110 to 86 MB on its 250k ticks, with 64k-row chunks too.
_CHUNK_ROWS = 1 << 14
# Below 2**52 a price's integer part and its carry ip + 1 are exact in
# float64; from 2**52 up every price is an integer of up to 309 digits, and
# a chunk holding one is written by format_price.
_BULK_PRICE_LIMIT = 2.0 ** 52
_FRAC_DIGITS = 10
_FRAC_SCALE = 1e10
# Veltkamp's constant 2**27 + 1 splits a double into two 26-bit halves.
_SPLITTER = 134217729.0


def write_csv(series: TickSeries, path: Union[str, Path]) -> None:
    """Write the canonical CSV form (prices beyond 10 fractional digits round).

    Each row is the text `f"{ts},{format_price(bid)},{format_price(ask)}"`,
    byte for byte. Rows are written `_CHUNK_ROWS` at a time, so memory stays
    bounded by the chunk. `_format_rows` formats a chunk as arrays when its
    timestamps are nonnegative and its prices below 2**52; any other chunk
    is written as that text one row at a time.
    """
    ts, bid, ask = series.ts, series.bid, series.ask
    with open(path, "wb") as fh:
        fh.write(f"{CSV_HEADER}\n".encode("ascii"))
        for start in range(0, len(series), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            # timestamps increase and ask >= bid, so the first timestamp and
            # the largest ask decide the chunk
            if ts[start] >= 0 and ask[rows].max() < _BULK_PRICE_LIMIT:
                fh.write(_format_rows(ts[rows], bid[rows], ask[rows]))
            else:
                fh.writelines(
                    f"{t},{format_price(b)},{format_price(a)}\n".encode("ascii")
                    for t, b, a in zip(ts[rows].tolist(), bid[rows].tolist(),
                                       ask[rows].tolist()))


def _fixed10(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Integer part and 10-digit rounded fraction of each 0 < x < 2**52.

    `ip + q / 1e10` is x correctly rounded to 10 fractional digits, ties to
    even, as `f"{x:.10f}"` rounds. floor and x - floor(x) are exact, and
    Dekker's TwoProduct ("A floating-point technique for extending the
    available precision", 1971) gives f * 1e10 = p + e exactly. 1e10 =
    2**10 * 9765625 has 24 significant bits, so it is its own high half and
    both partial products with the halves of f are exact.
    """
    ip = np.floor(x)
    f = x - ip
    p = f * _FRAC_SCALE
    c = _SPLITTER * f
    f_hi = c - (c - f)
    e = (f_hi * _FRAC_SCALE - p) + (f - f_hi) * _FRAC_SCALE
    r = np.rint(p)
    d = p - r  # exact, and |d| <= 0.5
    # rint already sent an exact tie (|d| == 0.5, e == 0) to the even
    # neighbour; a nonzero e decides a p that only rounded onto a tie
    q = r + ((d == 0.5) & (e > 0)) - ((d == -0.5) & (e < 0))
    carry = q == _FRAC_SCALE
    ip += carry
    q[carry] = 0.0
    return ip.astype(np.uint64), q.astype(np.uint64)


def _width(v: np.ndarray) -> int:
    """Decimal digits of the largest value in `v`."""
    return len(str(int(v.max())))


def _put_digits(mat: np.ndarray, keep: np.ndarray, col: int, width: int,
                v: np.ndarray, fraction: bool) -> None:
    """Write the low `width` decimal digits of `v` as ASCII at mat[:, col:]
    and mark in `keep` the digits the text keeps: for an integer all but
    leading zeros, for a fraction all but trailing zeros, and at least one."""
    ten = np.uint64(10)
    seen = np.zeros(v.shape, dtype=bool)
    for j in range(col + width - 1, col - 1, -1):
        rest = v // ten  # np.divmod by a scalar took about 5x as long
        digit = v - rest * ten
        if fraction:
            seen |= digit != 0
            keep[:, j] = seen
        else:
            keep[:, j] = v != 0
        mat[:, j] = digit
        v = rest
    keep[:, col if fraction else col + width - 1] = True
    mat[:, col:col + width] += _ZERO


def _format_rows(ts: np.ndarray, bid: np.ndarray, ask: np.ndarray) -> bytes:
    """CSV rows for timestamps from 0 and prices below 2**52, as one matrix.

    Each row is laid out at a fixed width: the timestamp and each price's
    integer part and 10 fractional digits, every integer field as wide as
    its largest value in the chunk. A keep mask drops leading zeros of
    integers and trailing zeros of fractions; the kept bytes are the text.
    """
    mag = ts.view(np.uint64)
    bid_ip, bid_q = _fixed10(bid)
    ask_ip, ask_q = _fixed10(ask)
    # (digits, width, is a fraction, the byte after it)
    fields = ((mag, _width(mag), False, _COMMA),
              (bid_ip, _width(bid_ip), False, _POINT),
              (bid_q, _FRAC_DIGITS, True, _COMMA),
              (ask_ip, _width(ask_ip), False, _POINT),
              (ask_q, _FRAC_DIGITS, True, _NEWLINE))
    shape = (ts.size, sum(width + 1 for _, width, _, _ in fields))
    # column-major, so each digit column is written contiguously
    mat = np.empty(shape, dtype=np.uint8, order="F")
    keep = np.ones(shape, dtype=bool, order="F")
    col = 0
    for v, width, fraction, after in fields:
        _put_digits(mat, keep, col, width, v, fraction)
        col += width
        mat[:, col] = after
        col += 1
    return mat[keep].tobytes()


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
        for name in ("sigma_noise", "phi", "sigma_signal", "spread_bps",
                     "decay_to"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
        if self.n_ticks < 2:
            raise ValidationError("n_ticks must be at least 2")
        if self.dt_ns <= 0:
            raise ValidationError("dt_ns must be positive")
        if int(self.dt_ns) * int(self.n_ticks) > _TS_MAX:  # the last tick's ts
            raise ValidationError(
                f"dt_ns * n_ticks must be at most {_TS_MAX}, int64's maximum")
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
    # sigma + (decay_to - sigma) * i / (m - 1), built in one row
    ramp = np.arange(m, dtype=np.float64)
    ramp /= max(m - 1, 1)
    ramp *= spec.decay_to - spec.sigma_signal
    ramp += spec.sigma_signal
    return ramp


# Innovations per step of the AR(1) loop: each step holds its values as
# Python floats, about 0.5 MB, rather than two lists of the whole series.
_AR_CHUNK = 1 << 14


def gen_synthetic(spec: SyntheticSpec) -> TickSeries:
    """Generate a seeded synthetic series; identical spec, identical bytes.

    All randomness comes from spec.seed via a local generator: noise
    innovations are drawn first, then signal innovations. Global numpy
    random state is never touched.

    The AR(1) recursion is written out in Python floats rather than taken
    from `scipy.signal.lfilter`, whose import alone took about 1 s of every
    CLI call (2-vCPU Xeon VM). Python never fuses the multiply and the
    add, so the values are lfilter's bit for bit; with phi = 0 the signal
    is eta itself.

    Each step writes into a row it already holds: the noise row takes the
    lagged signal, its running sum goes into the log-mid row, and that row
    becomes the mid. At most three full-length rows are alive at once,
    the returned series' own three included.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_ticks
    # inc[t] = s[t] + eps[t], the log-mid step from tick t to t + 1
    inc = rng.normal(0.0, spec.sigma_noise, n - 1) if spec.sigma_noise > 0 \
        else np.zeros(n - 1)
    # eta, then in place the signal s[t+1] = phi*s[t] + eta[t], s[0] = 0
    sig = rng.standard_normal(n - 1)
    if spec.decay_to is None:
        sig *= spec.sigma_signal
    else:
        sig *= signal_vol_schedule(spec)
    if spec.phi != 0.0:
        phi, y = spec.phi, 0.0
        for lo in range(0, n - 1, _AR_CHUNK):
            ys = []
            for e in sig[lo:lo + _AR_CHUNK].tolist():
                y = e + phi * y
                ys.append(y)
            sig[lo:lo + _AR_CHUNK] = ys
    inc[1:] += sig[:-1]
    del sig
    mid_px = np.empty(n)
    mid_px[0] = 0.0
    np.cumsum(inc, out=mid_px[1:])
    del inc
    mid_px += math.log(INITIAL_MID)
    np.exp(mid_px, out=mid_px)
    half = spec.spread_bps * 1e-4 / 2.0
    ts = np.arange(1, n + 1, dtype=np.int64)
    ts *= spec.dt_ns
    bid = mid_px * (1.0 - half)
    return TickSeries(ts, bid, np.multiply(mid_px, 1.0 + half, out=mid_px))
