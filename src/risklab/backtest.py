"""Tick-level strategy engine driven by a predictor's surprise signal.

Execution rules, pinned by the hand-walked scenarios in the tests:

  - at tick t with no open position, surprise > threshold opens a long and
    surprise < -threshold (with shorting allowed) opens a short, filled at
    tick t+1's ask respectively bid; entries only trigger while at least
    two ticks remain, so every entry fill strictly precedes its exit fill
  - a position is open from its fill tick; at each tick the mid-based P&L
    against the entry fill is checked for take-profit then stop-loss, then
    the signal for a sign flip (NaN or zero surprise never flips); a
    trigger at tick t fills at t+1, longs exiting at bid, shorts at ask
  - whatever is open at the final tick is closed there (end_of_data)
  - each fill pays fee_bps * 1e-4 of notional; with a unit bet per trade,
    a long returns exit/entry - 1 - 2*fee and a short entry/exit - 1 - 2*fee
  - a trade belongs to the period containing its exit fill; period returns
    are the sums of trade returns closed in each period, zero elsewhere

Two paths run these rules on precomputed surprise arrays, so tests can
script signals directly:

  - `run_backtest_signals` runs one surprise array. Every candidate entry
    (a signal at or before tick n-3) gets its exit within the first
    EXIT_BLOCK ticks after its fill in one vectorized table, a chunk of
    candidates at a time. The chase then follows the trades actually
    taken: the next entry after an exit at tick e is the first candidate
    at or after e (`np.searchsorted`), and only a taken trade whose hold
    outlasts the first block is scanned further, in blocks that double in
    size. The result keeps each trade's entry and exit as arrays and
    builds the `Fill` tuple only when `fills` is first read. It is the
    reference path, checked against the brute-force walk in the tests;
    `run_backtest` wires a predictor into it, and a sweep runs each
    config's base signal through it.
  - `run_backtest_columns` runs C surprise columns, one config each, in
    lockstep: every step advances each column by one trade, so the cost
    of a numpy call is shared by all open columns. Each column trades its
    own window of one series, given by its start (by default tick 0 and
    the whole series), so a rolling refit sends all its windows' columns
    through one call. As each surprise row arrives it is reduced to a lean
    state of 7 bytes a tick: its long signals and its two flip rows as
    bools and, as int32, the next tick that opens a position; the float
    row is not kept. Columns run in blocks of up to 2**19 column-ticks
    (3.7 MB of state), and trades are added to their periods a few
    thousand at a time. It returns period returns only, which is all a
    sweep's dropout variants are read for, and matches the scalar path bit
    for bit. A sweep with K = 1 has no variant columns and stays on the
    scalar path.

Both read the first EXIT_BLOCK ticks of a hold through one block scan,
`_block_scan`, and the rest through `_scan_exit`, so they compute the same
float expression. Both are linear in ticks plus trades: the table reads
EXIT_BLOCK ticks per candidate, and each tick past a first block is
scanned by at most one open position, whose scan reads at most twice its
holding time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .market_data import TickSeries
from .predictor import Predictor, surprise_series

SIDE_BUY = "BUY"
SIDE_SELL = "SELL"

REASON_ENTRY = "entry"
REASON_TAKE_PROFIT = "take_profit"
REASON_STOP_LOSS = "stop_loss"
REASON_SIGNAL_FLIP = "signal_flip"
REASON_END_OF_DATA = "end_of_data"

# exit reasons by the code a TradeLog stores
EXIT_REASONS = (REASON_TAKE_PROFIT, REASON_STOP_LOSS, REASON_SIGNAL_FLIP,
                REASON_END_OF_DATA)
_TAKE_PROFIT, _STOP_LOSS, _SIGNAL_FLIP, _END_OF_DATA = range(4)

# ticks in the first block of the exit scan; later blocks double
EXIT_BLOCK = 16
_SCAN = np.arange(EXIT_BLOCK)[:, None]

# candidates x EXIT_BLOCK per chunk of the exit table; a chunk's arrays take
# about 32 bytes an element, so a chunk peaks near 8.4 MB at any shape
_BLOCK_ELEMENTS = 1 << 18
# column-ticks per block of the column core, whose lean state takes 7 bytes
# a column-tick (3.7 MB a block), and the trades it holds before adding
# them to their periods (25 bytes a trade, 0.2 MB)
_COLUMN_TICKS = 1 << 19
_HELD_TRADES = 1 << 13


@dataclass(frozen=True)
class StrategyConfig:
    threshold_bps: float = 0.0
    stop_loss_bps: float = 50.0
    take_profit_bps: float = 50.0
    fee_bps: float = 0.0
    allow_short: bool = True
    period_ticks: int = 1

    def __post_init__(self) -> None:
        for name in ("threshold_bps", "stop_loss_bps", "take_profit_bps",
                     "fee_bps"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.threshold_bps < 0:
            raise ValidationError("threshold_bps must be nonnegative")
        if self.stop_loss_bps <= 0:
            raise ValidationError("stop_loss_bps must be positive")
        if self.take_profit_bps <= 0:
            raise ValidationError("take_profit_bps must be positive")
        if self.fee_bps < 0:
            raise ValidationError("fee_bps must be nonnegative")
        if self.period_ticks < 1:
            raise ValidationError("period_ticks must be at least 1")


class Fill(NamedTuple):
    """One execution; a named tuple because a result builds two per trade."""

    ts: int
    side: str
    price: float
    reason: str


class TradeLog(NamedTuple):
    """Every trade of a backtest as arrays, in exit order."""

    entry_ts: np.ndarray     # int64 timestamp of the entry fill
    entry_price: np.ndarray
    exit_ts: np.ndarray      # int64 timestamp of the exit fill
    exit_price: np.ndarray
    side: np.ndarray         # int8: 1 for a long, -1 for a short
    reason: np.ndarray       # uint8 index into EXIT_REASONS


@dataclass(frozen=True)
class BacktestResult:
    period_returns: np.ndarray
    mean: float
    stdev: float
    n_trades: int
    trades: TradeLog
    trade_returns: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.period_returns, self.trade_returns, *self.trades):
            arr.setflags(write=False)

    @cached_property
    def fills(self) -> Tuple[Fill, ...]:
        """Entry then exit fill of each trade, built on first read."""
        t = self.trades
        longs = (t.side > 0).tolist()
        entries = map(Fill, t.entry_ts.tolist(),
                      [SIDE_BUY if up else SIDE_SELL for up in longs],
                      t.entry_price.tolist(), repeat(REASON_ENTRY))
        exits = map(Fill, t.exit_ts.tolist(),
                    [SIDE_SELL if up else SIDE_BUY for up in longs],
                    t.exit_price.tolist(),
                    [EXIT_REASONS[r] for r in t.reason.tolist()])
        return tuple(chain.from_iterable(zip(entries, exits)))


def run_backtest(series: TickSeries, predictor: Predictor,
                 cfg: StrategyConfig) -> BacktestResult:
    return run_backtest_signals(series, surprise_series(predictor, series), cfg)


def run_backtest_signals(series: TickSeries, surprise: np.ndarray,
                         cfg: StrategyConfig) -> BacktestResult:
    """Run the engine on a precomputed surprise array (NaN = no signal)."""
    surprise = np.asarray(surprise, dtype=np.float64)
    n = len(series)
    if surprise.shape != (n,):
        raise ValidationError(
            f"surprise length {surprise.shape} does not match {n} ticks")
    bid, ask = series.bid, series.ask
    midv = series.mid
    ts = series.ts
    thr = cfg.threshold_bps * 1e-4
    tp = cfg.take_profit_bps * 1e-4
    sl = cfg.stop_loss_bps * 1e-4
    fee = cfg.fee_bps * 1e-4

    # flips[1] ends a long and flips[0] a short
    flips = np.empty((2, n), dtype=bool)
    with np.errstate(invalid="ignore"):
        long_sig = surprise > thr
        entry_sig = ((long_sig | (surprise < -thr)) if cfg.allow_short
                     else long_sig)
        np.greater(surprise, 0.0, out=flips[0])
        np.less(surprise, 0.0, out=flips[1])
    cand = np.flatnonzero(entry_sig[:n - 2])  # signals at ticks <= n-3
    is_long = long_sig[cand]
    del long_sig, entry_sig
    exit_tick = _exit_table(series, midv, flips, cand, is_long, tp, sl)

    # the chase: each exit at e hands over to the first candidate at or
    # after e (flat again as of the exit fill tick)
    nxt = np.searchsorted(cand, exit_tick)
    taken = np.zeros(cand.size, dtype=bool)
    j = 0
    while j < cand.size:
        taken[j] = True
        if exit_tick.item(j) >= 0:
            j = nxt.item(j)
            continue
        # a hold past the first block: the doubling scan
        fi = cand.item(j) + 1
        up = is_long.item(j)
        e = _scan_exit(midv, flips[int(up)], fi + EXIT_BLOCK,
                       1.0 if up else -1.0,
                       float(ask[fi] if up else bid[fi]), tp, sl)
        exit_tick[j] = e
        j = int(cand.searchsorted(e))

    taken = np.flatnonzero(taken)
    fi, ei, up = cand[taken] + 1, exit_tick[taken], is_long[taken]
    entry_px = np.where(up, ask[fi], bid[fi])
    exit_px = np.where(up, bid[ei], ask[ei])
    trade_returns = (np.where(up, exit_px / entry_px, entry_px / exit_px)
                     - 1.0 - 2.0 * fee)
    # an exit fill at e follows a trigger at e-1, or closes at the final tick
    u = ei - 1
    pnl = np.where(up, 1.0, -1.0) * (midv[u] / entry_px - 1.0)
    reason = np.select([pnl >= tp, pnl <= -sl, flips[up.astype(np.intp), u]],
                       [_TAKE_PROFIT, _STOP_LOSS, _SIGNAL_FLIP], _END_OF_DATA)
    # bincount adds each period's trade returns in exit order, from 0.0;
    # with no trade its weights are empty and it would count in integers
    n_periods = -(-n // cfg.period_ticks)
    period_returns = (np.bincount(ei // cfg.period_ticks,
                                  weights=trade_returns, minlength=n_periods)
                      if taken.size else np.zeros(n_periods))
    trades = TradeLog(entry_ts=ts[fi], entry_price=entry_px,
                      exit_ts=ts[ei], exit_price=exit_px,
                      side=np.where(up, 1, -1).astype(np.int8),
                      reason=reason.astype(np.uint8))
    return BacktestResult(period_returns=period_returns,
                          mean=float(period_returns.mean()),
                          stdev=float(period_returns.std()),
                          n_trades=int(taken.size),
                          trades=trades,
                          trade_returns=trade_returns)


def _exit_table(series: TickSeries, midv: np.ndarray, flips: np.ndarray,
                cand: np.ndarray, is_long: np.ndarray, tp: float,
                sl: float) -> np.ndarray:
    """Exit fill tick of a position opened at each candidate.

    Each position is filled at its candidate tick + 1 and its exit searched
    within the first EXIT_BLOCK ticks from there, a chunk of candidates at
    a time. A position with no trigger there gets tick -1: `_scan_exit`
    goes on from the block's end, or closes it at the final tick, only if
    the chase takes it.
    """
    n = midv.size
    exit_tick = np.empty(cand.size, dtype=np.intp)
    chunk = _BLOCK_ELEMENTS // EXIT_BLOCK
    for lo in range(0, cand.size, chunk):
        part = slice(lo, lo + chunk)
        fi, up = cand[part] + 1, is_long[part]
        entry_px = np.where(up, series.ask[fi], series.bid[fi])
        k, found = _block_scan(midv, flips.reshape(-1), n * up, fi, n - 2,
                               np.where(up, 1.0, -1.0), entry_px, tp, -sl)
        exit_tick[part] = np.where(found, fi + 1 + k, -1)
    return exit_tick


def run_backtest_columns(series: TickSeries, surprises: Iterable[np.ndarray],
                         cfgs: Sequence[StrategyConfig],
                         starts: Optional[Sequence[int]] = None,
                         length: Optional[int] = None) -> np.ndarray:
    """Period returns of surprise column c traded under cfgs[c], in lockstep.

    Column c trades the `length` ticks of `series` from tick starts[c]; by
    default every column starts at tick 0 and spans the series. Columns
    may overlap or abut. `surprises` is a (C, length) matrix or any
    iterable of C length-`length` rows; each row is read as its block
    starts and only its lean state is kept, so a generator never has more
    than one row in memory. All configs must share one period_ticks. Row c
    of the (C, n_periods) result equals `run_backtest_signals(
    series.window(starts[c], starts[c] + length), surprises[c],
    cfgs[c]).period_returns` bit for bit; no fills are built.
    """
    if not cfgs:
        raise ValidationError("no columns to backtest")
    period_ticks = cfgs[0].period_ticks
    if any(cfg.period_ticks != period_ticks for cfg in cfgs):
        raise ValidationError("all columns must share one period_ticks")
    n = len(series)
    length = n if length is None else length
    starts = np.zeros(len(cfgs), dtype=np.intp) if starts is None \
        else np.asarray(starts, dtype=np.intp)
    if length < 1 or starts.shape != (len(cfgs),) or \
            (starts.size and (starts.min() < 0 or starts.max() > n - length)):
        raise ValidationError(
            f"need one start per column, each with {length} ticks inside "
            f"the {n}-tick series")
    out = np.zeros((len(cfgs), -(-length // period_ticks)))
    rows = _checked_rows(surprises, len(cfgs), length)
    width = max(1, _COLUMN_TICKS // length)
    for lo in range(0, len(cfgs), width):
        hi = min(lo + width, len(cfgs))
        _run_block(series, rows, cfgs[lo:hi], starts[lo:hi], length,
                   out[lo:hi])
    next(rows, None)  # raises when there are rows to spare
    return out


def _checked_rows(surprises: Iterable[np.ndarray], c: int,
                  length: int) -> Iterator[np.ndarray]:
    """The c rows of `surprises` as float64, each checked to hold `length`
    ticks; asked for one more, it raises if `surprises` has one."""
    rows = iter(surprises)
    for _ in range(c):
        row = np.asarray(next(rows, None), dtype=np.float64)
        if row.shape != (length,):
            raise ValidationError(f"surprises must be {c} rows of {length} ticks")
        yield row
    if next(rows, None) is not None:
        raise ValidationError(f"surprises has more than {c} rows")


def _run_block(series: TickSeries, rows: Iterator[np.ndarray],
               cfgs: Sequence[StrategyConfig], starts: np.ndarray, n: int,
               out: np.ndarray) -> None:
    """`run_backtest_columns` on one block of columns, n ticks each, into
    the block's rows of `out`."""
    c = len(cfgs)
    thr, tp, sl, fee = (np.array([getattr(cfg, name) for cfg in cfgs]) * 1e-4
                        for name in ("threshold_bps", "take_profit_bps",
                                     "stop_loss_bps", "fee_bps"))
    # The lean state, 7 bytes a column-tick, built as each row arrives:
    # long_sig[j, t] is column j's long signal; flips row j ends a short in
    # column j and row c + j a long; next_entry[j, t] is the first tick at
    # or after t whose signal opens a position in column j, or n when none
    # is left (a reverse running minimum).
    long_sig = np.empty((c, n), dtype=bool)
    flips = np.empty((2 * c, n), dtype=bool)
    next_entry = np.empty((c, n), dtype=np.int32 if n < 2**31 else np.intp)
    # the ticks a signal can open a position at; the last two open none
    ticks = np.arange(n, dtype=next_entry.dtype)
    ticks[max(n - 2, 0):] = n
    for j, cfg in enumerate(cfgs):
        surprise = next(rows)
        np.greater(surprise, thr[j], out=long_sig[j])
        entry_sig = long_sig[j]
        if cfg.allow_short:
            entry_sig = entry_sig | (surprise < -thr[j])
        np.greater(surprise, 0.0, out=flips[j])
        np.less(surprise, 0.0, out=flips[c + j])
        cand = np.where(entry_sig, ticks, n)
        np.minimum.accumulate(cand[::-1], out=next_entry[j, ::-1])
    del surprise, entry_sig, cand

    midv = series.mid
    bid, ask = series.bid, series.ask
    long_flat, flips_flat = long_sig.reshape(-1), flips.reshape(-1)
    next_flat = next_entry.reshape(-1)
    cols = np.arange(c)
    i = next_entry[:, 0]
    # per open column: its first element in the flat (c, n) state, the
    # offset of its ticks in `series` (its fills are at i + fill_base) and
    # its last tick there that can trigger; its flip at tick u of `series`
    # is flips_flat[u + flip_base] (a long's row is c rows on)
    row, fill_base, last = cols * n, starts + 1, starts + (n - 2)
    flip_base = row - starts
    tp_open, neg_sl_open = tp, -sl
    steps, held = [], 0
    while True:
        live = i < n
        if np.count_nonzero(live) < cols.size:
            cols, i = cols[live], i[live]
            if not cols.size:
                break
            row, fill_base, last = row[live], fill_base[live], last[live]
            flip_base = flip_base[live]
            tp_open, neg_sl_open = tp_open[live], neg_sl_open[live]
        is_long = long_flat[row + i]
        fill = i + fill_base
        entry_px = np.where(is_long, ask[fill], bid[fill])
        side = np.where(is_long, 1.0, -1.0)
        k, found = _block_scan(midv, flips_flat, flip_base + (c * n) * is_long,
                               fill, last, side, entry_px, tp_open,
                               neg_sl_open)
        ei = k + i
        ei += 2  # the exit fill, local: a trigger at fill + k fills a tick on
        if np.count_nonzero(found) < found.size:
            # exits past the first block: the doubling scan
            for j in np.flatnonzero(~found):
                col, lo = cols[j], starts[cols[j]]
                ei[j] = _scan_exit(midv[lo:lo + n],
                                   flips[col + c * is_long[j]],
                                   int(i[j]) + 1 + EXIT_BLOCK, side[j],
                                   entry_px[j], tp[col], sl[col])
        steps.append((cols, ei, is_long, entry_px))
        held += cols.size
        if held >= _HELD_TRADES:
            _add_trades(steps, series, starts, fee, cfgs[0].period_ticks, out)
            steps, held = [], 0
        i = next_flat[row + ei]  # flat again as of the exit fill tick
    if steps:
        _add_trades(steps, series, starts, fee, cfgs[0].period_ticks, out)


def _add_trades(steps, series: TickSeries, starts: np.ndarray,
                fee: np.ndarray, period_ticks: int, out: np.ndarray) -> None:
    """Add the returns of the trades held in `steps` to their periods in
    the block's (c, n_periods) result.

    In step order each column's trades come in exit order, and `np.add.at`
    adds in that order, so every period adds its trade returns in the
    scalar path's order, from 0.0.
    """
    cols, ei, is_long, entry_px = map(np.concatenate, zip(*steps))
    fill = ei + starts[cols]
    exit_px = np.where(is_long, series.bid[fill], series.ask[fill])
    rets = (np.where(is_long, exit_px / entry_px, entry_px / exit_px)
            - 1.0 - 2.0 * fee[cols])
    np.add.at(out.reshape(-1), cols * out.shape[1] + ei // period_ticks, rets)


def _block_scan(midv: np.ndarray, flips: np.ndarray, base: np.ndarray,
                fi: np.ndarray, last, side: np.ndarray,
                entry_px: np.ndarray, tp, neg_sl) -> Tuple[np.ndarray, np.ndarray]:
    """Exit search over the first EXIT_BLOCK ticks of positions filled at fi.

    Position j reads ticks fi[j], fi[j]+1, ... of midv, and its flip at
    tick u is flips[u + base[j]] of the flat flips array. last, tp and
    neg_sl are scalars or one per position. Returns the offset k of each
    position's first trigger (its exit fills at fi + 1 + k) and whether it
    found one. The (EXIT_BLOCK, positions) arrays put the positions on the
    inner axis, where numpy's loops are long.

    A trigger at tick u fills at u+1, so the last tick that can trigger is
    `last`, the one before the position's final tick. Every entry fills at
    or before it, so a block that runs past it reads it again instead: its
    repeats trigger only where that tick has, earlier in the same block.
    """
    u = _SCAN + fi
    np.minimum(u, last, out=u)
    pnl = midv[u]
    pnl /= entry_px
    pnl -= 1.0
    pnl *= side
    u += base
    trig = pnl >= tp
    trig |= pnl <= neg_sl
    trig |= flips[u]
    return trig.argmax(axis=0), trig.any(axis=0)


def _scan_exit(midv: np.ndarray, flip: np.ndarray, lo: int, side: float,
               entry_px: float, tp: float, sl: float) -> int:
    """Exit fill tick of a position still open at tick lo.

    Scans ticks [lo, n-2] for the first trigger (a trigger at u fills at
    u+1) in numpy blocks that double in size, so a hold costs O(its
    length), falling back to the final tick.
    """
    end = midv.size - 1
    width = 2 * EXIT_BLOCK
    while lo < end:
        hi = min(lo + width, end)
        pnl = side * (midv[lo:hi] / entry_px - 1.0)
        trig = (pnl >= tp) | (pnl <= -sl) | flip[lo:hi]
        k = int(trig.argmax())
        if trig[k]:
            return lo + k + 1
        lo, width = hi, 2 * width
    return end


def sharpe(result: BacktestResult, r_f_per_period: float = 0.0) -> Optional[float]:
    """Per-period Sharpe ratio; None when the return spread is zero."""
    if result.stdev == 0.0:
        return None
    return (result.mean - r_f_per_period) / result.stdev


def annualized_sharpe(result: BacktestResult, r_f_per_period: float = 0.0,
                      periods_per_year: int = 252) -> Optional[float]:
    s = sharpe(result, r_f_per_period)
    if s is None:
        return None
    return s * math.sqrt(periods_per_year)
