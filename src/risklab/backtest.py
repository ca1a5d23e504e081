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
    of a numpy call is shared by all open columns. It returns period
    returns only, which is all a sweep's dropout variants are read for,
    and matches the scalar path bit for bit. A sweep with K = 1 has no
    variant columns and stays on the scalar path.

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
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

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
_SCAN = np.arange(EXIT_BLOCK)

# columns x ticks per block of the column core, and candidates x EXIT_BLOCK
# per chunk of the exit table; a block's arrays take about 32 bytes an
# element, so a block peaks near 8.4 MB at any shape
_BLOCK_ELEMENTS = 1 << 18


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
    exit_tick = np.empty(cand.size, dtype=np.intp)
    chunk = _BLOCK_ELEMENTS // EXIT_BLOCK
    for lo in range(0, cand.size, chunk):
        part = slice(lo, lo + chunk)
        fi, up = cand[part] + 1, is_long[part]
        entry_px = np.where(up, series.ask[fi], series.bid[fi])
        k, found = _block_scan(midv, flips, up.astype(np.intp), fi,
                               np.where(up, 1.0, -1.0), entry_px, tp, -sl)
        exit_tick[part] = np.where(found, fi + 1 + k, -1)
    return exit_tick


def run_backtest_columns(series: TickSeries, surprises: Iterable[np.ndarray],
                         cfgs: Sequence[StrategyConfig]) -> np.ndarray:
    """Period returns of surprise column c traded under cfgs[c], in lockstep.

    `surprises` is a (C, n) matrix or any iterable of C length-n rows. Rows
    are read one block at a time, so a generator holds only one block in
    memory. All configs must share one period_ticks. Row c of the
    (C, n_periods) result equals `run_backtest_signals(series,
    surprises[c], cfgs[c]).period_returns` bit for bit; no fills are built.
    """
    if not cfgs:
        raise ValidationError("no columns to backtest")
    period_ticks = cfgs[0].period_ticks
    if any(cfg.period_ticks != period_ticks for cfg in cfgs):
        raise ValidationError("all columns must share one period_ticks")
    n = len(series)
    n_periods = -(-n // period_ticks)
    out = np.empty((len(cfgs), n_periods))
    rows = iter(surprises)
    width = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, len(cfgs), width):
        block = np.empty((min(width, len(cfgs) - lo), n))
        for j in range(len(block)):
            row = np.asarray(next(rows, None), dtype=np.float64)
            if row.shape != (n,):
                raise ValidationError(
                    f"surprises must be {len(cfgs)} rows of {n} ticks")
            block[j] = row
        out[lo:lo + len(block)] = _run_block(
            series, block, cfgs[lo:lo + len(block)], n_periods)
    if next(rows, None) is not None:
        raise ValidationError(f"surprises has more than {len(cfgs)} rows")
    return out


def _run_block(series: TickSeries, surprise: np.ndarray,
               cfgs: Sequence[StrategyConfig], n_periods: int) -> np.ndarray:
    """`run_backtest_columns` on one block of columns."""
    c, n = surprise.shape
    last_entry = n - 3
    thr, tp, sl, fee = (np.array([getattr(cfg, name) for cfg in cfgs]) * 1e-4
                        for name in ("threshold_bps", "take_profit_bps",
                                     "stop_loss_bps", "fee_bps"))
    short_ok = np.array([cfg.allow_short for cfg in cfgs])
    # flips row j ends a short in column j, and row c + j a long
    flips = np.empty((2, c, n), dtype=bool)
    with np.errstate(invalid="ignore"):
        long_sig = surprise > thr[:, None]
        entry_sig = long_sig | ((surprise < -thr[:, None])
                                & short_ok[:, None])
        np.greater(surprise, 0.0, out=flips[0])
        np.less(surprise, 0.0, out=flips[1])
    flips = flips.reshape(2 * c, n)
    midv = series.mid
    bid, ask = series.bid, series.ask
    # next_entry[j, t]: the first tick at or after t whose signal opens a
    # position in column j, or n when none is left (a reverse running
    # minimum); ticks past last_entry open none
    entry_sig[:, last_entry + 1:] = False
    cand = np.where(entry_sig, np.arange(n), n)
    next_entry = np.minimum.accumulate(cand[:, ::-1], axis=1)[:, ::-1]
    del cand, entry_sig

    cols = np.arange(c)
    i = next_entry[:, 0]
    tp_open, neg_sl_open = tp[:, None], -sl[:, None]
    steps = []
    while True:
        live = i < n
        if not live.all():
            cols, i = cols[live], i[live]
            tp_open, neg_sl_open = tp_open[live], neg_sl_open[live]
            if not cols.size:
                break
        is_long = long_sig[cols, i]
        fi = i + 1
        entry_px = np.where(is_long, ask[fi], bid[fi])
        side = np.where(is_long, 1.0, -1.0)
        row = cols + c * is_long
        k, found = _block_scan(midv, flips, row, fi, side, entry_px,
                               tp_open, neg_sl_open)
        ei = fi + 1 + k
        if not found.all():
            # exits past the first block: the doubling scan
            for j in np.flatnonzero(~found):
                col = cols[j]
                ei[j] = _scan_exit(midv, flips[row[j]],
                                   int(fi[j]) + EXIT_BLOCK, side[j],
                                   entry_px[j], tp[col], sl[col])
        steps.append((cols, ei, is_long, entry_px))
        i = next_entry[cols, ei]  # flat again as of the exit fill tick

    if not steps:
        return np.zeros((c, n_periods))
    cols, ei, is_long, entry_px = map(np.concatenate, zip(*steps))
    exit_px = np.where(is_long, bid[ei], ask[ei])
    rets = (np.where(is_long, exit_px / entry_px, entry_px / exit_px)
            - 1.0 - 2.0 * fee[cols])
    # in step order each column's trades come in exit order, so every
    # period adds its trade returns in the scalar path's order, from 0.0
    return np.bincount(cols * n_periods + ei // cfgs[0].period_ticks,
                       weights=rets,
                       minlength=c * n_periods).reshape(c, n_periods)


def _block_scan(midv: np.ndarray, flips: np.ndarray, row: np.ndarray,
                fi: np.ndarray, side: np.ndarray, entry_px: np.ndarray,
                tp, neg_sl) -> Tuple[np.ndarray, np.ndarray]:
    """Exit search over the first EXIT_BLOCK ticks of positions filled at fi.

    Position j reads ticks fi[j], fi[j]+1, ... of midv and of flips[row[j]];
    tp and neg_sl are scalars or one per position as a column. Returns the
    offset k of each position's first trigger (its exit fills at
    fi + 1 + k) and whether it found one.

    A trigger at tick u fills at u+1, so the last tick that can trigger is
    n-2. Every entry fills at or before n-2, so a block that runs past it
    reads n-2 again instead: its repeats trigger only where tick n-2 has,
    earlier in the same block.
    """
    u = fi[:, None] + _SCAN
    np.minimum(u, midv.size - 2, out=u)
    pnl = midv[u]
    pnl /= entry_px[:, None]
    pnl -= 1.0
    pnl *= side[:, None]
    trig = (pnl >= tp) | (pnl <= neg_sl) | flips[row[:, None], u]
    return trig.argmax(axis=1), trig.any(axis=1)


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
