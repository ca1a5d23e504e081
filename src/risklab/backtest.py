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

  - `run_backtest_signals` walks one surprise array trade by trade and
    records every fill. It is the reference path, checked against the
    brute-force walk in the tests; `run_backtest` wires a predictor into
    it, and a sweep runs each config's base signal through it.
  - `run_backtest_columns` runs C surprise columns, one config each, in
    lockstep: every step advances each column by one trade, so the cost
    of a numpy call is shared by all open columns. It returns period
    returns only, which is all a sweep's dropout variants are read for,
    and matches the scalar path bit for bit. A sweep with K = 1 has no
    variant columns and stays on the scalar path, which is faster with a
    handful of columns than a lockstep step.

Both are linear in ticks plus trades: each tick is scanned by at most one
open position, whose exit search reads at most twice its holding time
plus EXIT_BLOCK ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

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

# ticks in the first block of the exit scan; later blocks double
EXIT_BLOCK = 16

# columns x ticks per block of the column core; a block's arrays take
# about 32 bytes an element, so a block peaks near 8.4 MB at any shape
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
    """One execution; a named tuple because the engine builds two per trade."""

    ts: int
    side: str
    price: float
    reason: str


@dataclass(frozen=True)
class BacktestResult:
    period_returns: np.ndarray
    mean: float
    stdev: float
    n_trades: int
    fills: Tuple[Fill, ...]
    trade_returns: np.ndarray

    def __post_init__(self) -> None:
        self.period_returns.setflags(write=False)
        self.trade_returns.setflags(write=False)


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

    with np.errstate(invalid="ignore"):
        long_sig = surprise > thr
        short_sig = (surprise < -thr) if cfg.allow_short else np.zeros(n, bool)
        flip_long = surprise < 0.0
        flip_short = surprise > 0.0
    entry_sig = long_sig | short_sig

    fills: List[Fill] = []
    trade_returns: List[float] = []
    exit_ticks: List[int] = []
    last_entry = n - 3
    t = 0
    while t <= last_entry:
        seg = entry_sig[t:last_entry + 1]
        off = int(seg.argmax())
        if not seg[off]:
            break
        i = t + off
        side = 1 if long_sig[i] else -1
        fi = i + 1
        entry_px = float(ask[fi]) if side > 0 else float(bid[fi])
        fills.append(Fill(int(ts[fi]), SIDE_BUY if side > 0 else SIDE_SELL,
                          entry_px, REASON_ENTRY))
        ei, reason = _find_exit(midv, flip_long if side > 0 else flip_short,
                                fi, side, entry_px, tp, sl)
        exit_px = float(bid[ei]) if side > 0 else float(ask[ei])
        fills.append(Fill(int(ts[ei]), SIDE_SELL if side > 0 else SIDE_BUY,
                          exit_px, reason))
        if side > 0:
            ret = exit_px / entry_px - 1.0 - 2.0 * fee
        else:
            ret = entry_px / exit_px - 1.0 - 2.0 * fee
        trade_returns.append(ret)
        exit_ticks.append(ei)
        t = ei  # flat again as of the exit fill tick

    # bincount adds each period's trade returns in exit order, from 0.0
    period_returns = np.bincount(
        np.array(exit_ticks, dtype=np.intp) // cfg.period_ticks,
        weights=np.array(trade_returns), minlength=-(-n // cfg.period_ticks))
    return BacktestResult(period_returns=period_returns,
                          mean=float(period_returns.mean()),
                          stdev=float(period_returns.std()),
                          n_trades=len(trade_returns),
                          fills=tuple(fills),
                          trade_returns=np.array(trade_returns))


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
    last_entry, end = n - 3, n - 1
    thr, tp, sl, fee = (np.array([getattr(cfg, name) for cfg in cfgs]) * 1e-4
                        for name in ("threshold_bps", "take_profit_bps",
                                     "stop_loss_bps", "fee_bps"))
    short_ok = np.array([cfg.allow_short for cfg in cfgs])
    # flips[1] ends a long and flips[0] a short; both are False from the
    # final tick on, and mids are NaN there, so no scan triggers past it
    flips = np.zeros((2, c, end + EXIT_BLOCK), dtype=bool)
    with np.errstate(invalid="ignore"):
        long_sig = surprise > thr[:, None]
        entry_sig = long_sig | ((surprise < -thr[:, None])
                                & short_ok[:, None])
        np.greater(surprise[:, :end], 0.0, out=flips[0, :, :end])
        np.less(surprise[:, :end], 0.0, out=flips[1, :, :end])
    midv = series.mid
    mids = np.full(end + EXIT_BLOCK, np.nan)
    mids[:end] = midv[:end]
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
    scan = np.arange(EXIT_BLOCK)
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
        u = fi[:, None] + scan
        pnl = side[:, None] * (mids[u] / entry_px[:, None] - 1.0)
        trig = ((pnl >= tp_open) | (pnl <= neg_sl_open)
                | flips[is_long.astype(np.intp)[:, None], cols[:, None], u])
        ei = fi + 1 + trig.argmax(axis=1)
        found = trig.any(axis=1)
        if not found.all():
            # exits past the first block: the scalar path's doubling scan
            for j in np.flatnonzero(~found):
                col = cols[j]
                ei[j] = _scan_exit(midv, flips[int(is_long[j]), col],
                                   int(fi[j]) + EXIT_BLOCK, side[j],
                                   entry_px[j], tp[col], sl[col])[0]
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


def _find_exit(midv: np.ndarray, flip: np.ndarray, fi: int, side: int,
               entry_px: float, tp: float, sl: float) -> Tuple[int, str]:
    """Exit fill tick and reason for a position filled at tick fi.

    Scans ticks [fi, n-2] for the first trigger (a trigger at u fills at
    u+1), falling back to the final tick. The first EXIT_BLOCK ticks are
    walked in Python, which is cheapest for the short holds most trades
    have; after that numpy scans blocks that double in size, so a trade
    costs O(its holding time) either way. Both compute the same float
    expression, so they agree bit for bit.
    """
    end = midv.size - 1
    hi = min(fi + EXIT_BLOCK, end)
    for u, (m, f) in enumerate(zip(midv[fi:hi].tolist(),
                                   flip[fi:hi].tolist()), fi):
        pnl = side * (m / entry_px - 1.0)
        if pnl >= tp:
            return u + 1, REASON_TAKE_PROFIT
        if pnl <= -sl:
            return u + 1, REASON_STOP_LOSS
        if f:
            return u + 1, REASON_SIGNAL_FLIP
    return _scan_exit(midv, flip, hi, side, entry_px, tp, sl)


def _scan_exit(midv: np.ndarray, flip: np.ndarray, lo: int, side: float,
               entry_px: float, tp: float, sl: float) -> Tuple[int, str]:
    """`_find_exit` past its first EXIT_BLOCK ticks, which start at lo."""
    end = midv.size - 1
    width = 2 * EXIT_BLOCK
    while lo < end:
        hi = min(lo + width, end)
        pnl = side * (midv[lo:hi] / entry_px - 1.0)
        tp_hit = pnl >= tp
        sl_hit = pnl <= -sl
        trig = tp_hit | sl_hit | flip[lo:hi]
        k = int(trig.argmax())
        if trig[k]:
            return lo + k + 1, (REASON_TAKE_PROFIT if tp_hit[k] else
                                REASON_STOP_LOSS if sl_hit[k] else
                                REASON_SIGNAL_FLIP)
        lo, width = hi, 2 * width
    return end, REASON_END_OF_DATA


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
