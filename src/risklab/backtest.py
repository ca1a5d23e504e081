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

The engine consumes a precomputed surprise array (`run_backtest_signals`)
so tests can script signals directly; `run_backtest` wires a predictor in.
A run is linear in ticks plus trades: each tick is scanned by at most one
open position, whose exit search reads at most twice its holding time
plus EXIT_BLOCK ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .market_data import TickSeries
from .predictor import Predictor, VariantSet, surprise_series, variant_surprise_series

SIDE_BUY = "BUY"
SIDE_SELL = "SELL"

REASON_ENTRY = "entry"
REASON_TAKE_PROFIT = "take_profit"
REASON_STOP_LOSS = "stop_loss"
REASON_SIGNAL_FLIP = "signal_flip"
REASON_END_OF_DATA = "end_of_data"

# ticks in the first block of the exit scan; later blocks double
EXIT_BLOCK = 16


@dataclass(frozen=True)
class StrategyConfig:
    threshold_bps: float = 0.0
    stop_loss_bps: float = 50.0
    take_profit_bps: float = 50.0
    fee_bps: float = 0.0
    allow_short: bool = True
    period_ticks: int = 1

    def __post_init__(self) -> None:
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


def run_backtest_variants(series: TickSeries, variants: VariantSet,
                          cfg: StrategyConfig) -> List[BacktestResult]:
    return [run_backtest_signals(series,
                                 variant_surprise_series(variants, k, series),
                                 cfg)
            for k in range(variants.K)]


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
    lo, width = hi, 2 * EXIT_BLOCK
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
