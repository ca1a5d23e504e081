import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from risklab import SyntheticSpec, TickSeries, ValidationError, gen_synthetic
from risklab import backtest
from risklab.backtest import (EXIT_BLOCK, BacktestResult, Fill,
                              StrategyConfig, TradeLog, annualized_sharpe,
                              run_backtest, run_backtest_columns,
                              run_backtest_signals, sharpe)
from risklab.predictor import make_leaked, make_persistence

from backtest_oracle import walk_backtest

SEC = 1_000_000_000
NO_TRADES = TradeLog(*[np.empty(0)] * len(TradeLog._fields))

SCENARIO_BIDS = [99.0, 99.5, 103.0, 105.0, 105.0, 105.0]
SCENARIO_ASKS = [101.0, 100.0, 104.0, 105.5, 106.0, 106.0]


def scenario_series():
    ts = SEC * np.arange(1, 7)
    return TickSeries(ts, np.array(SCENARIO_BIDS),
                      np.array(SCENARIO_ASKS))


def random_walk(n, seed, spread_bps=5.0):
    return gen_synthetic(SyntheticSpec(n_ticks=n, sigma_noise=1e-3,
                                       spread_bps=spread_bps, seed=seed))


class TestHandScenarios:
    """The two 6-tick walk-throughs, checked against the brute-force oracle
    and the hand-derived values."""

    def test_long_take_profit(self):
        s = scenario_series()
        cfg = StrategyConfig(threshold_bps=50, stop_loss_bps=10_000,
                             take_profit_bps=500, fee_bps=10,
                             allow_short=False, period_ticks=6)
        res = run_backtest(s, make_leaked(2), cfg)
        assert res.n_trades == 1
        assert res.trade_returns[0] == pytest.approx(0.048, abs=1e-12)
        assert res.fills == (
            Fill(int(s.ts[1]), "BUY", 100.0, "entry"),
            Fill(int(s.ts[4]), "SELL", 105.0, "take_profit"),
        )
        assert res.period_returns[0] == pytest.approx(0.048, abs=1e-12)

    def test_short_stop_loss(self):
        s = scenario_series()
        cfg = StrategyConfig(threshold_bps=50, stop_loss_bps=40,
                             take_profit_bps=10_000, fee_bps=10,
                             allow_short=True, period_ticks=6)
        signal = np.array([-0.035, 0.0, 0.0, 0.0, 0.0, 0.0])
        res = run_backtest_signals(s, signal, cfg)
        assert res.n_trades == 1
        expected = 99.5 / 105.5 - 1.0 - 0.002
        assert res.trade_returns[0] == pytest.approx(expected, abs=1e-12)
        assert res.fills == (
            Fill(int(s.ts[1]), "SELL", 99.5, "entry"),
            Fill(int(s.ts[3]), "BUY", 105.5, "stop_loss"),
        )

    def test_oracle_agrees_on_both(self):
        s = scenario_series()
        leak2 = [SCENARIO_BIDS[t + 2] / 2 + SCENARIO_ASKS[t + 2] / 2
                 if t + 2 < 6 else float("nan") for t in range(6)]
        mids = [(b + a) / 2 for b, a in zip(SCENARIO_BIDS, SCENARIO_ASKS)]
        leak_surprise = [p / m - 1.0 if not np.isnan(p) else float("nan")
                         for p, m in zip(leak2, mids)]
        want, _, _ = walk_backtest(SCENARIO_BIDS, SCENARIO_ASKS, leak_surprise,
                                   50, 10_000, 500, 10, False, 6)
        cfg = StrategyConfig(threshold_bps=50, stop_loss_bps=10_000,
                             take_profit_bps=500, fee_bps=10,
                             allow_short=False, period_ticks=6)
        res = run_backtest(s, make_leaked(2), cfg)
        assert list(res.trade_returns) == want

        want2, _, _ = walk_backtest(SCENARIO_BIDS, SCENARIO_ASKS,
                                    [-0.035, 0, 0, 0, 0, 0],
                                    50, 40, 10_000, 10, True, 6)
        cfg2 = StrategyConfig(threshold_bps=50, stop_loss_bps=40,
                              take_profit_bps=10_000, fee_bps=10,
                              allow_short=True, period_ticks=6)
        res2 = run_backtest_signals(s, np.array([-0.035, 0, 0, 0, 0, 0]), cfg2)
        assert list(res2.trade_returns) == want2


def grid_series(n, rng):
    """Quotes on a coarse half-unit grid between 98 and 102, so few distinct
    P&L values occur and take-profit/stop-loss levels can equal them."""
    level = np.clip(np.cumsum(rng.integers(-1, 2, n)), -4, 4)
    bid = 100.0 + 0.5 * level
    ask = bid + 0.5 * rng.integers(1, 3, n)
    return TickSeries(SEC * np.arange(1, n + 1), bid, ask)


def exact_bps(x):
    """A bps level whose bps * 1e-4 is exactly x, or None."""
    b = x / 1e-4
    for cand in (b, np.nextafter(b, np.inf), np.nextafter(b, -np.inf)):
        if float(cand) * 1e-4 == x:
            return float(cand)
    return None


def one_sign_signal(n, rng, sign):
    """Signal of one sign with NaN runs: it never flips a position."""
    signal = sign * np.abs(rng.normal(0.0, 20e-4, n))
    for _ in range(int(rng.integers(1, 6))):
        start = int(rng.integers(0, n))
        signal[start:start + int(rng.integers(1, n // 3 + 2))] = np.nan
    return signal


class TestEngineVsOracle:
    """Randomized cross-validation against the independent walk. The families
    after the first assert that they reach the cases they are built for."""

    def check(self, s, signal, cfg, label):
        res = run_backtest_signals(s, signal, cfg)
        want_tr, want_fills, want_pr = walk_backtest(
            list(s.bid), list(s.ask), list(signal),
            cfg.threshold_bps, cfg.stop_loss_bps, cfg.take_profit_bps,
            cfg.fee_bps, cfg.allow_short, cfg.period_ticks)
        assert list(res.trade_returns) == want_tr, label
        got_fills = [(int(np.searchsorted(s.ts, f.ts)), f.side, f.price,
                      f.reason) for f in res.fills]
        assert got_fills == want_fills, label
        assert list(res.period_returns) == want_pr, label
        return want_fills

    def test_random_scenarios_match_exactly(self):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            n = int(rng.integers(3, 400))
            s = random_walk(n, seed=int(rng.integers(0, 1 << 31)))
            signal = rng.normal(0.0, 20e-4, n)
            signal[rng.random(n) < 0.1] = np.nan
            cfg = StrategyConfig(
                threshold_bps=float(rng.uniform(0, 25)),
                stop_loss_bps=float(rng.uniform(5, 80)),
                take_profit_bps=float(rng.uniform(5, 80)),
                fee_bps=float(rng.choice([0.0, 2.0, 10.0])),
                allow_short=bool(rng.random() < 0.7),
                period_ticks=int(rng.integers(1, 40)))
            self.check(s, signal, cfg, f"trial {trial}")

    def test_long_holds_cross_scan_blocks(self):
        # holds of hundreds of ticks run through several doubling blocks of
        # the exit scan; sparse flips land deep inside them
        rng = np.random.default_rng(7)
        holds, reasons = [], set()
        for trial in range(30):
            n = int(rng.integers(500, 3000))
            s = random_walk(n, seed=int(rng.integers(0, 1 << 31)))
            signal = one_sign_signal(n, rng, float(rng.choice([-1.0, 1.0])))
            if trial % 3 == 0:
                flips = rng.random(n) < 0.002
                signal[flips] = -signal[flips]
            cfg = StrategyConfig(
                threshold_bps=float(rng.uniform(0, 10)),
                stop_loss_bps=float(rng.uniform(50, 400)),
                take_profit_bps=float(rng.uniform(50, 400)),
                fee_bps=float(rng.choice([0.0, 2.0])),
                allow_short=True,
                period_ticks=int(rng.integers(1, 200)))
            fills = self.check(s, signal, cfg, f"trial {trial}")
            for entry, exit_ in zip(fills[::2], fills[1::2]):
                holds.append(exit_[0] - entry[0])
                if exit_[0] - entry[0] > EXIT_BLOCK:
                    reasons.add(exit_[3])
        assert max(holds) > 1000
        assert reasons == {"take_profit", "stop_loss", "signal_flip",
                           "end_of_data"}

    def test_grid_prices_hit_levels_exactly(self):
        # ties counted apart for triggers in the first scan block and after
        rng = np.random.default_rng(11)
        ties = {False: 0, True: 0}
        for trial in range(40):
            n = int(rng.integers(50, 1500))
            s = grid_series(n, rng)
            pnls = {float(m) / float(p) - 1.0
                    for m in np.unique(s.mid)
                    for p in np.unique(np.concatenate([s.bid, s.ask]))}
            tps = [b for b in map(exact_bps, (v for v in pnls if v > 0)) if b]
            sls = [b for b in map(exact_bps, (-v for v in pnls if v < 0)) if b]
            cfg = StrategyConfig(
                threshold_bps=float(rng.uniform(0, 10)),
                stop_loss_bps=float(rng.choice(sls)),
                take_profit_bps=float(rng.choice(tps)),
                allow_short=bool(rng.random() < 0.5),
                period_ticks=int(rng.integers(1, 100)))
            if trial % 2:
                signal = one_sign_signal(n, rng, 1.0)
            else:
                signal = rng.normal(0.0, 20e-4, n)
                signal[rng.random(n) < 0.5] = np.nan
            fills = self.check(s, signal, cfg, f"trial {trial}")
            mids = (s.bid + s.ask) / 2.0
            for entry, exit_ in zip(fills[::2], fills[1::2]):
                side = 1 if entry[1] == "BUY" else -1
                pnl = side * (mids[exit_[0] - 1] / entry[2] - 1.0)
                if pnl in (cfg.take_profit_bps * 1e-4,
                           -cfg.stop_loss_bps * 1e-4):
                    ties[exit_[0] - 1 - entry[0] >= EXIT_BLOCK] += 1
        assert ties[False] > 0 and ties[True] > 0, ties

    def test_long_only_ignores_short_signals(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            n = int(rng.integers(100, 3000))
            s = random_walk(n, seed=int(rng.integers(0, 1 << 31)))
            signal = rng.normal(0.0, 20e-4, n)
            signal[rng.random(n) < 0.3] = np.nan
            cfg = StrategyConfig(
                threshold_bps=float(rng.uniform(0, 25)),
                stop_loss_bps=float(rng.uniform(5, 200)),
                take_profit_bps=float(rng.uniform(5, 200)),
                allow_short=False,
                period_ticks=int(rng.integers(1, 100)))
            fills = self.check(s, signal, cfg, f"trial {trial}")
            assert fills and all(f[1] == "BUY" for f in fills[::2])
            shorts_only = one_sign_signal(n, rng, -1.0)
            assert self.check(s, shorts_only, cfg, f"short {trial}") == []

    def test_exits_on_period_boundaries(self):
        # period lengths taken from the exit ticks themselves, so an exit
        # is the first tick of a period or the last one of the one before
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(200, 3000))
            s = random_walk(n, seed=int(rng.integers(0, 1 << 31)))
            signal = rng.normal(0.0, 20e-4, n)
            signal[rng.random(n) < 0.1] = np.nan
            base = StrategyConfig(threshold_bps=5.0, stop_loss_bps=30.0,
                                  take_profit_bps=30.0, fee_bps=1.0)
            exits = [f[0] for f in self.check(s, signal, base,
                                              f"trial {trial}")[1::2]]
            for ei in rng.choice(exits, 3):
                for p in (int(ei), int(ei) + 1):
                    cfg = dataclasses.replace(base, period_ticks=p)
                    self.check(s, signal, cfg, f"trial {trial} period {p}")

    def test_exit_table_across_candidate_chunks(self):
        # the exit table works through the candidate entries a chunk at a
        # time, so the chase crosses chunk boundaries
        rng = np.random.default_rng(23)
        n = 60_000
        chunk = backtest._BLOCK_ELEMENTS // EXIT_BLOCK
        s = random_walk(n, seed=29)
        # one sign with sparse flips and wide levels: holds outlast
        # EXIT_BLOCK, and the trades span more than two chunks
        signal = np.abs(rng.normal(0.0, 20e-4, n))
        signal[rng.random(n) < 0.003] *= -1.0
        signal[rng.random(n) < 0.05] = np.nan
        cfg = StrategyConfig(threshold_bps=1.0, stop_loss_bps=40.0,
                             take_profit_bps=60.0, fee_bps=1.0,
                             period_ticks=97)
        fills = self.check(s, signal, cfg, "long holds")
        cand = np.flatnonzero(np.abs(signal[:n - 2]) > 1e-4)
        assert cand.size > 2 * chunk
        holds = [x[0] - e[0] for e, x in zip(fills[::2], fills[1::2])]
        assert min(holds) <= EXIT_BLOCK < max(holds)
        assert fills[0][0] <= cand[chunk - 1] + 1
        assert fills[-2][0] > cand[2 * chunk] + 1
        # long only, and every odd tick flips a long: each trade ends by the
        # next candidate, so the chase takes every candidate of each chunk
        signal = np.abs(rng.normal(0.0, 20e-4, n))
        signal[1::2] *= -1.0
        signal[::2][rng.random(n // 2) < 0.05] = np.nan
        cfg = dataclasses.replace(cfg, allow_short=False)
        fills = self.check(s, signal, cfg, "every candidate")
        cand = np.flatnonzero(signal[:n - 2] > 1e-4)
        assert cand.size > chunk
        assert [f[0] for f in fills[::2]] == (cand + 1).tolist()

    # The column core on one mixed-config batch per case: every column's
    # period returns must equal the walk's exactly.

    def check_columns(self, s, signals, cfgs, label):
        """Returns each column's oracle fills."""
        got = run_backtest_columns(s, signals, cfgs)
        assert got.shape == (len(cfgs), -(-len(s) // cfgs[0].period_ticks))
        fills = []
        for c, (signal, cfg) in enumerate(zip(signals, cfgs)):
            _, want_fills, want_pr = walk_backtest(
                list(s.bid), list(s.ask), list(signal),
                cfg.threshold_bps, cfg.stop_loss_bps, cfg.take_profit_bps,
                cfg.fee_bps, cfg.allow_short, cfg.period_ticks)
            assert list(got[c]) == want_pr, f"{label} column {c}"
            fills.append(want_fills)
        return fills

    @staticmethod
    def random_batch(rng, n, c, period_ticks):
        signals = rng.normal(0.0, 20e-4, (c, n))
        signals[rng.random((c, n)) < 0.1] = np.nan
        cfgs = [StrategyConfig(
            threshold_bps=float(rng.uniform(0, 25)),
            stop_loss_bps=float(rng.uniform(5, 80)),
            take_profit_bps=float(rng.uniform(5, 80)),
            fee_bps=float(rng.choice([0.0, 2.0, 10.0])),
            allow_short=bool(rng.random() < 0.7),
            period_ticks=period_ticks) for _ in range(c)]
        # an all-NaN column and one whose threshold is never reached
        signals[0] = np.nan
        cfgs[1] = dataclasses.replace(cfgs[1], threshold_bps=1e6)
        return signals, cfgs

    def test_columns_random_scenarios_match_exactly(self):
        one_tick = TickSeries(np.array([SEC]), np.array([99.0]),
                              np.array([101.0]))
        assert run_backtest_columns(one_tick, [[0.1], [-0.1]],
                                    [StrategyConfig()] * 2).tolist() == \
            [[0.0], [0.0]]
        rng = np.random.default_rng(2025)
        for trial, n in enumerate([2, 3, 4, 5]
                                  + list(rng.integers(6, 400, 9))):
            s = random_walk(int(n), seed=int(rng.integers(0, 1 << 31)))
            signals, cfgs = self.random_batch(rng, int(n),
                                              int(rng.integers(2, 30)),
                                              int(rng.integers(1, 40)))
            fills = self.check_columns(s, signals, cfgs, f"trial {trial}")
            assert fills[0] == fills[1] == []

    def test_columns_wider_than_one_block(self):
        rng = np.random.default_rng(2026)
        n = 2000
        c = 2 * (backtest._COLUMN_TICKS // n) + 3
        s = random_walk(n, seed=5)
        signals, cfgs = self.random_batch(rng, n, c, 64)
        signals[-1] = np.nan
        fills = self.check_columns(s, signals, cfgs, "wide")
        assert fills[0] == fills[1] == fills[-1] == []
        assert all(fills[2:-1])
        # rows may come from a generator, read one block at a time
        got = run_backtest_columns(s, (row for row in signals), cfgs)
        assert np.array_equal(got, run_backtest_columns(s, signals, cfgs))

    def test_columns_long_holds_cross_scan_blocks(self):
        rng = np.random.default_rng(8)
        holds, reasons = [], set()
        for trial in range(6):
            n = int(rng.integers(500, 3000))
            s = random_walk(n, seed=int(rng.integers(0, 1 << 31)))
            signals, cfgs = [], []
            period = int(rng.integers(1, 200))
            for col in range(8):
                signal = one_sign_signal(n, rng, float(rng.choice([-1.0, 1.0])))
                if col % 3 == 0:
                    flips = rng.random(n) < 0.002
                    signal[flips] = -signal[flips]
                signals.append(signal)
                cfgs.append(StrategyConfig(
                    threshold_bps=float(rng.uniform(0, 10)),
                    stop_loss_bps=float(rng.uniform(50, 400)),
                    take_profit_bps=float(rng.uniform(50, 400)),
                    fee_bps=float(rng.choice([0.0, 2.0])),
                    period_ticks=period))
            for fills in self.check_columns(s, np.array(signals), cfgs,
                                            f"trial {trial}"):
                for entry, exit_ in zip(fills[::2], fills[1::2]):
                    holds.append(exit_[0] - entry[0])
                    if exit_[0] - entry[0] > EXIT_BLOCK:
                        reasons.add(exit_[3])
        assert max(holds) > 1000
        assert reasons == {"take_profit", "stop_loss", "signal_flip",
                           "end_of_data"}

    def test_columns_grid_prices_hit_levels_exactly(self):
        rng = np.random.default_rng(12)
        ties = {False: 0, True: 0}
        for trial in range(8):
            n = int(rng.integers(50, 1500))
            s = grid_series(n, rng)
            pnls = {float(m) / float(p) - 1.0
                    for m in np.unique(s.mid)
                    for p in np.unique(np.concatenate([s.bid, s.ask]))}
            tps = [b for b in map(exact_bps, (v for v in pnls if v > 0)) if b]
            sls = [b for b in map(exact_bps, (-v for v in pnls if v < 0)) if b]
            period = int(rng.integers(1, 100))
            signals, cfgs = [], []
            for col in range(10):
                cfgs.append(StrategyConfig(
                    threshold_bps=float(rng.uniform(0, 10)),
                    stop_loss_bps=float(rng.choice(sls)),
                    take_profit_bps=float(rng.choice(tps)),
                    allow_short=bool(rng.random() < 0.5),
                    period_ticks=period))
                if col % 2:
                    signals.append(one_sign_signal(n, rng, 1.0))
                else:
                    signal = rng.normal(0.0, 20e-4, n)
                    signal[rng.random(n) < 0.5] = np.nan
                    signals.append(signal)
            batch = self.check_columns(s, np.array(signals), cfgs,
                                       f"trial {trial}")
            mids = (s.bid + s.ask) / 2.0
            for fills, cfg in zip(batch, cfgs):
                for entry, exit_ in zip(fills[::2], fills[1::2]):
                    side = 1 if entry[1] == "BUY" else -1
                    pnl = side * (mids[exit_[0] - 1] / entry[2] - 1.0)
                    if pnl in (cfg.take_profit_bps * 1e-4,
                               -cfg.stop_loss_bps * 1e-4):
                        ties[exit_[0] - 1 - entry[0] >= EXIT_BLOCK] += 1
        assert ties[False] > 0 and ties[True] > 0, ties

    def test_columns_long_only_ignores_short_signals(self):
        rng = np.random.default_rng(14)
        for trial in range(5):
            n = int(rng.integers(100, 3000))
            s = random_walk(n, seed=int(rng.integers(0, 1 << 31)))
            signals, cfgs = self.random_batch(rng, n, 12,
                                              int(rng.integers(1, 100)))
            # even columns are long-only; 2 and 3 see only short signals
            cfgs = [dataclasses.replace(cfg, allow_short=col % 2 == 1)
                    for col, cfg in enumerate(cfgs)]
            cfgs[3] = dataclasses.replace(cfgs[3], allow_short=False)
            signals[2] = one_sign_signal(n, rng, -1.0)
            signals[3] = one_sign_signal(n, rng, -1.0)
            fills = self.check_columns(s, signals, cfgs, f"trial {trial}")
            assert fills[2] == fills[3] == []
            long_only = range(4, 12, 2)
            assert all(f[1] == "BUY" for col in long_only
                       for f in fills[col][::2])
            assert any(fills[col] for col in long_only)
            assert any(f[1] == "SELL" for col in range(5, 12, 2)
                       for f in fills[col][::2])

    def test_columns_exit_on_period_boundaries(self):
        rng = np.random.default_rng(18)
        for trial in range(4):
            n = int(rng.integers(200, 3000))
            s = random_walk(n, seed=int(rng.integers(0, 1 << 31)))
            signals, cfgs = self.random_batch(rng, n, 6, 1)
            batch = self.check_columns(s, signals, cfgs, f"trial {trial}")
            exits = [f[0] for fills in batch for f in fills[1::2]]
            for ei in rng.choice(exits, 3):
                for p in (int(ei), int(ei) + 1):
                    self.check_columns(
                        s, signals,
                        [dataclasses.replace(cfg, period_ticks=p)
                         for cfg in cfgs], f"trial {trial} period {p}")


    def test_columns_with_window_starts(self, monkeypatch):
        # columns that trade windows of one series, adjacent, overlapping
        # and ending at its last tick, each equal the walk on their window
        # and one call per window, bit for bit; so do blocks that end
        # inside a window, and trades added to their periods a few at a time
        rng = np.random.default_rng(22)
        for trial in range(6):
            n = int(rng.integers(300, 1500))
            length = int(rng.integers(3, n // 3))
            s = random_walk(n, seed=int(rng.integers(0, 1 << 31)))
            a = int(rng.integers(0, n - 2 * length + 1))
            windows = [a, a + length, int(rng.integers(a + 1, a + length)),
                       n - length]
            c = int(rng.integers(8, 40))
            signals, cfgs = self.random_batch(rng, length, c,
                                              int(rng.integers(1, 60)))
            starts = rng.choice(windows, c)
            starts[:len(windows)] = windows
            got = run_backtest_columns(s, signals, cfgs, starts=starts,
                                       length=length)
            assert got.shape == (c, -(-length // cfgs[0].period_ticks))
            for col, (lo, signal, cfg) in enumerate(zip(starts, signals,
                                                        cfgs)):
                _, _, want = walk_backtest(
                    list(s.bid[lo:lo + length]), list(s.ask[lo:lo + length]),
                    list(signal), cfg.threshold_bps, cfg.stop_loss_bps,
                    cfg.take_profit_bps, cfg.fee_bps, cfg.allow_short,
                    cfg.period_ticks)
                assert list(got[col]) == want, f"trial {trial} column {col}"
            for lo in windows:
                mine = np.flatnonzero(starts == lo)
                alone = run_backtest_columns(s.window(lo, lo + length),
                                             signals[mine],
                                             [cfgs[j] for j in mine])
                assert alone.tobytes() == got[mine].tobytes()
            with monkeypatch.context() as m:
                m.setattr(backtest, "_COLUMN_TICKS", 5 * length)
                m.setattr(backtest, "_HELD_TRADES", 7)
                assert run_backtest_columns(
                    s, iter(signals), cfgs, starts=starts,
                    length=length).tobytes() == got.tobytes()

    def test_columns_state_stays_lean(self):
        # the sweep benchmark's variant columns: 128 of 4,000 ticks, one
        # block. Its lean state takes 3.6 MB and the peak measured 4.5 MB;
        # the float64 block it replaced (two blocks here) peaked at 11.7 MB
        n, c = 4000, 128
        assert c * n <= backtest._COLUMN_TICKS
        s = random_walk(n, seed=3, spread_bps=1.0)
        rng = np.random.default_rng(4)
        signals = rng.normal(0.0, 3e-4, (c, n))
        cfgs = [StrategyConfig(threshold_bps=float(rng.uniform(0, 1)),
                               stop_loss_bps=float(rng.uniform(30, 40)),
                               take_profit_bps=float(rng.uniform(30, 40)),
                               fee_bps=0.2, period_ticks=64)
                for _ in range(c)]
        tracemalloc.start()
        try:
            got = run_backtest_columns(s, signals, cfgs)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(got) > c * got.shape[1] // 2
        assert peak_mb < 6.0, f"the column core peaked at {peak_mb:.2f} MB"


class TestResultInvariants:
    def test_zero_trades_all_zero(self):
        s = random_walk(500, seed=1)
        cfg = StrategyConfig(threshold_bps=1e6, period_ticks=50)
        res = run_backtest(s, make_persistence(), cfg)
        assert res.n_trades == 0
        assert np.all(res.period_returns == 0.0)
        assert res.mean == 0.0 and res.stdev == 0.0

    def test_no_trade_period_returns_are_float(self):
        s = random_walk(5, seed=2)
        surprise = np.full(5, np.nan)
        cfg = StrategyConfig(period_ticks=2)
        res = run_backtest_signals(s, surprise, cfg)
        assert res.n_trades == 0
        assert res.period_returns.dtype == np.float64
        column = run_backtest_columns(s, surprise[None, :], [cfg])[0]
        assert column.dtype == np.float64
        assert res.period_returns.tobytes() == column.tobytes()

    def test_persistence_never_trades(self):
        s = random_walk(2000, seed=3)
        cfg = StrategyConfig(threshold_bps=0.0, period_ticks=100)
        assert run_backtest(s, make_persistence(), cfg).n_trades == 0

    def test_mean_stdev_recomputable(self):
        s = random_walk(3000, seed=5)
        cfg = StrategyConfig(threshold_bps=2, stop_loss_bps=30,
                             take_profit_bps=30, period_ticks=100)
        res = run_backtest(s, make_leaked(1), cfg)
        assert res.n_trades > 0
        assert res.mean == pytest.approx(res.period_returns.mean(), abs=1e-12)
        assert res.stdev == pytest.approx(res.period_returns.std(), abs=1e-12)

    def test_conservation_periods_vs_trades(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            s = random_walk(1500, seed=seed)
            signal = rng.normal(0, 15e-4, len(s))
            cfg = StrategyConfig(threshold_bps=3, stop_loss_bps=20,
                                 take_profit_bps=25, fee_bps=1.0,
                                 period_ticks=37)
            res = run_backtest_signals(s, signal, cfg)
            assert res.period_returns.sum() == pytest.approx(
                res.trade_returns.sum(), abs=1e-12)

    def test_fills_alternate_and_order(self):
        s = random_walk(2000, seed=7)
        cfg = StrategyConfig(threshold_bps=2, stop_loss_bps=25,
                             take_profit_bps=25, period_ticks=100)
        res = run_backtest(s, make_leaked(1), cfg)
        assert res.n_trades >= 1
        assert len(res.fills) == 2 * res.n_trades
        for i in range(0, len(res.fills), 2):
            entry, exit_ = res.fills[i], res.fills[i + 1]
            assert entry.reason == "entry"
            assert exit_.reason in ("take_profit", "stop_loss", "signal_flip",
                                    "end_of_data")
            assert exit_.ts > entry.ts
            assert {entry.side, exit_.side} == {"BUY", "SELL"}

    def test_monotone_fee(self):
        s = random_walk(1200, seed=11)
        sig = np.random.default_rng(0).normal(0, 15e-4, len(s))
        rets = []
        for fee in (0.0, 1.0, 5.0):
            cfg = StrategyConfig(threshold_bps=3, stop_loss_bps=30,
                                 take_profit_bps=30, fee_bps=fee,
                                 period_ticks=100)
            res = run_backtest_signals(s, sig, cfg)
            rets.append(res.trade_returns)
        assert rets[0].size > 0
        assert rets[0].size == rets[1].size == rets[2].size
        assert np.all(rets[1] < rets[0])
        assert np.all(rets[2] < rets[1])

    def test_no_lookahead_truncation(self):
        s = random_walk(600, seed=13)
        sig = np.random.default_rng(1).normal(0, 15e-4, len(s))
        cfg = StrategyConfig(threshold_bps=3, stop_loss_bps=25,
                             take_profit_bps=25, period_ticks=600)
        full = run_backtest_signals(s, sig, cfg)
        for cut in (50, 200, 400, 599):
            part = run_backtest_signals(s.window(0, cut), sig[:cut], cfg)
            # every fill strictly before the truncated run's final tick is
            # unchanged; forced closes sit at or past it on both sides
            cut_ts = s.ts[cut - 1]
            want = [f for f in full.fills
                    if f.ts < cut_ts and f.reason != "end_of_data"]
            got = [f for f in part.fills
                   if f.ts < cut_ts and f.reason != "end_of_data"]
            assert got == want

    def test_determinism(self):
        s = random_walk(1500, seed=17)
        cfg = StrategyConfig(threshold_bps=2, stop_loss_bps=30,
                             take_profit_bps=30, period_ticks=100)
        a = run_backtest(s, make_leaked(1), cfg)
        b = run_backtest(s, make_leaked(1), cfg)
        assert a.fills == b.fills
        assert np.array_equal(a.period_returns, b.period_returns)

    def test_leaked_cannot_open_near_end(self):
        s = random_walk(50, seed=19)
        cfg = StrategyConfig(threshold_bps=0.0, stop_loss_bps=10_000,
                             take_profit_bps=10_000, period_ticks=50)
        res = run_backtest(s, make_leaked(5), cfg)
        for f in res.fills:
            if f.reason == "entry":
                # surprise is NaN in the last 5 ticks; entry fills are at
                # trigger+1, so none may land later than tick n-5
                assert f.ts <= s.ts[len(s) - 5]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            StrategyConfig(threshold_bps=-1)
        with pytest.raises(ValidationError):
            StrategyConfig(stop_loss_bps=0)
        with pytest.raises(ValidationError):
            StrategyConfig(take_profit_bps=-5)
        with pytest.raises(ValidationError):
            StrategyConfig(period_ticks=0)
        for name in ("threshold_bps", "stop_loss_bps", "take_profit_bps",
                     "fee_bps"):
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValidationError,
                                   match=f"{name} must be finite"):
                    StrategyConfig(**{name: bad})

    def test_columns_input_validation(self):
        s = random_walk(50, seed=1)
        cfg = StrategyConfig(period_ticks=10)
        with pytest.raises(ValidationError, match="no columns"):
            run_backtest_columns(s, np.zeros((0, 50)), [])
        with pytest.raises(ValidationError, match="one period_ticks"):
            run_backtest_columns(s, np.zeros((2, 50)),
                                 [cfg, dataclasses.replace(cfg,
                                                           period_ticks=5)])
        for bad in (np.zeros((1, 50)), np.zeros((3, 50)), np.zeros((2, 49)),
                    np.zeros(50)):
            with pytest.raises(ValidationError, match="rows"):
                run_backtest_columns(s, bad, [cfg, cfg])
        for starts, length in (([0, 41], 10), ([-1, 0], 10), ([0], 10),
                               ([0, 0], 0), ([0, 0], 51)):
            with pytest.raises(ValidationError, match="one start per column"):
                run_backtest_columns(s, np.zeros((2, max(length, 1))),
                                     [cfg, cfg], starts=starts, length=length)


class TestSharpe:
    def make_result(self, period_returns):
        pr = np.array(period_returns, dtype=float)
        return BacktestResult(period_returns=pr, mean=float(pr.mean()),
                              stdev=float(pr.std()), n_trades=1,
                              trades=NO_TRADES,
                              trade_returns=np.array([pr.sum()]))

    def test_mean_equals_rf(self):
        res = self.make_result([0.01, 0.03])
        assert sharpe(res, r_f_per_period=0.02) == pytest.approx(0.0, abs=1e-15)

    def test_two_periods(self):
        res = self.make_result([0.01, 0.03])
        assert sharpe(res, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_zero_stdev_no_value(self):
        res = self.make_result([0.0, 0.0, 0.0])
        assert sharpe(res, 0.0) is None
        assert annualized_sharpe(res, 0.0) is None

    def test_annualization(self):
        res = self.make_result([0.01, 0.03])
        assert annualized_sharpe(res, 0.0, periods_per_year=252) == \
            pytest.approx(2.0 * np.sqrt(252), abs=1e-9)
