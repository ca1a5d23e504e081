"""Seeded differential fuzz of the fast paths against their references.

Each target draws a fixed number of cases from a fixed seed, so every
machine runs the same cases.
"""

import re

import numpy as np

from risklab import TickSeries, load_csv, market_data, write_csv
from risklab.market_data import CSV_HEADER
from test_market_data import (_bulk_columns, _corrupt, _oracle_csv, _outcome,
                              _scan_outcome)

# a row of load_csv's bulk grammar, before the bounds on its numbers
ROW = re.compile(r"([0-9]{1,19}),([0-9]+)\.([0-9]+),([0-9]+)\.([0-9]+)")


def _bulk_grammar(text):
    """Whether the file `text` is in `load_csv`'s bulk grammar, read from
    the text alone: unsigned timestamps below 2**63, and prices of at most
    19 digits that, read as one integer, stay below 2**53."""
    head, newline, body = text.partition("\n")
    if head.removesuffix("\r") != CSV_HEADER or not newline or not body:
        return False
    rows = body.split("\n")
    if rows[-1] == "":
        rows.pop()
    for row in rows:
        match = ROW.fullmatch(row.removesuffix("\r"))
        if match is None:
            return False
        ts, *price = match.groups()
        if int(ts) >= 2**63:
            return False
        for whole, frac in (price[:2], price[2:]):
            if len(whole) + len(frac) > 19 or int(whole + frac) >= 2**53:
                return False
    return True


def _digits(rng, k):
    return (rng.integers(0, 10, k, dtype=np.uint8) + ord("0")).tobytes() \
        .decode("ascii")


def _timestamps(rng, n):
    """n increasing timestamps as text, of 1 to 19 digits with leading zeros
    now and then, signed in about a third of the files; the last ones may
    run past 19 digits or int64."""
    width = int(rng.integers(1, 20))
    start = int(_digits(rng, width))
    if rng.random() < 0.3:
        start = -start
    step = 10 ** max(width - 3, 0)
    values = start + np.cumsum(rng.integers(1, 10, n)).astype(object) * step
    pad = int(rng.integers(0, 3)) if rng.random() < 0.2 else 0
    return [("-" if v < 0 else "") + str(abs(v)).zfill(min(width + pad, 19))
            for v in values.tolist()]


def _prices(rng, n):
    """n (bid, ask) text pairs of 1 to 17 integer and 1 to 13 fraction
    digits, bid <= ask as floats; a price is zero now and then."""
    whole = rng.integers(1, int(rng.integers(2, 19)), 2 * n).tolist()
    frac = rng.integers(1, int(rng.integers(2, 15)), 2 * n).tolist()
    text = _digits(rng, sum(whole) + sum(frac))
    prices, at = [], 0
    for w, f in zip(whole, frac):
        prices.append(f"{text[at:at + w]}.{text[at + w:at + w + f]}")
        at += w + f
    return [sorted(prices[i:i + 2], key=float) for i in range(0, 2 * n, 2)]


def _tick_file(rng):
    """The text of a random tick file: LF or CRLF line ends, with or
    without a final one, and now and then a row broken as the loader must
    reject or flag it."""
    n = int(rng.integers(1, 40))
    lines = [CSV_HEADER] + [f"{t},{b},{a}" for t, (b, a)
                        in zip(_timestamps(rng, n), _prices(rng, n))]
    if rng.random() < 0.2:
        _corrupt(rng, lines)
    eol = "\r\n" if rng.random() < 0.5 else "\n"
    return eol.join(lines) + (eol if rng.random() < 0.8 else "")


FILES = 2000


def test_byte_parser_matches_the_scan(tmp_path):
    rng = np.random.default_rng(20261021)
    path = tmp_path / "ticks.csv"
    bulk = 0
    for case in range(FILES):
        text = _tick_file(rng)
        path.write_bytes(text.encode("ascii"))
        # the prices are positive, so equal values are equal bits
        want = _scan_outcome(path)
        assert _outcome(path) == want, (case, text)
        columns = _bulk_columns(path)
        assert (columns is not None) == _bulk_grammar(text), (case, text)
        if columns is not None:
            bulk += 1
            if not isinstance(want, str):
                assert tuple(c.tolist() for c in columns) == want, case
    # both sides of the grammar are well drawn
    assert FILES // 4 < bulk < FILES * 3 // 4, bulk


I64 = np.iinfo(np.int64)
# the writer's chunk in the fuzz, so that a series spans several chunks
CHUNK = 64
# prices from the bulk formatter's bound up, and one integer just below it
BIG_PRICES = np.array([2.0**52 - 1, 2.0**52, 2.0**52 + 1, 1e17, 1e300,
                       float(np.finfo(np.float64).max)])


def _write_timestamps(rng, n):
    """Up to n increasing int64 timestamps: unsigned, signed or crossing 0,
    from an interval that reaches an end of int64 now and then, whose ends
    are often drawn themselves."""
    lo, hi = [(0, 10**12), (0, int(I64.max)), (-10**12, -1),
              (int(I64.min), -1), (-10**12, 10**12),
              (int(I64.min), int(I64.max))][int(rng.integers(0, 6))]
    ts = rng.integers(lo, hi, n, endpoint=True)
    if rng.random() < 0.5:
        ts[0], ts[-1] = lo, hi
    return np.unique(ts)


def _write_prices(rng, n):
    """n (bid, ask) rows, bid <= ask, drawn log-uniformly from 1e-9 to 9e5,
    some rounded to a few decimals, and in half the series a few taken from
    `BIG_PRICES`."""
    prices = np.exp(rng.uniform(np.log(1e-9), np.log(9e5), (2, n)))
    if rng.random() < 0.3:
        prices = np.maximum(np.round(prices, int(rng.integers(0, 10))), 1e-9)
    big = rng.random((2, n)) < rng.choice([0.0, 0.0, 0.002, 0.02])
    prices[big] = rng.choice(BIG_PRICES, int(big.sum()))
    prices.sort(axis=0)
    return prices


SERIES = 300


def test_writer_matches_the_reference_text(tmp_path, monkeypatch):
    rng = np.random.default_rng(20261022)
    path = tmp_path / "ticks.csv"
    monkeypatch.setattr(market_data, "_CHUNK_ROWS", CHUNK)
    format_rows = market_data._format_rows
    formatted = []

    def spy(ts, bid, ask):
        formatted.append(ts.tolist())
        return format_rows(ts, bid, ask)

    monkeypatch.setattr(market_data, "_format_rows", spy)
    chunks = bulk = 0
    for case in range(SERIES):
        ts = _write_timestamps(rng, int(rng.integers(1, 6 * CHUNK)))
        bid, ask = _write_prices(rng, ts.size)
        series = TickSeries(ts, bid, ask)
        formatted.clear()
        write_csv(series, path)
        want = _oracle_csv(series)
        assert path.read_bytes() == want, case
        got = load_csv(path)
        scan = market_data._scan_rows(
            path, want.decode("ascii").partition("\n")[2])
        for a, b in zip((got.ts, got.bid, got.ask), scan):
            assert a.tobytes() == b.tobytes(), case
        # the chunks in the bulk formatter's grammar, and only those, go to it
        starts = range(0, ts.size, CHUNK)
        assert formatted == [
            ts[i:i + CHUNK].tolist() for i in starts
            if ts[i] >= 0 and ask[i:i + CHUNK].max() < 2**52], case
        chunks += len(starts)
        bulk += len(formatted)
    # both sides of the choice are well drawn
    assert chunks // 4 < bulk < chunks * 3 // 4, (bulk, chunks)
