"""Seeded differential fuzz of the fast paths against their references.

Each target draws a fixed number of cases from a fixed seed, so every
machine runs the same cases.
"""

import re

import numpy as np

from risklab.market_data import CSV_HEADER
from test_market_data import (_bulk_columns, _corrupt, _outcome,
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
