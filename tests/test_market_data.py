import numpy as np
import pytest

from risklab import (SyntheticSpec, TickSeries, ValidationError,
                     gen_synthetic, load_csv, write_csv)
from risklab import market_data
from risklab.market_data import format_price, signal_vol_schedule


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


SEC = 1_000_000_000


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        p = _write(tmp_path, "two.csv", "ts_ns,bid,ask\n1,99.0,101.0\n2,99.5,100.5\n")
        s = load_csv(p)
        assert len(s) == 2
        assert list(s.ts) == [1, 2]
        assert list(s.bid) == [99.0, 99.5]
        assert list(s.ask) == [101.0, 100.5]

    def test_crossed_quote_line_number(self, tmp_path):
        p = _write(tmp_path, "x.csv", "ts_ns,bid,ask\n1,101.0,99.0\n")
        with pytest.raises(ValidationError, match="crossed quote at line 2"):
            load_csv(p)

    def test_non_monotone_timestamp(self, tmp_path):
        p = _write(tmp_path, "x.csv", "ts_ns,bid,ask\n5,99.0,101.0\n5,99.0,101.0\n")
        with pytest.raises(ValidationError, match="non-monotone timestamp at line 3"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path, "x.csv", "ts_ns,bid,ask\n")
        with pytest.raises(ValidationError, match="empty file"):
            load_csv(p)

    def test_malformed_row(self, tmp_path):
        p = _write(tmp_path, "x.csv", "ts_ns,bid,ask\n1,99.0,101.0\n2,oops,101.0\n")
        with pytest.raises(ValidationError, match="malformed row at line 3"):
            load_csv(p)

    def test_missing_column(self, tmp_path):
        p = _write(tmp_path, "x.csv", "ts_ns,bid,ask\n1,99.0\n")
        with pytest.raises(ValidationError, match="malformed row at line 2"):
            load_csv(p)

    def test_bad_header(self, tmp_path):
        p = _write(tmp_path, "x.csv", "time,bid,ask\n1,99.0,101.0\n")
        with pytest.raises(ValidationError, match="malformed header"):
            load_csv(p)

    def test_nonpositive_quote(self, tmp_path):
        p = _write(tmp_path, "x.csv", "ts_ns,bid,ask\n1,0.0,1.0\n")
        with pytest.raises(ValidationError, match="nonpositive quote at line 2"):
            load_csv(p)

    def test_round_trip_is_canonical_fixed_point(self, tmp_path):
        raw = "ts_ns,bid,ask\n1,99.0,101.0\n2,99.5000,100.70\n3,100.0000000001,100.1\n"
        p = _write(tmp_path, "raw.csv", raw)
        canon = tmp_path / "canon.csv"
        write_csv(load_csv(p), canon)
        canon_bytes = canon.read_bytes()
        again = tmp_path / "again.csv"
        write_csv(load_csv(canon), again)
        assert again.read_bytes() == canon_bytes
        assert b"100.0000000001" in canon_bytes


HEAD = "ts_ns,bid,ask\n"

# (file name, file text or bytes): each is loaded by the bulk path and by
# the scan
EDGE_FILES = (
    # 2**53 = 9007199254740992: the parser divides a price's digits, read
    # as one integer, below it and casts the text from it up, as it casts
    # prices of 20 to 26 digits; 27 digits go to the scan
    ("mantissa_15", HEAD + "1,99999999.9999999,100000000.0\n"),
    ("mantissa_16_below", HEAD + "1,900719925.4740991,900719925.4740991\n"),
    ("mantissa_16_at", HEAD + "1,900719925.4740992,900719925.4740992\n"),
    ("mantissa_16_above", HEAD + "1,0.9007199254740993,9.999999999999999\n"),
    ("mantissa_19", HEAD + "1,99.99999999999999999,100.0\n"),
    ("mantissa_20", HEAD + "1,99.999999999999999999,100.0\n"),
    ("mantissa_26", HEAD + "1,4503599627370495.9999999999,"
                           "4503599627370496.0000000001\n"),
    ("mantissa_27", HEAD + "1,99.9999999999999999999999999,100.0\n"),
    ("ts_18_digits", HEAD + "999999999999999999,99.0,101.0\n"),
    ("ts_19_digits", HEAD + "1000000000000000000,99.0,101.0\n"
                            "-1000000000000000000,99.0,101.0\n"),
    ("ts_minus_zero", HEAD + "-1,99.0,101.0\n-0,99.0,101.0\n1,99.0,101.0\n"),
    ("ts_leading_zeros", HEAD + "007,99.0,101.0\n0000000000000000000008,"
                                "99.0,101.0\n"),
    ("ts_lone_minus", HEAD + "-,99.0,101.0\n"),
    ("ts_minus_inside", HEAD + "1-2,99.0,101.0\n"),
    ("price_trailing_point", HEAD + "1,1.,2.5\n"),
    ("price_leading_point", HEAD + "1,.5,2.5\n"),
    ("price_no_point", HEAD + "1,99,101.0\n"),
    ("price_negative", HEAD + "1,-99.0,101.0\n"),
    ("price_two_points", HEAD + "1,99.0.0,101.0\n"),
    ("price_leading_zeros", HEAD + "1,0099.50,000101.0\n"),
    ("row_past_max_length", HEAD + "1,99.0,101.0\n2," + "0" * 80
                            + "99.5,100.5\n"),
    ("crlf_no_final_newline", "ts_ns,bid,ask\r\n1,99.0,101.0\r\n"
                              "2,99.5,100.5"),
    ("cr_in_crlf", "ts_ns,bid,ask\r\n1,99.0,101.0\r\n2,99.5\r,100.5\r\n"),
    ("cr_cr_lf", HEAD + "1,99.0,101.0\r\r\n2,99.5,100.5\n"),
    ("cr_final", HEAD + "1,99.0,101.0\n2,99.5,100.5\r"),
    ("header_lone_cr", "ts_ns,bid,ask\r1,99.0,101.0\n"),
    ("non_ascii", HEAD + "1,99.0,101.0\n2,99.5,100.5\u00e9\n"),
    ("not_utf8", HEAD.encode("ascii") + b"1,99.0,101.0\n2,99.5,100.5\xff\n"),
    ("blank_mid", HEAD + "1,99.0,101.0\n\n2,99.5,100.5\n"),
    ("blank_first", HEAD + "\n1,99.0,101.0\n"),
    ("blank_trailing", HEAD + "1,99.0,101.0\n2,99.5,100.5\n\n"),
    ("blank_only", HEAD + "\n\n"),
    ("whitespace_line", HEAD + "1,99.0,101.0\n \n2,99.5,100.5\n"),
    ("no_final_newline", HEAD + "1,99.0,101.0\n2,99.5,100.5"),
    ("crlf", "ts_ns,bid,ask\r\n1,99.0,101.0\r\n2,99.5,100.5\r\n"),
    ("crlf_body", HEAD + "1,99.0,101.0\r\n2,99.5,100.5\r\n"),
    ("lone_cr", HEAD + "1,99.0\r,101.0\n2,99.5,100.5\n"),
    ("cr_splits_row", HEAD + "1,99.0,101.0\r2,99.5,100.5\n\n"),
    ("spaces", HEAD + " 1 , 99.0 ,101.0 \n2,\t99.5,100.5\xa0\n"),
    ("ts_nan", HEAD + "nan,99.0,101.0\n"),
    ("ts_inf", HEAD + "1,99.0,101.0\ninf,99.0,101.0\n"),
    ("ts_plus", HEAD + "+5,99.0,101.0\n6,99.0,101.0\n"),
    ("ts_underscore", HEAD + "1_000,99.0,101.0\n1_001,99.0,101.0\n"),
    ("ts_exponent", HEAD + "1,99.0,101.0\n1e3,99.0,101.0\n"),
    ("ts_decimal", HEAD + "1.0,99.0,101.0\n"),
    ("ts_negative", HEAD + "-5,99.0,101.0\n-4,99.0,101.0\n"),
    ("ts_int64_min", HEAD + "-9223372036854775808,99.0,101.0\n"
                            "-9223372036854775807,99.0,101.0\n"),
    ("ts_int64_max", HEAD + "9223372036854775806,99.0,101.0\n"
                            "9223372036854775807,99.0,101.0\n"),
    ("ts_above_int64", HEAD + "1,99.0,101.0\n9223372036854775808,99.0,101.0\n"),
    ("ts_below_int64", HEAD + "-9223372036854775809,99.0,101.0\n"),
    ("ts_huge", HEAD + "99999999999999999999,99.0,101.0\n"),
    ("ts_wraps", HEAD + "9223372036854775807,99.0,101.0\n"
                        "-9223372036854775808,99.0,101.0\n"),
    ("ts_full_span", HEAD + "-9223372036854775808,99.0,101.0\n"
                            "9223372036854775807,99.0,101.0\n"),
    ("price_underscore", HEAD + "1,9_9.0,101.0\n"),
    ("price_nan", HEAD + "1,99.0,101.0\n2,nan,101.0\n"),
    ("price_inf", HEAD + "1,99.0,inf\n"),
    ("price_empty", HEAD + "1,,101.0\n"),
    ("comment", HEAD + "1,99.0,101.0 # note\n"),
    ("extra_column", HEAD + "1,99.0,101.0\n2,99.5,100.5,7\n"),
    ("short_row", HEAD + "1,99.0,101.0\n2,99.5\n"),
    ("bom", "\ufeff" + HEAD + "1,99.0,101.0\n"),
    ("header_only", HEAD),
    ("header_no_newline", "ts_ns,bid,ask"),
    ("empty", ""),
    ("one_row", HEAD + "7,99.0,101.0\n"),
    ("nonpositive", HEAD + "1,99.0,101.0\n2,0.0,1.0\n"),
    ("crossed", HEAD + "1,99.0,101.0\n2,101.0,99.0\n"),
    ("equal_ts", HEAD + "1,99.0,101.0\n1,99.0,101.0\n"),
    ("two_errors", HEAD + "2,99.0,101.0\n1,99.0,101.0\n3,0.0,1.0\n"),
)

# the cases inside the bulk grammar: `_parse_bytes` returns every other
# file to the scan
BULK_EDGES = ("mantissa_15", "mantissa_16_below", "mantissa_16_at",
              "mantissa_16_above", "mantissa_19", "mantissa_20",
              "mantissa_26", "ts_18_digits",
              "ts_19_digits", "ts_minus_zero", "price_leading_zeros",
              "crlf_no_final_newline", "no_final_newline", "crlf",
              "crlf_body", "cr_final", "ts_negative", "ts_int64_min",
              "ts_int64_max", "ts_full_span", "one_row", "nonpositive",
              "crossed", "equal_ts", "two_errors", "ts_wraps")


def _write_edge(tmp_path, name):
    text = dict(EDGE_FILES)[name]
    p = tmp_path / f"{name}.csv"
    p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return p


def _outcome(path):
    """Loaded columns, or the ValidationError text."""
    try:
        s = load_csv(path)
    except ValidationError as e:
        return str(e)
    return s.ts.tolist(), s.bid.tolist(), s.ask.tolist()


def _scan_outcome(path):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(market_data, "_parse_bytes", lambda path: None)
        return _outcome(path)


def _bulk_outcome(path):
    def no_scan(path, body):
        raise AssertionError("the per-row scan ran")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(market_data, "_scan_rows", no_scan)
        return _outcome(path)


def _random_series(rng):
    """Prices whose canonical text has at most 19 digits, from 0.5 up to
    below 10**18: with up to 10 decimals below 1e9, in eighths up to 1e15,
    and whole from 2**52 up."""
    n = int(rng.integers(1, 400))
    ts = np.cumsum(rng.integers(1, 5 * SEC, n)) - int(rng.integers(0, SEC))
    kind = int(rng.integers(0, 4))
    if kind < 2:
        top = 500.0 if kind == 0 else 1e9 - 1.0
        bid = np.round(rng.uniform(0.5, top, n), int(rng.integers(0, 12)))
        bid = np.maximum(bid, 1e-10)
        ask = bid + np.round(rng.exponential(0.05, n), int(rng.integers(0, 12)))
    elif kind == 2:
        bid = rng.integers(4, 8 * 10**15, n) / 8.0
        ask = bid + rng.integers(0, 80, n) / 8.0
    else:
        bid = rng.integers(2**52, 10**18 - 2**20, n).astype(np.float64)
        ask = bid + rng.integers(0, 2**16, n).astype(np.float64)
    return TickSeries(ts, bid, ask)


def _corrupt(rng, lines):
    """Break one data line (index >= 1) in a way the loader must reject."""
    i = int(rng.integers(1, len(lines)))
    t, b, a = lines[i].split(",")
    kind = int(rng.integers(0, 5))
    if kind == 0:
        lines[i] = f"{t},{a},{b}" if a != b else f"{t},{b},{b}x"
    elif kind == 1:
        lines[i] = f"{t},-{b},{a}"
    elif kind == 2:
        lines[i] = lines[i - 1] if i > 1 else f"{t},{b}"
    elif kind == 3:
        lines[i] = ""
    else:
        lines[i] = f"{t},{b},{a},0"


class TestBulkMatchesScan:
    @pytest.mark.parametrize("name,text", EDGE_FILES,
                             ids=[name for name, _ in EDGE_FILES])
    def test_edge_files(self, tmp_path, name, text):
        p = _write_edge(tmp_path, name)
        assert _outcome(p) == _scan_outcome(p)

    @pytest.mark.parametrize("name", [name for name, _ in EDGE_FILES])
    def test_bulk_grammar_edges(self, tmp_path, name):
        p = _write_edge(tmp_path, name)
        columns = market_data._parse_bytes(p)
        assert (columns is not None) == (name in BULK_EDGES)
        want = _scan_outcome(p)
        if columns is not None and not isinstance(want, str):
            assert tuple(c.tolist() for c in columns) == want

    def test_edge_outcomes(self, tmp_path):
        # a few pinned outcomes, so both paths cannot drift together
        want = {"blank_mid": "malformed row at line 3",
                "blank_trailing": "malformed row at line 4",
                "lone_cr": "malformed row at line 2",
                "cr_splits_row": "malformed row at line 4",
                "bom": "malformed header",
                "header_only": "empty file",
                "ts_exponent": "malformed row at line 3",
                "ts_inf": "malformed row at line 3",
                "extra_column": "malformed row at line 3",
                "two_errors": "non-monotone timestamp at line 3",
                "ts_above_int64": "malformed row at line 3",
                "ts_below_int64": "malformed row at line 2",
                "ts_huge": "malformed row at line 2",
                "ts_wraps": "non-monotone timestamp at line 3"}
        files = dict(EDGE_FILES)
        for name, message in want.items():
            p = tmp_path / f"{name}.csv"
            p.write_bytes(files[name].encode("utf-8"))
            assert message in _outcome(p), name
        accepted = {"no_final_newline": [1, 2], "crlf": [1, 2],
                    "crlf_body": [1, 2],
                    "spaces": [1, 2], "ts_plus": [5, 6],
                    "ts_int64_min": [-2**63, 1 - 2**63],
                    "ts_int64_max": [2**63 - 2, 2**63 - 1],
                    "ts_full_span": [-2**63, 2**63 - 1],
                    "ts_underscore": [1000, 1001], "ts_negative": [-5, -4]}
        for name, ts in accepted.items():
            p = tmp_path / f"{name}.csv"
            p.write_bytes(files[name].encode("utf-8"))
            assert _outcome(p)[0] == ts, name

    def test_full_span_gap_does_not_wrap(self, tmp_path):
        # the one gap is 2**64 - 1 ns, past int64: np.diff would wrap it
        # and the monotonicity check would reject the file
        p = tmp_path / "span.csv"
        p.write_bytes(dict(EDGE_FILES)["ts_full_span"].encode("utf-8"))
        s = load_csv(p)
        assert s.ts.tolist() == [-2**63, 2**63 - 1]
        again = tmp_path / "again.csv"
        write_csv(s, again)
        assert again.read_bytes() == p.read_bytes()

    def test_compressed_suffix_is_still_plain_text(self, tmp_path):
        for suffix in (".gz", ".bz2", ".xz"):
            p = tmp_path / f"ticks{suffix}"
            p.write_text(HEAD + "1,99.0,101.0\n2,99.5,100.5\n", encoding="utf-8")
            assert _bulk_outcome(p) == _scan_outcome(p), suffix

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            p = tmp_path / f"r{trial}.csv"
            write_csv(_random_series(rng), p)
            # the canonical form never needs the scan
            assert _bulk_outcome(p) == _scan_outcome(p)
            again = tmp_path / f"r{trial}b.csv"
            write_csv(load_csv(p), again)
            assert again.read_bytes() == p.read_bytes()
            lines = p.read_text(encoding="utf-8").split("\n")[:-1]
            if len(lines) > 1:
                _corrupt(rng, lines)
                p.write_text("\n".join(lines) + "\n", encoding="utf-8")
                got = _outcome(p)
                assert isinstance(got, str), trial
                assert got == _scan_outcome(p), trial

    @pytest.mark.parametrize("read_bytes", [1, 3, 16, 100])
    def test_rows_straddle_reads(self, tmp_path, read_bytes):
        # at 16 bytes a read is shorter than any row of the series
        rng = np.random.default_rng(read_bytes)
        p = tmp_path / "r.csv"
        write_csv(_random_series(rng), p)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(p.read_bytes().replace(b"\n", b"\r\n")[:-2])
        with pytest.MonkeyPatch.context() as m:
            m.setattr(market_data, "_READ_BYTES", read_bytes)
            for path in (p, crlf):
                assert market_data._parse_bytes(path) is not None
                assert _bulk_outcome(path) == _scan_outcome(path)
            for name, _ in EDGE_FILES:
                path = _write_edge(tmp_path, name)
                columns = market_data._parse_bytes(path)
                assert (columns is not None) == (name in BULK_EDGES), name
                assert _outcome(path) == _scan_outcome(path), name

    def test_random_decimals_parse_exactly(self, tmp_path):
        # digit strings of every length the parser takes, leading zeros
        # included, against Python's correctly rounded int() and float()
        rng = np.random.default_rng(15)

        def digits(k):
            return "".join(map(str, rng.integers(0, 10, k).tolist()))

        def price():
            # M as `total` digits, leading zeros included: read as one
            # integer below 20 digits, and cast from its text up to 26
            total = int(rng.integers(2, 27))
            text = digits(total)
            point = int(rng.integers(1, total))
            return f"{text[:point]}.{text[point:]}"

        n = 3000
        ts = [("-" if rng.random() < 0.3 else "") + digits(int(rng.integers(1, 19)))
              for _ in range(n)]
        bid = [price() for _ in range(n)]
        ask = [price() for _ in range(n)]
        p = tmp_path / "digits.csv"
        p.write_text(HEAD + "".join(f"{t},{b},{a}\n"
                                    for t, b, a in zip(ts, bid, ask)),
                     encoding="utf-8")
        got_ts, got_bid, got_ask = market_data._parse_bytes(p)
        assert got_ts.tolist() == [int(t) for t in ts]
        for got, text in ((got_bid, bid), (got_ask, ask)):
            want = np.array([float(x) for x in text])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestWidePrices:
    """Prices of 20 to 26 digits are cast from their text, without the
    scan; at 27 the scan takes the file."""

    def test_write_csv_prices_from_1e9_stay_bulk(self, tmp_path):
        # from 1e9 to 2**52 `write_csv` writes a price with a fraction with
        # 20 or more digits, such as 10000000511.8216247559
        rng = np.random.default_rng(20)
        n = 5000
        bid = np.exp(rng.uniform(np.log(1e9), np.log(2.0**52), n))
        bid[0] = 10000000511.8216247559
        p = tmp_path / "big.csv"
        write_csv(TickSeries(np.arange(1, n + 1), bid,
                             bid + rng.exponential(1.0, n)), p)
        rows = p.read_bytes().split(b"\n")[1:-1]
        assert rows[0].split(b",")[1] == b"10000000511.8216247559"
        digits = [len(field) - 1 for row in rows for field in row.split(b",")[1:]]
        assert min(digits) < 20 and max(digits) >= 20
        assert _bulk_outcome(p) == _scan_outcome(p)

    @pytest.mark.parametrize("total", [19, 20, 26])
    def test_prices_of_n_digits_equal_the_scan(self, tmp_path, total):
        rng = np.random.default_rng(total)
        rows = []
        for t in range(1, 501):
            text = "".join(map(str, rng.integers(0, 10, total).tolist()))
            text = str(int(rng.integers(1, 10))) + text[1:]
            point = int(rng.integers(1, total))
            rows.append(f"{t},{text[:point]}.{text[point:]},"
                        f"{text[:point]}.{text[point:]}\n")
        p = tmp_path / f"d{total}.csv"
        p.write_text(HEAD + "".join(rows), encoding="utf-8")
        got = _bulk_outcome(p)
        want = _scan_outcome(p)
        assert np.array_equal(np.array(got[1]).view(np.int64),
                              np.array(want[1]).view(np.int64))
        assert got == want


def _oracle_csv(series):
    """The per-row f-string writer the array formatter must match."""
    def price(x):
        text = f"{x:.10f}".rstrip("0")
        return text + "0" if text.endswith(".") else text
    rows = (f"{t},{price(b)},{price(a)}\n" for t, b, a in
            zip(series.ts.tolist(), series.bid.tolist(), series.ask.tolist()))
    return ("ts_ns,bid,ask\n" + "".join(rows)).encode("utf-8")


def _near_ties():
    """Prices 1 + f whose f * 1e10 is 0.5 + k/2**42 past an integer, |k| small.

    p = fl(f * 1e10) rounds onto the tie exactly, so only the product's
    error term says which way the 10th decimal goes.
    """
    mod = 2**42
    inv = pow(5**10, -1, mod)
    out = []
    for k in (-3, -2, -1, 1, 2, 3, 1000, -1000):
        m = (2**41 + k) * inv % mod
        for j in (0, 1, 77, 1023):  # larger j puts f * 1e10 near 1e10
            out.append(1.0 + (m + j * mod) / 2.0**52)
    return out


def _tiny_and_carry_prices():
    around = [5e-11, 1.5e-10, 2.5e-10, 1e-10, 0.99999999995, 9.99999999995,
              99.99999999995, 0.5]
    values = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-20,
              4.9999999999e-11, float(np.nextafter(1.0, 0.0)),
              float(np.nextafter(100.0, 0.0)), 99.99999999996,
              2.0**52 - 0.5, float(np.nextafter(2.0**52, 0.0))]
    for x in around:
        values += [x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, 1.0)),
                   float(np.nextafter(np.nextafter(x, 1.0), 1.0))]
    return values


class TestWriteCsvMatchesOracle:
    """The array formatter against the per-row f-string writer, byte for byte."""

    @staticmethod
    def _check(tmp_path, ts, bid, ask=None):
        bid = np.asarray(bid, dtype=np.float64)
        ask = bid if ask is None else np.asarray(ask, dtype=np.float64)
        series = TickSeries(ts, bid, ask)
        p = tmp_path / "w.csv"
        write_csv(series, p)
        got, want = p.read_bytes(), _oracle_csv(series)
        if got != want:
            bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n"))
                   if g != w]
            pytest.fail(f"{len(bad)} rows differ, first {bad[:3]}"
                        if bad else "lengths differ")

    def test_random_prices(self, tmp_path):
        rng = np.random.default_rng(41)
        n = 20_000
        bid = np.exp(rng.uniform(np.log(1e-6), np.log(1e9), n))
        short = rng.random(n) < 0.5  # half carry few decimals, as quotes do
        bid[short] = np.maximum(np.round(bid[short], int(rng.integers(0, 12))),
                                1e-6)
        ask = bid + rng.exponential(0.05, n)
        ts = np.cumsum(rng.integers(1, 5 * SEC, n)) - 10**13
        self._check(tmp_path, ts, bid, ask)

    def test_exact_binary_ties_and_neighbours(self, tmp_path):
        # k + odd/2048 has 11 decimals ending in 5: an exact tie at the 10th
        ties = (np.array([0.0, 1.0, 100.0, 12345.0])[:, None]
                + (2 * np.arange(1024) + 1) / 2048).ravel()
        prices = np.concatenate([ties, np.nextafter(ties, 0.0),
                                 np.nextafter(ties, np.inf)])
        self._check(tmp_path, np.arange(1, prices.size + 1), prices)

    def test_near_ties_decided_by_the_error_term(self, tmp_path):
        prices = _near_ties()
        self._check(tmp_path, np.arange(1, len(prices) + 1), prices)

    def test_tiny_prices_and_carries(self, tmp_path):
        prices = _tiny_and_carry_prices()
        self._check(tmp_path, np.arange(1, len(prices) + 1), prices)

    def test_prices_from_2_to_the_52(self, tmp_path):
        big = [2.0**52, 2.0**52 + 1, 2.0**53, 1e17, 2.0**64, 1e300,
               float(np.finfo(np.float64).max)]
        # bulk rows between and around the rows that take the fallback
        bid = [99.5, *big, 0.25, 2.0**52, 100.0, float(np.finfo(np.float64).max)]
        ask = [100.5, *big, 2.0**60, 2.0**52, 100.125,
               float(np.finfo(np.float64).max)]
        self._check(tmp_path, np.arange(1, len(bid) + 1), bid, ask)

    def test_timestamp_edges(self, tmp_path):
        i64 = np.iinfo(np.int64)
        ts = np.array([i64.min, i64.min + 1, -10**18, -5, -1, 0, 1, 9,
                       10**18, i64.max - 1, i64.max])
        self._check(tmp_path, ts, np.full(ts.size, 99.0), np.full(ts.size, 101.0))
        self._check(tmp_path, np.array([0]), [1.0])
        self._check(tmp_path, np.array([i64.min]), [1.0])

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_lengths_around_the_chunk(self, tmp_path, shift):
        chunk = market_data._CHUNK_ROWS
        n = chunk + shift
        rng = np.random.default_rng(n)
        bid = np.round(rng.uniform(1.0, 200.0, n), 6)
        ask = bid + 0.01
        ask[[0, chunk - 2, n - 1]] = 2.0**53  # fallbacks at both chunk ends
        ts = np.cumsum(rng.integers(1, SEC, n)) - SEC * n // 2
        self._check(tmp_path, ts, bid, ask)

    def test_one_row(self, tmp_path):
        self._check(tmp_path, np.array([7]), [99.0], [101.0])


class TestFormatPrice:
    def test_trims_trailing_zeros(self):
        assert format_price(99.0) == "99.0"
        assert format_price(99.5) == "99.5"
        assert format_price(100.0000000001) == "100.0000000001"

    def test_round_trips_short_decimals(self):
        for text in ("99.5", "100.7", "0.0001", "123456.123456789"):
            assert format_price(float(text)) == text


class TestMid:
    def test_series_mid(self):
        s = TickSeries(np.array([1, 2]), np.array([99.0, 100.0]),
                       np.array([101.0, 102.0]))
        assert list(s.mid) == [100.0, 101.0]


class TestSeriesValidation:
    def test_rejects_crossed(self):
        with pytest.raises(ValidationError):
            TickSeries(np.array([1]), np.array([101.0]), np.array([99.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TickSeries(np.array([], dtype=np.int64),
                       np.array([]), np.array([]))

    def test_rejects_nonincreasing(self):
        with pytest.raises(ValidationError):
            TickSeries(np.array([2, 2]), np.array([1.0, 1.0]),
                       np.array([1.0, 1.0]))

    def test_window(self):
        s = TickSeries(np.arange(1, 6), np.full(5, 99.0), np.full(5, 101.0))
        w = s.window(1, 4)
        assert list(w.ts) == [2, 3, 4]


class TestGenSynthetic:
    def test_zero_noise_constant_quotes(self):
        s = gen_synthetic(SyntheticSpec(n_ticks=100, sigma_noise=0.0,
                                        sigma_signal=0.0, spread_bps=2.0, seed=1))
        assert np.all(s.mid == s.mid[0])
        assert np.all(s.bid == s.bid[0])
        assert s.bid[0] == pytest.approx(100.0 * (1 - 1e-4), abs=1e-12)
        assert s.ask[0] == pytest.approx(100.0 * (1 + 1e-4), abs=1e-12)

    def test_seed_determinism_bytes(self, tmp_path):
        spec = SyntheticSpec(n_ticks=500, sigma_noise=4e-4, phi=0.5,
                             sigma_signal=2e-4, seed=42)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(gen_synthetic(spec), a)
        write_csv(gen_synthetic(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_series(self):
        s1 = gen_synthetic(SyntheticSpec(n_ticks=50, seed=1))
        s2 = gen_synthetic(SyntheticSpec(n_ticks=50, seed=2))
        assert not np.array_equal(s1.bid, s2.bid)

    def test_global_random_state_untouched(self):
        np.random.seed(123)
        want = np.random.random(4)
        np.random.seed(123)
        gen_synthetic(SyntheticSpec(n_ticks=200, phi=0.9, sigma_signal=1e-4, seed=9))
        got = np.random.random(4)
        assert np.array_equal(want, got)

    def test_planted_signal_autocorrelation(self):
        # AR(1) signal implies positive lag-1 autocorrelation of log returns
        spec = SyntheticSpec(n_ticks=100_000, sigma_noise=5e-4, phi=0.9,
                             sigma_signal=2e-4, seed=7)
        r = np.diff(np.log(gen_synthetic(spec).mid))
        r0, r1 = r[:-1], r[1:]
        c = np.corrcoef(r0, r1)[0, 1]
        assert c > 2.0 / np.sqrt(r.size)

    def test_no_signal_no_autocorrelation(self):
        spec = SyntheticSpec(n_ticks=100_000, sigma_noise=5e-4, seed=7)
        r = np.diff(np.log(gen_synthetic(spec).mid))
        c = np.corrcoef(r[:-1], r[1:])[0, 1]
        assert abs(c) < 3.0 / np.sqrt(r.size)

    def test_decay_schedule_reaches_target(self):
        spec = SyntheticSpec(n_ticks=1000, phi=0.9, sigma_signal=3e-4,
                             seed=0, decay_to=0.0)
        sched = signal_vol_schedule(spec)
        assert sched[0] == 3e-4
        assert sched[-1] == 0.0
        assert np.all(np.diff(sched) < 0)

    def test_decay_shrinks_return_variance(self):
        spec = SyntheticSpec(n_ticks=40_000, sigma_noise=1e-5, phi=0.9,
                             sigma_signal=5e-4, seed=5, decay_to=0.0)
        r = np.diff(np.log(gen_synthetic(spec).mid))
        head, tail = r[:4000], r[-4000:]
        assert tail.var() < 0.25 * head.var()

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(n_ticks=5000, sigma_noise=4e-4, phi=0.0,
                      sigma_signal=2e-4, seed=1),
        SyntheticSpec(n_ticks=5000, sigma_noise=4e-4, phi=0.9,
                      sigma_signal=2e-4, seed=2),
        SyntheticSpec(n_ticks=5000, sigma_noise=4e-4, phi=-0.5,
                      sigma_signal=2e-4, seed=3),
        SyntheticSpec(n_ticks=5000, sigma_noise=4e-4, phi=0.999,
                      sigma_signal=2e-4, seed=4),
        SyntheticSpec(n_ticks=5000, sigma_noise=1e-5, phi=0.9,
                      sigma_signal=5e-4, seed=5, decay_to=0.0),
        SyntheticSpec(n_ticks=5000, sigma_noise=4e-4, phi=0.9,
                      sigma_signal=0.0, seed=6),
        SyntheticSpec(n_ticks=2, sigma_noise=4e-4, phi=0.9,
                      sigma_signal=2e-4, seed=7),
    ], ids=["phi0", "phi0.9", "phi-0.5", "phi0.999", "decay", "no_signal",
            "two_ticks"])
    def test_matches_lfilter_oracle(self, spec):
        lfilter = pytest.importorskip("scipy.signal").lfilter
        rng = np.random.default_rng(spec.seed)
        n = spec.n_ticks
        eps = rng.normal(0.0, spec.sigma_noise, n - 1) if spec.sigma_noise > 0 \
            else np.zeros(n - 1)
        eta = rng.standard_normal(n - 1) * signal_vol_schedule(spec)
        s = np.concatenate(([0.0], lfilter([1.0], [1.0, -spec.phi], eta)))
        mid_px = np.exp(np.log(100.0) + np.concatenate(
            ([0.0], np.cumsum(s[:-1] + eps))))
        assert gen_synthetic(spec).mid.tobytes() == \
            ((mid_px * (1.0 - 5e-5) + mid_px * (1.0 + 5e-5)) / 2.0).tobytes()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_ticks=1)
        with pytest.raises(ValidationError):
            SyntheticSpec(n_ticks=10, phi=1.0)
        with pytest.raises(ValidationError):
            SyntheticSpec(n_ticks=10, sigma_noise=-1e-4)
        with pytest.raises(ValidationError):
            SyntheticSpec(n_ticks=10, dt_ns=0)
        # the last timestamp is dt_ns * n_ticks, which must fit in int64
        last = gen_synthetic(SyntheticSpec(n_ticks=3, dt_ns=(2**63 - 1) // 3))
        assert last.ts.tolist()[-1] == (2**63 - 1) // 3 * 3
        with pytest.raises(ValidationError, match="dt_ns \\* n_ticks"):
            SyntheticSpec(n_ticks=3, dt_ns=(2**63 - 1) // 3 + 1)
        for name in ("sigma_noise", "phi", "sigma_signal", "spread_bps",
                     "decay_to"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValidationError, match=f"{name} must be finite"):
                    SyntheticSpec(n_ticks=10, **{name: value})
