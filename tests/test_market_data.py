import csv
import datetime as dt
import io
import itertools
import os
import random
import threading
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_series, random_ohlcv
from tabacktest import errors, market_data
from tabacktest.market_data import (
    STRICT,
    OhlcvSeries,
    _parse_stream,
    parse_csv,
    serialize_csv,
    slice_years,
)


def parse_text(text, mode=STRICT, use_adjusted=False, symbol="series"):
    """``parse_csv`` of a file holding ``text``, read from memory by the
    row loop alone."""
    return _parse_stream(io.StringIO(text), mode, use_adjusted, symbol)


def readers(directory):
    """``parse_text``, and ``parse_csv`` of a file in ``directory`` holding
    the text: its scan, its decoding and, for a plain file, its chunks."""
    path = directory / "series.csv"

    def parse_file(text, mode=STRICT, use_adjusted=False):
        path.write_bytes(text.encode("utf-8"))
        return parse_csv(path, mode=mode, use_adjusted=use_adjusted)

    return parse_text, parse_file


def outcome(parse, text, mode, use_adjusted=False):
    """The rows and warnings of a parse as ``naive_parse`` gives them, or
    the error kind and row. A parsed series, which the parse alone checks,
    must also pass every check of the public constructor unchanged."""
    try:
        parsed = parse(text, mode=mode, use_adjusted=use_adjusted)
    except errors.EngineError as exc:
        return exc.kind, getattr(exc, "row", None)
    series = parsed.series
    assert OhlcvSeries(series.symbol, series.dates, series.opens, series.highs, series.lows,
                       series.closes, series.volumes) == series
    return _columns(series), parsed.warnings


def expected_outcome(text, mode, use_adjusted=False):
    try:
        return oracles.naive_parse(text, mode, use_adjusted=use_adjusted)
    except oracles.OracleParseError as exc:
        return exc.kind, exc.row


def serialize_text(series):
    buffer = io.StringIO()
    serialize_csv(series, buffer)
    return buffer.getvalue()


WELL_FORMED = """date,open,high,low,close,volume
2021-01-04,10.0,11.0,9.5,10.5,1000
2021-01-05,10.5,11.5,10.0,11.0,1100
2021-01-06,11.0,12.0,10.5,11.5,900
"""

CLOSE_ABOVE_HIGH = """date,open,high,low,close,volume
2021-01-04,10.0,11.0,9.5,10.5,1000
2021-01-05,10.5,11.5,10.0,12.25,1100
2021-01-06,11.0,12.0,10.5,11.5,900
"""


def test_well_formed_round_trip():
    parsed = parse_text(WELL_FORMED)
    assert len(parsed.series) == 3
    assert parsed.warnings == 0
    assert parsed.series.dates[0] == dt.date(2021, 1, 4)
    assert tuple(parsed.series.closes) == (10.5, 11.0, 11.5)


def test_strict_rejects_close_above_high_with_row_number():
    with pytest.raises(errors.InvariantViolation) as err:
        parse_text(CLOSE_ABOVE_HIGH, mode="strict")
    assert err.value.row == 2


def test_lenient_clamps_close_and_counts_warning():
    parsed = parse_text(CLOSE_ABOVE_HIGH, mode="lenient")
    assert parsed.warnings == 1
    assert parsed.series.closes[1] == parsed.series.highs[1] == 11.5
    # re-read the clamped output: it is now strict-valid
    round_tripped = parse_text(serialize_text(parsed.series), mode="strict")
    assert round_tripped.series == parsed.series


def test_missing_column():
    with pytest.raises(errors.MissingColumn):
        parse_text("date,open,high,low,volume\n2021-01-04,1,2,0.5,10\n")


def test_unparsable_row_strict_vs_lenient():
    text = WELL_FORMED + "2021-01-07,abc,12.0,10.5,11.5,900\n"
    with pytest.raises(errors.UnparsableRow) as err:
        parse_text(text, mode="strict")
    assert err.value.row == 4
    parsed = parse_text(text, mode="lenient")
    assert len(parsed.series) == 3
    assert parsed.warnings == 1


@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_record_over_csv_field_limit_is_unparsable_row(mode, tmp_path):
    long_row = "2021-01-07," + "1" * 200_000 + ",12.0,10.5,11.5,900\n"
    for parse in readers(tmp_path):
        with pytest.raises(errors.UnparsableRow) as err:
            parse(WELL_FORMED + long_row, mode=mode)
        assert err.value.row == 4
        with pytest.raises(errors.UnparsableRow) as err:
            parse("date,open,high,low,close,volume," + "x" * 200_000 + "\n", mode=mode)
        assert err.value.row == 0


def test_non_utf8_file_is_undecodable_input(tmp_path):
    path = tmp_path / "bars.csv"
    path.write_bytes(WELL_FORMED.encode() + b"2021-01-07,11.0\xff,12.0,10.5,11.5,900\n")
    for mode in ("strict", "lenient"):
        with pytest.raises(errors.UndecodableInput):
            parse_csv(path, mode=mode)


def test_non_monotonic_dates_rejected_in_both_modes():
    text = """date,open,high,low,close,volume
2021-01-05,10.0,11.0,9.5,10.5,1000
2021-01-04,10.5,11.5,10.0,11.0,1100
"""
    for mode in ("strict", "lenient"):
        with pytest.raises(errors.NonMonotonicDates) as err:
            parse_text(text, mode=mode)
        assert err.value.row == 2


def test_empty_series():
    with pytest.raises(errors.EmptySeries):
        parse_text("date,open,high,low,close,volume\n")


def test_missing_file():
    with pytest.raises(errors.MissingInput):
        parse_csv("/nonexistent/path.csv")


def test_use_adjusted_maps_adj_close():
    text = """date,open,high,low,close,adj_close,volume
2021-01-04,10.0,11.0,9.5,10.5,10.0,1000
"""
    parsed = parse_text(text, use_adjusted=True)
    assert parsed.series.closes[0] == 10.0
    with pytest.raises(errors.MissingColumn):
        parse_text(WELL_FORMED, use_adjusted=True)


def test_non_positive_price_strict_and_lenient():
    text = """date,open,high,low,close,volume
2021-01-04,10.0,11.0,9.5,10.5,1000
2021-01-05,-1.0,11.5,10.0,11.0,1100
"""
    with pytest.raises(errors.InvariantViolation):
        parse_text(text, mode="strict")
    parsed = parse_text(text, mode="lenient")
    assert len(parsed.series) == 1
    assert parsed.warnings == 1


def test_serialization_round_trip_random_series():
    rng = random.Random(7)
    series = random_ohlcv(rng, 50)
    parsed = parse_text(serialize_text(series), symbol=series.symbol)
    assert parsed.series == series
    assert parsed.warnings == 0



@pytest.mark.parametrize("reader", ["text", "file"])
def test_unknown_mode_is_invalid_argument(reader, tmp_path):
    path = tmp_path / "bars.csv"
    path.write_text(CLOSE_ABOVE_HIGH)
    with pytest.raises(errors.InvalidArgument):
        if reader == "text":
            parse_text(CLOSE_ABOVE_HIGH, mode="bogus")
        else:
            parse_csv(path, mode="bogus")


_DAYS = [dt.date(2021, 1, 4), dt.date(2021, 1, 5), dt.date(2021, 1, 6)]


@pytest.mark.parametrize("change, kind, row", [
    ({"dates": []}, "EmptySeries", None),
    ({"volumes": [1, 1]}, "LengthMismatch", None),
    ({"dates": [_DAYS[0], _DAYS[2], _DAYS[1]]}, "NonMonotonicDates", 3),
    ({"dates": [_DAYS[0], _DAYS[0], _DAYS[1]]}, "NonMonotonicDates", 2),
    ({"opens": [2.0, 0.0, 2.0]}, "InvariantViolation", 2),
    ({"closes": [2.0, 2.0, float("nan")]}, "InvariantViolation", 3),
    ({"highs": [float("inf"), 3.0, 3.0]}, "InvariantViolation", 1),
    ({"lows": [1.0, 3.5, 1.0]}, "InvariantViolation", 2),
    ({"volumes": [1, 1, -1]}, "InvariantViolation", 3),
])
def test_series_invariants_raise_engine_errors(change, kind, row):
    columns = {"dates": _DAYS, "opens": [2.0] * 3, "highs": [3.0] * 3,
               "lows": [1.0] * 3, "closes": [2.0] * 3, "volumes": [1] * 3}
    columns.update(change)
    with pytest.raises(errors.EngineError) as err:
        OhlcvSeries("s", **columns)
    assert err.value.kind == kind
    assert getattr(err.value, "row", None) == row


# one row after WELL_FORMED that breaks one rule of the parse, and the
# error of a strict parse: with no check of the series after the parse,
# each rule stands on the parse's own checks alone
_BROKEN_ROWS = {
    "low 0": ("2021-01-07,1.0,2.0,0,1.5,10", "InvariantViolation"),
    "low < 0": ("2021-01-07,1.0,2.0,-1.0,1.5,10", "InvariantViolation"),
    "open 0": ("2021-01-07,0.0,12.0,10.0,11.0,10", "InvariantViolation"),
    "high < 0 below low": ("2021-01-07,5.0,-1.0,4.0,4.5,10", "InvariantViolation"),
    "open < low": ("2021-01-07,9.0,12.0,10.0,11.0,10", "InvariantViolation"),
    "open > high": ("2021-01-07,13.0,12.0,10.0,11.0,10", "InvariantViolation"),
    "close < low": ("2021-01-07,11.0,12.0,10.0,9.0,10", "InvariantViolation"),
    "close > high": ("2021-01-07,11.0,12.0,10.0,13.0,10", "InvariantViolation"),
    "low > high": ("2021-01-07,11.0,10.0,12.0,11.0,10", "InvariantViolation"),
    "volume < 0": ("2021-01-07,11.0,12.0,10.0,11.0,-10", "InvariantViolation"),
    "nan price": ("2021-01-07,11.0,nan,10.0,11.0,10", "UnparsableRow"),
    "inf price": ("2021-01-07,11.0,12.0,10.0,1e999,10", "UnparsableRow"),
    "repeated date": ("2021-01-06,11.0,12.0,10.0,11.0,10", "NonMonotonicDates"),
    "earlier date": ("2021-01-05,11.0,12.0,10.0,11.0,10", "NonMonotonicDates"),
    "fractional volume": ("2021-01-07,11.0,12.0,10.0,11.0,2.5", "UnparsableRow"),
    "volume 1e400": ("2021-01-07,11.0,12.0,10.0,11.0,1e400", "UnparsableRow"),
    "volume past the float range": ("2021-01-07,11.0,12.0,10.0,11.0," + "9" * 400,
                                    "UnparsableRow"),
}


@pytest.mark.parametrize("chunk", [1, 1 << 13], ids=["a chunk a line", "one chunk"])
@pytest.mark.parametrize("broken", list(_BROKEN_ROWS))
def test_each_rule_of_a_series_is_proven_by_the_parse(broken, chunk, tmp_path):
    row, kind = _BROKEN_ROWS[broken]
    text = WELL_FORMED + row + "\n" + "2021-01-08,11.0,12.0,10.0,11.0,10\n"
    with mock.patch.object(market_data, "_CHUNK_CHARS", chunk):
        for parse in readers(tmp_path):
            assert outcome(parse, text, "strict") == (kind, 4)
            assert outcome(parse, text, "lenient") == expected_outcome(text, "lenient")


def test_series_prices_are_read_only_views_and_dates_and_volumes_tuples():
    columns = {"dates": _DAYS[:2], "opens": [2.0, 2.0], "highs": [3.0, 3.0],
               "lows": [1.0, 1.0], "closes": [2.0, 2.5], "volumes": [1, 1]}
    series = OhlcvSeries("s", **columns)
    with pytest.raises(AttributeError):
        series.closes.append(3.0)
    with pytest.raises(TypeError):
        series.closes[0] = 3.0
    with pytest.raises(AttributeError):
        series.closes = (5.0, 6.0)
    with pytest.raises(AttributeError):
        series.symbol = "other"
    columns["closes"].append(3.0)
    columns["closes"][0] = 1.5
    assert tuple(series.closes) == (2.0, 2.5)
    assert series.volumes == (1, 1)
    assert series.dates == tuple(_DAYS[:2])
    assert len(series) == 2
    assert series == OhlcvSeries("s", _DAYS[:2], (2.0, 2.0), (3.0, 3.0), (1.0, 1.0),
                                 (2.0, 2.5), (1, 1))
    assert series != OhlcvSeries("s", **{**columns, "closes": [2.0, 2.25]})


def test_an_int_price_is_stored_as_its_float_and_a_series_is_not_hashable():
    series = OhlcvSeries("s", _DAYS[:2], [2, 2], [3, 3], [1, 1], [2, 3], [1, 1])
    assert [type(price) for price in series.closes] == [float, float]
    assert series == OhlcvSeries("s", _DAYS[:2], [2.0] * 2, [3.0] * 2, [1.0] * 2, [2.0, 3.0],
                                 [1, 1])
    with pytest.raises(TypeError, match="unhashable"):
        hash(series)


@pytest.mark.parametrize("text", [WELL_FORMED, WELL_FORMED.replace(",1000", ',"1000"')],
                         ids=["chunks", "row loop"])
def test_parsed_prices_are_float64_views_of_arrays(text, tmp_path, monkeypatch):
    """The parse appends the prices to arrays, never to a list of them all,
    and the series keeps those very arrays behind read-only views."""
    given = []
    from_parse = OhlcvSeries._from_parse.__func__

    def recording(cls, symbol, dates, *columns):
        given.append(columns)
        return from_parse(cls, symbol, dates, *columns)

    monkeypatch.setattr(OhlcvSeries, "_from_parse", classmethod(recording))
    series = readers(tmp_path)[1](text).series
    assert [type(column) for column in given[0]] == [array] * 4 + [list]
    for column, parsed in zip((series.opens, series.highs, series.lows, series.closes),
                              given[0]):
        assert isinstance(column, memoryview) and isinstance(column.obj, array)
        assert column.format == "d" and column.readonly
        assert column.nbytes == 8 * len(series)
        assert column.obj is parsed


def test_a_volume_past_64_bits_survives_a_round_trip(tmp_path):
    text = WELL_FORMED.replace(",1100", f",{10**19}")
    for parse in readers(tmp_path):
        parsed = parse(text).series
        assert parsed.volumes[1] == 10**19
        again = parse(serialize_text(parsed)).series
        assert again == parsed and again.volumes[1] == 10**19


@pytest.mark.parametrize("first", ["1000", "1e3", "1000.0"])
def test_an_integer_volume_is_read_exactly(first, tmp_path):
    """Also beside a volume that is read through its float."""
    text = (WELL_FORMED.replace(",1000", f",{first}").replace(",1100", f",{10**19 + 1}")
            .replace(",900", f",{2**53 + 1}"))
    for parse in readers(tmp_path):
        for mode in ("strict", "lenient"):
            parsed = parse(text, mode=mode).series
            assert parsed.volumes == (1000, 10**19 + 1, 2**53 + 1)
            assert parse(serialize_text(parsed)).series == parsed


@pytest.mark.parametrize("volume", ["1" + "0" * 4999, "1" + "0" * 400, "-" + "9" * 400],
                         ids=["past int's digit limit", "past the float range", "negative"])
def test_a_volume_past_the_float_range_is_unparsable(volume, tmp_path):
    text = WELL_FORMED.replace(",1100", f",{volume}")
    for parse in readers(tmp_path):
        with pytest.raises(errors.UnparsableRow) as err:
            parse(text, mode="strict")
        assert str(err.value) == f"row 2: volume is not an integer count: {volume!r}"
        parsed = parse(text, mode="lenient")
        assert parsed.series.volumes == (1000, 900)
        assert parsed.warnings == 1


def test_a_chunk_of_volumes_written_as_floats_reads_them_in_one_pass(tmp_path, monkeypatch):
    """Every volume of the chunk is a whole float below 2**53: the chunk
    reads the column through its floats, with no cell-by-cell step."""
    text = (WELL_FORMED.replace(",1000", ",1000.0").replace(",1100", ",1.1e3")
            .replace(",900", ",9e2"))
    for mode in ("strict", "lenient"):
        expected = expected_outcome(text, mode)
        assert expected[0][-1][-1] == 900
        for parse in readers(tmp_path):
            assert outcome(parse, text, mode) == expected
        monkeypatch.setattr(market_data, "_parse_volume", None)
        assert outcome(readers(tmp_path)[1], text, mode) == expected
        monkeypatch.undo()


@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_a_header_over_the_field_limit_with_short_fields_is_read(mode, tmp_path):
    """The header line alone is longer than the csv field limit; the parse
    of the file then matches the row loop's."""
    text = WELL_FORMED.replace("volume\n", "volume" + ",extra" * 12 + "\n").replace(
        "0\n", "0" + ",1" * 12 + "\n")
    limit = csv.field_size_limit(SMALL_FIELD_LIMIT)
    try:
        assert len(text.split("\n")[0]) > SMALL_FIELD_LIMIT >= max(map(len, text.split("\n")[1:]))
        expected = outcome(parse_text, text, mode)
        assert expected[0][-1][-1] == 900
        assert outcome(readers(tmp_path)[1], text, mode) == expected
    finally:
        csv.field_size_limit(limit)


def test_a_series_built_from_lists_equals_the_parsed_one(tmp_path):
    built = OhlcvSeries("series", _DAYS, [10.0, 10.5, 11.0], [11.0, 11.5, 12.0],
                        [9.5, 10.0, 10.5], [10.5, 11.0, 11.5], [1000, 1100, 900])
    for parse in readers(tmp_path):
        assert parse(WELL_FORMED).series == built


@pytest.mark.parametrize("length, bars_per_year", [(10, 0), (-1, 252)])
def test_slice_years_rejects_bad_arguments(length, bars_per_year):
    with pytest.raises(errors.InvalidParams):
        slice_years(length, bars_per_year)

@st.composite
def valid_series(draw):
    length = draw(st.integers(1, 40))
    day = dt.date(2015, 1, 2)
    columns = ([], [], [], [], [], [])
    for _ in range(length):
        low = draw(st.floats(0.01, 1e6, allow_nan=False, allow_infinity=False))
        high = low * (1.0 + draw(st.floats(0.0, 0.5, allow_nan=False)))
        open_ = min(max(draw(st.floats(0.01, 1e6, allow_nan=False)), low), high)
        close = min(max(draw(st.floats(0.01, 1e6, allow_nan=False)), low), high)
        volume = draw(st.integers(0, 10**12))
        for column, value in zip(columns, (day, open_, high, low, close, volume)):
            column.append(value)
        day += dt.timedelta(days=draw(st.integers(1, 5)))
    return OhlcvSeries("gen", *columns)


@given(series=valid_series())
def test_round_trip_field_level_equality(series):
    parsed = parse_text(serialize_text(series), symbol="gen")
    assert parsed.series == series
    assert parsed.warnings == 0


def test_slice_years_spec_examples():
    ranges = slice_years(2769, 252)
    assert len(ranges) == 11
    assert all(end - start == 252 for start, end in ranges[:10])
    assert ranges[-1] == (2520, 2769)
    assert slice_years(252, 252) == [(0, 252)]
    assert slice_years(10, 252) == [(0, 10)]
    assert slice_years(make_series([1.0] * 5), 2) == [(0, 2), (2, 4), (4, 5)]


@given(length=st.integers(0, 4000), bars_per_year=st.integers(1, 600))
def test_slice_years_partitions(length, bars_per_year):
    ranges = slice_years(length, bars_per_year)
    position = 0
    for start, end in ranges:
        assert start == position
        assert end > start
        assert end - start <= bars_per_year
        position = end
    assert position == length
    if length >= bars_per_year:
        assert all(end - start == bars_per_year for start, end in ranges[:-1])


def test_lenient_drop_order_against_repeated_date():
    """A non-finite row is dropped before its date counts; a non-positive
    row is dropped after, so a following repeat of its date is rejected."""
    head = "date,open,high,low,close,volume\n2021-01-04,10,11,9,10,100\n"
    repeat = "2021-01-05,10,11,9,10,100\n"
    parsed = parse_text(head + "2021-01-05,10,inf,9,10,100\n" + repeat, mode="lenient")
    assert [d.isoformat() for d in parsed.series.dates] == ["2021-01-04", "2021-01-05"]
    assert parsed.warnings == 1
    with pytest.raises(errors.NonMonotonicDates) as err:
        parse_text(head + "2021-01-05,10,11,-9,10,100\n" + repeat, mode="lenient")
    assert err.value.row == 3


def test_first_bad_price_cell_is_reported():
    text = "date,open,high,low,close,volume\n2021-01-04,nan,abc,9,10,100\n"
    with pytest.raises(errors.UnparsableRow) as err:
        parse_text(text, mode="strict")
    assert err.value.row == 1
    assert str(err.value) == "row 1: non-finite price 'nan'"


_BAD_PRICES = ("", " ", "nan", "inf", "-inf", "0", "-1.5", "abc", "1e999")
_VOLUMES = ("1000", "0", " 250 ", "1e3", "-5", "2.5", "", "nan", "abc", "10000000000000000001",
            "1" + "0" * 400, "-" + "9" * 400)


@st.composite
def dirty_csv(draw):
    """CSV text with adj_close, mostly clean rows and, at random, blank and
    short rows, bad or repeated dates, bad prices, swapped low/high,
    open/close outside [low, high] and bad volumes."""
    lines = ["date,open,high,low,close,adj_close,volume"]
    day = dt.date(2021, 1, 4)
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 19)) == 0:
            lines.append(draw(st.sampled_from(["", ",,,,,,", "  , "])))
            continue
        step = draw(st.integers(0, 40))
        day += dt.timedelta(days=-1 if step == 0 else 0 if step == 1 else 1 + step % 3)
        low = draw(st.integers(1, 2000)) / 8.0
        high = low + draw(st.integers(0, 80)) / 8.0
        inside = [low + draw(st.integers(0, 8)) * (high - low) / 8.0 for _ in range(3)]
        if draw(st.integers(0, 9)) == 0:
            low, high = high, low
        for i in range(3):
            if draw(st.integers(0, 9)) == 0:
                inside[i] = draw(st.sampled_from([low / 2.0, high * 2.0, 0.001, 5000.0]))
        cells = [day.isoformat(), repr(inside[0]), repr(high), repr(low),
                 repr(inside[1]), repr(inside[2]), draw(st.sampled_from(_VOLUMES[:3]))]
        for i in range(len(cells)):
            if draw(st.integers(0, 29)) == 0:
                pool = (("", "2021-02-30", "soon", "20210104", "2021-W01-1") if i == 0
                        else _VOLUMES if i == 6 else _BAD_PRICES)
                cells[i] = draw(st.sampled_from(pool))
        if draw(st.integers(0, 19)) == 0:
            cells = cells[:draw(st.integers(1, 6))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _columns(series):
    """The series as (date, open, high, low, close, volume) rows, read back
    from its canonical serialization."""
    return [
        (dt.date.fromisoformat(d), float(o), float(h), float(l), float(c), int(v))
        for d, o, h, l, c, v in (
            line.split(",") for line in serialize_text(series).splitlines()[1:]
        )
    ]


def test_parse_matches_naive_oracle(tmp_path):
    parsers = readers(tmp_path)

    @settings(max_examples=200, deadline=None)
    @given(text=dirty_csv(), mode=st.sampled_from(["strict", "lenient"]), adjusted=st.booleans())
    def check(text, mode, adjusted):
        expected = expected_outcome(text, mode, adjusted)
        for parse in parsers:
            assert outcome(parse, text, mode, adjusted) == expected

    check()


# 2021010700 and 20210107\u00e9 (nine characters, ten UTF-8 bytes) are dates
# to Python 3.11+ fromisoformat, which reads a basic date and any two bytes
@pytest.mark.parametrize("date", ["20210107", "2021-W01-4", "2021-01-7", " 2021-01-07x",
                                  "2021W01", "2021-W01", "2021W011", "2021010700",
                                  "20210107\u00e9"])
def test_a_date_other_than_yyyy_mm_dd_is_unparsable(date, tmp_path):
    text = WELL_FORMED + f"{date},11.5,12.5,11.0,12.0,800\n"
    for parse in readers(tmp_path):
        with pytest.raises(errors.UnparsableRow) as err:
            parse(text, mode="strict")
        assert str(err.value) == f"row 4: Invalid isoformat string: {date.strip()!r}"
        parsed = parse(text, mode="lenient")
        assert len(parsed.series) == 3
        assert parsed.warnings == 1


def _date_shapes():
    """The shapes (each character but a dash written x) of the cells that
    this interpreter's ``date.fromisoformat`` reads among the strings of up
    to ten digits, dashes and Ws, each also with one more character."""
    shapes = set()
    for size in range(1, 11):
        for chars in itertools.product("1-W", repeat=size):
            for tail in ("", "\u00e9", "\u20ac", "T", " ", "Z", "+"):
                cell = "".join(chars) + tail
                try:
                    dt.date.fromisoformat(cell)
                except ValueError:
                    continue
                shapes.add("".join("-" if c == "-" else "x" for c in cell))
    return sorted(shapes)


def test_the_date_dash_test_passes_only_columns_of_yyyy_mm_dd():
    """``_plain_chunk`` checks a date column by the dash at every 10th
    joined position from 7 alone: of the cells fromisoformat reads, that
    passes only a column whose every cell is YYYY-MM-DD, as
    ``_parse_date`` requires. Every column of one to six cells is walked."""
    shapes = _date_shapes()
    assert "xxxx-xx-xx" in shapes
    for n in range(1, 7):
        for column in itertools.product(shapes, repeat=n):
            if "".join(column)[7::10] == "-" * n:
                assert column == ("xxxx-xx-xx",) * n


@pytest.mark.parametrize("header, short_row, good_row, message", [
    ("date,open,high,low,close,volume", "2021-01-04,10.0,11.0,9.5,10.5",
     "2021-01-05,10.5,11.5,10.0,11.0,1100", "could not convert string to float: ''"),
    ("open,high,low,close,volume,date", "10.0,11.0,9.5,10.5,1000",
     "10.5,11.5,10.0,11.0,1100,2021-01-05", "Invalid isoformat string: ''"),
], ids=["volume", "date"])
def test_a_cell_missing_from_a_short_row_reads_as_empty(header, short_row, good_row, message,
                                                       tmp_path):
    text = f"{header}\n{short_row}\n{good_row}\n"
    for parse in readers(tmp_path):
        with pytest.raises(errors.UnparsableRow) as err:
            parse(text, mode="strict")
        assert str(err.value) == f"row 1: {message}"
        parsed = parse(text, mode="lenient")
        assert parsed.series.dates == (dt.date(2021, 1, 5),)
        assert parsed.warnings == 1


ADJUSTED = "date,open,high,low,close,adj_close,volume\n"
ADJUSTED_ROW = "2021-01-04,10.0,11.0,9.5,10.5,10.4,1000\n"


@pytest.mark.parametrize("text, row", [
    (ADJUSTED + ADJUSTED_ROW + "2021-01-05,10.5,11.5,10.0,1\x001.0,10.9,1100\n", 2),
    # adj_close is not read without use_adjusted
    (ADJUSTED + ADJUSTED_ROW + "2021-01-05,10.5,11.5,10.0,11.0,10.\x009,1100\n"
     + "2021-01-06,11.0,12.0,10.5,11.5,11.4,900\n", 2),
    ("date,open,high,low,close,adj_close,vol\x00ume\n" + ADJUSTED_ROW, 0),
], ids=["read cell", "unread cell", "header"])
@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_a_nul_ends_the_parse_as_an_unparsable_row(text, row, mode, tmp_path):
    path = tmp_path / "bars.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(errors.UnparsableRow) as err:
        parse_csv(path, mode=mode)
    assert err.value.row == row
    assert str(err.value).endswith("line contains NUL")


def _mutated_csv(draw):
    """The bytes of a small valid CSV with adj_close, with a few spans
    replaced by bytes drawn from CSV syntax, bad numbers and dates, NUL and
    invalid UTF-8."""
    data = bytearray((ADJUSTED + ADJUSTED_ROW + "2021-01-05,10.5,11.5,10.0,11.0,10.9,1100\n"
                      "2021-01-06,11.0,12.0,10.5,11.5,11.4,900\n").encode())
    pieces = [b"", b",", b"\n", b"\r", b"\r\n", b'"', b"\x00", b"\xff", b"\xc3", b"-", b".",
              b"e", b"9", b"0", b"nan", b"inf", b"1e999", b" ", b"2021-13-01", b"20210107",
              b"2021-W01-4", b"date", b"adj_close", "é".encode()]
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(data)))
        stop = min(len(data), start + draw(st.integers(0, 4)))
        data[start:stop] = draw(st.sampled_from(pieces))
    return bytes(data)


def test_fuzzed_bytes_raise_only_engine_errors(tmp_path):
    path = tmp_path / "bars.csv"

    @settings(max_examples=300, deadline=None)
    @given(data=st.composite(_mutated_csv)())
    def check(data):
        path.write_bytes(data)
        for mode in ("strict", "lenient"):
            for adjusted in (False, True):
                try:
                    parse_csv(path, mode=mode, use_adjusted=adjusted)
                except errors.EngineError:
                    pass

    check()


# a csv field limit that the clean rows below stay within, and lines that
# break it, so that a test cell can pass it without 131072 characters
SMALL_FIELD_LIMIT = 64

# each fault a plain chunk refuses, or that lenient mode repairs in one, and
# a non-ASCII cell, which may or may not convert
_CHUNK_FAULTS = ("short row", "long row", "blank line", "bad cell", "20210104", "old date",
                 "non-positive", "over the field limit", "low above high", "open above high",
                 "close below low", "negative volume", "non-ASCII cell", "volume form")


@st.composite
def chunked_csv(draw):
    """CSV text with adj_close (an unread column without use_adjusted) of
    clean rows and, at random rows, one of ``_CHUNK_FAULTS`` each; the
    text may then lose its last line break, quote a header name, end its
    lines with CRLF, end one line with a lone CR or hold a NUL."""
    rows = ["date,open,high,low,close,adj_close,volume"]
    day = dt.date(2021, 1, 4)
    for _ in range(draw(st.integers(1, 30))):
        low = draw(st.integers(1, 400)) / 4.0
        high = low + draw(st.integers(0, 40)) / 4.0
        open_, close = (low + draw(st.integers(0, 4)) * (high - low) / 4.0 for _ in range(2))
        cells = [day.isoformat(), repr(open_), repr(high), repr(low), repr(close), repr(close),
                 str(draw(st.integers(0, 10**6)))]
        fault = draw(st.sampled_from(_CHUNK_FAULTS + ("",) * 24))
        if fault == "short row":
            cells = cells[:draw(st.integers(1, 6))]
        elif fault == "long row":
            cells.append(draw(st.sampled_from(["", "1", "2021-01-04"])))
        elif fault == "blank line":
            rows.append(draw(st.sampled_from(["", ",,,,,,"])))
        elif fault == "bad cell":
            bad = draw(st.sampled_from(["", "abc", "nan", "1e999", "2.5"]))
            cells[draw(st.integers(1, 6))] = bad
        elif fault == "20210104":
            cells[0] = day.strftime("%Y%m%d")
        elif fault == "old date":
            cells[0] = (day - dt.timedelta(days=draw(st.integers(1, 3)))).isoformat()
        elif fault == "non-positive":
            cells[draw(st.integers(1, 5))] = draw(st.sampled_from(["0", "-1.5", "0.0"]))
        elif fault == "over the field limit":
            cells[5] = "9" * (SMALL_FIELD_LIMIT + 1)
        elif fault == "low above high":
            cells[2], cells[3] = cells[3], cells[2]
        elif fault == "open above high":
            cells[1] = repr(high * 2.0)
        elif fault == "close below low":
            cells[4] = repr(low / 2.0)
        elif fault == "negative volume":
            cells[6] = "-" + cells[6]
        elif fault == "volume form":
            cells[6] = draw(st.sampled_from(["10000000000000000001", "-10000000000000000001",
                                             "9" * 40, "1000.0", "1e3", "1_000", "+7", "1e400"]))
        elif fault == "non-ASCII cell":
            cells[draw(st.integers(1, 6))] = draw(st.sampled_from(
                ["\u00e9", "\uff11\uff12.5", "12\x85", "\u20283", "\u2029", "\u6caa\u6df1300"]))
        rows.append(",".join(cells))
        day += dt.timedelta(days=draw(st.integers(1, 3)))
    text = "\n".join(rows) + "\n"
    variant = draw(st.sampled_from(["", "", "no last line break", "quote", "crlf", "lone cr",
                                    "nul"]))
    if variant == "no last line break":
        text = text[:-1]
    elif variant == "quote":
        text = text.replace("open", '"open"', 1)
    elif variant == "crlf":
        text = text.replace("\n", "\r\n")
    elif variant == "lone cr":
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c == "\n"]))
        text = text[:at] + "\r" + text[at + 1:]
    elif variant == "nul":
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + "\0" + text[at:]
    return text


def test_a_chunked_file_matches_the_naive_oracle(tmp_path):
    """Chunks of one to a few lines put each fault of a plain file in a
    later chunk than the first, and each date check across a chunk's
    edge; the files that are not plain take the row loop whole."""
    parse_file = readers(tmp_path)[1]

    @settings(max_examples=300, deadline=None)
    @given(text=chunked_csv(), chunk=st.integers(1, 160),
           mode=st.sampled_from(["strict", "lenient"]), adjusted=st.booleans())
    def check(text, chunk, mode, adjusted):
        limit = csv.field_size_limit(SMALL_FIELD_LIMIT)
        try:
            with mock.patch.object(market_data, "_CHUNK_CHARS", chunk):
                got = outcome(parse_file, text, mode, adjusted)
            expected = expected_outcome(text, mode, adjusted)
        finally:
            csv.field_size_limit(limit)
        assert got == expected

    check()


@pytest.mark.parametrize("lines", [
    # a row of 13 cells and one of 1 cell hold as many cells as two rows
    ["2021-01-04,10,11,9,10,10,100,0,2021-01-05,10,11,9,10", "100"],
    # breaks that str.splitlines() sees and the csv module does not
    ["2021-01-04,10\x0b,11,9,10,1\x1c2,100", "2021-01-05,10,11\x0c,9,10,1\x1d2\x1e,100"],
    ["2021-01-04,10,11,9,10,10,100\x1c2021-01-05,10,11,9,10,10,100"],
    # the same for the breaks of a file that is not ASCII
    ["2021-01-04,10\x85,11,9,10,1\u20282,100", "2021-01-05,10,11\u2029,9,10,1\x852,100"],
    ["2021-01-04,10,11,9,10,10,100\u20282021-01-05,10,11,9,10,10,100",
     "2021-01-06,10,11,9,10,10\u2029,100\x852021-01-07,10,11,9,10,10,100"],
], ids=["cancelling widths", "splitlines breaks", "splitlines rows", "unicode breaks",
        "unicode rows"])
@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_a_plain_chunk_splits_lines_as_the_csv_module(lines, mode, tmp_path):
    text = "date,open,high,low,close,adj_close,volume\n" + "\n".join(lines) + "\n"
    expected = expected_outcome(text, mode)
    for parse in readers(tmp_path):
        assert outcome(parse, text, mode) == expected


def daily_bars(seed, bars, dirty_share):
    """CSV text of a random walk of daily bars with six-decimal prices and
    adj_close; a ``dirty_share`` of the rows has one fault that lenient
    mode repairs: low above high, open above high, close below low or a
    negative volume."""
    rng = random.Random(seed)
    lines = ["date,open,high,low,close,adj_close,volume\n"]
    day, close = dt.date(1990, 1, 1), 100.0
    for _ in range(bars):
        open_, close = close, close * (1.0 + rng.gauss(0.0, 0.01))
        high = max(open_, close) * (1.0 + rng.random() / 100.0)
        low = min(open_, close) * (1.0 - rng.random() / 100.0)
        cells = [f"{v:.6f}" for v in (open_, high, low, close)] + [str(rng.randint(1, 10**6))]
        if rng.random() < dirty_share:
            fault = rng.randrange(4)
            if fault == 0:
                cells[1], cells[2] = cells[2], cells[1]
            elif fault == 1:
                cells[0] = f"{high * 1.01:.6f}"
            elif fault == 2:
                cells[3] = f"{low * 0.99:.6f}"
            else:
                cells[4] = "-" + cells[4]
        lines.append(f"{day.isoformat()},{','.join(cells[:4])},{cells[3]},{cells[4]}\n")
        day += dt.timedelta(days=1)
    return "".join(lines)


@pytest.mark.parametrize("mode, dirty_share", [("strict", 0.0), ("lenient", 0.02)])
def test_a_plain_file_takes_no_step_of_the_csv_module(mode, dirty_share, tmp_path, monkeypatch):
    """An LF file, a CRLF file and a UTF-8 file with a non-ASCII column."""
    text = daily_bars(11, 3_000, dirty_share)
    texts = [text, text.replace("\n", "\r\n"), text.replace("\n", ",\u6caa\u6df1300\n")]
    expected = [parse_text(text, mode=mode) for text in texts]
    assert expected[0].warnings > 0 or dirty_share == 0.0

    def refuse(*args, **kwargs):
        raise AssertionError("a plain file reached csv.reader")

    monkeypatch.setattr(csv, "reader", refuse)
    path = tmp_path / "series.csv"
    for text, parsed in zip(texts, expected):
        path.write_bytes(text.encode("utf-8"))
        assert parse_csv(path, mode=mode) == parsed


def test_a_refused_chunk_sends_only_its_own_rows_to_the_row_loop(tmp_path, monkeypatch):
    """Empty prices in data row 3 of a plain file: the row loop judges the
    first chunk, and the chunks take the rest."""
    header, body = daily_bars(11, 3_000, 0.02).split("\n", 1)
    lines = body.split("\n")
    lines[2] = lines[2].split(",", 1)[0] + ",,,,,,1"
    body = "\n".join(lines)
    text = header + "\n" + body
    first_chunk = body[:body.index("\n", market_data._CHUNK_CHARS - 1) + 1]
    judged = []
    judge = market_data._parse_rows

    def counting(reader, *args):
        rows = list(reader)
        judged.extend(rows)
        return judge(iter(rows), *args)

    monkeypatch.setattr(market_data, "_parse_rows", counting)
    path = tmp_path / "series.csv"
    path.write_text(text, encoding="utf-8")
    parsed = parse_csv(path, mode="lenient", symbol="series")
    assert judged == list(csv.reader(io.StringIO(first_chunk)))
    assert 0 < len(judged) < 200
    assert parsed == parse_text(text, mode="lenient")


def test_both_judges_take_and_return_one_state():
    """``_plain_chunk`` and ``_parse_rows`` append a chunk's rows to the same
    columns and carry ``(row_no, prev_date, warnings)`` on alike; a chunk
    ``_plain_chunk`` refuses appends nothing."""
    picks = (0, 1, 2, 3, 4, 6)
    state = (3, dt.date(2021, 1, 4), 1)
    # the second row has low and high swapped: one lenient repair
    text = "2021-01-05,10,11,9,10,10,100\n2021-01-06,10,9,11,10,10,100\n"
    judged = []
    for judge in (lambda *args: market_data._plain_chunk(text, *args),
                  lambda *args: market_data._parse_rows(csv.reader(io.StringIO(text)), *args)):
        columns = ([], array("d"), array("d"), array("d"), array("d"), [])
        assert judge(False, 7, picks, columns, *state) == (5, dt.date(2021, 1, 6), 2)
        judged.append(columns)
    assert judged[0] == judged[1]
    assert judged[0][2] == array("d", [11.0, 11.0])

    columns = ([], array("d"), array("d"), array("d"), array("d"), [])
    refused = "2021-01-05,10,11,9,10,10,100\n2021-01-06,,,,,,1\n"
    assert market_data._plain_chunk(refused, False, 7, picks, columns, *state) is None
    assert columns == ([], array("d"), array("d"), array("d"), array("d"), [])


@pytest.mark.parametrize("chunk", [1, 1 << 13], ids=["a chunk a line", "one chunk"])
def test_a_row_dropped_for_its_price_sets_the_date_for_the_next_chunk(chunk, tmp_path):
    text = ("date,open,high,low,close,volume\n2021-01-04,1,2,1,1,5\n"
            "2021-01-05,0,2,1,1,5\n2021-01-05,1,2,1,1,5\n")
    parse_file = readers(tmp_path)[1]
    with mock.patch.object(market_data, "_CHUNK_CHARS", chunk):
        got = outcome(parse_file, text, "lenient")
    assert got == expected_outcome(text, "lenient") == ("NonMonotonicDates", 3)


def test_the_scan_reads_across_its_64_kib_chunks(tmp_path, monkeypatch):
    """A CRLF split by the scan's first 64 KiB is plain; a character split
    there is decoded with the chunk after it, even an ASCII one."""
    edge = (1 << 16) - 1
    text = daily_bars(13, 2_500, 0.0).replace("\n", "\r\n")
    pad = edge - text.rindex("\r", 0, edge)
    cells = text.split(",", 6)
    cells[5] += "x" * pad  # adj_close, which is not read
    text = ",".join(cells)
    assert text[edge:edge + 2] == "\r\n"
    expected = parse_text(text)

    def refuse(*args, **kwargs):
        raise AssertionError("a plain file reached csv.reader")

    path = tmp_path / "series.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with monkeypatch.context() as patch:
        patch.setattr(csv, "reader", refuse)
        assert parse_csv(path, symbol="series") == expected

    # low above high in data row 2; 0xc3 then ASCII is no UTF-8, though
    # the next chunk that is not ASCII starts with a continuation byte
    lines = daily_bars(13, 2_500, 0.0).encode().split(b"\n")
    cells = lines[2].split(b",")
    cells[2], cells[3] = cells[3], cells[2]
    lines[2] = b",".join(cells)
    data = b"\n".join(lines)
    data = data[:edge] + b"\xc3" + data[edge:]
    data = data[:2 * edge + 2] + b"\xa9" + data[2 * edge + 2:]
    path.write_bytes(data)
    with pytest.raises(errors.UndecodableInput):
        parse_csv(path)


@pytest.mark.parametrize("bars", [20, 220], ids=["1.4 KB", "15 KB"])
@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_a_file_that_is_not_utf8_is_undecodable_whatever_else_is_wrong(bars, mode, tmp_path):
    """Low above high in data row 2 and a 0xff byte in the last row: the
    file is checked whole before any row is read, so the distance between
    the two does not pick the error."""
    path = tmp_path / "series.csv"
    path.write_bytes(_undecodable_bars(bars))
    with pytest.raises(errors.UndecodableInput):
        parse_csv(path, mode=mode)


def _undecodable_bars(bars):
    """The bytes of ``daily_bars(12, bars, 0.0)`` with low above high in
    data row 2 and a 0xff byte in the last row; 15.4 KB for 220 bars."""
    lines = daily_bars(12, bars, 0.0).encode().split(b"\n")
    cells = lines[2].split(b",")
    cells[2], cells[3] = cells[3], cells[2]
    lines[2] = b",".join(cells)
    lines[-2] = lines[-2].replace(b",", b",\xff", 1)
    return b"\n".join(lines)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("data, mode", [
    (WELL_FORMED.encode(), "strict"),
    ((WELL_FORMED + "2021-01-07,11,12,10,11,5,\x00\n").encode(), "strict"),
    (_undecodable_bars(220), "strict"),
    (_undecodable_bars(220), "lenient"),
], ids=["clean", "nul", "15.4 KB not utf8 strict", "15.4 KB not utf8 lenient"])
def test_a_pipe_is_spooled_and_parsed_as_a_file(data, mode, tmp_path, monkeypatch):
    """A named pipe cannot be rewound: its bytes are copied to a temporary
    file first, so it is scanned whole and a plain one takes the chunks."""
    path = tmp_path / "bars.csv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    expected = parse_text(WELL_FORMED, symbol="bars")

    def refuse(*args, **kwargs):
        raise AssertionError("a plain file reached csv.reader")

    if data == WELL_FORMED.encode():
        monkeypatch.setattr(csv, "reader", refuse)
    try:
        parsed = parse_csv(path, mode=mode)
    except errors.UnparsableRow as exc:
        assert b"\x00" in data and exc.row == 4
    except errors.UndecodableInput:
        assert b"\xff" in data
    else:
        assert data == WELL_FORMED.encode() and parsed.series == expected.series
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_a_leading_byte_order_mark_is_dropped(quoted, mode, tmp_path, monkeypatch):
    """Excel's "CSV UTF-8" starts a file with a BOM: a plain file still takes
    the chunks, and either file parses as it does without the BOM."""
    text = daily_bars(13, 500, 0.02 if mode == "lenient" else 0.0)
    if quoted:
        text = text.replace("date,", '"date",', 1)
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = parse_csv(path, mode=mode)
    assert expected.warnings > 0 or mode == "strict"

    def refuse(*args, **kwargs):
        raise AssertionError("a plain file reached csv.reader")

    if not quoted:
        monkeypatch.setattr(csv, "reader", refuse)
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    assert parse_csv(path, mode=mode) == expected
