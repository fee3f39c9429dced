import datetime as dt
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_series, random_ohlcv
from tabacktest import errors
from tabacktest.market_data import (
    STRICT,
    OhlcvSeries,
    _parse_stream,
    parse_csv,
    serialize_csv,
    slice_years,
)


def parse_text(text, mode=STRICT, use_adjusted=False, symbol="series"):
    """``parse_csv`` of a file holding ``text``, read from memory."""
    return _parse_stream(io.StringIO(text), mode, use_adjusted, symbol)


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
    assert parsed.series.closes == [10.5, 11.0, 11.5]


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
def test_record_over_csv_field_limit_is_unparsable_row(mode):
    long_row = "2021-01-07," + "1" * 200_000 + ",12.0,10.5,11.5,900\n"
    with pytest.raises(errors.UnparsableRow) as err:
        parse_text(WELL_FORMED + long_row, mode=mode)
    assert err.value.row == 4
    with pytest.raises(errors.UnparsableRow) as err:
        parse_text("date,open,high,low,close,volume," + "x" * 200_000 + "\n", mode=mode)
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


def test_series_columns_are_immutable_copies():
    series = make_series([1.0, 2.0])
    series.closes.append(3.0)
    assert series.closes == series.opens == [1.0, 2.0]
    assert series.volumes == [1000, 1000]
    assert len(series) == 2
    with pytest.raises(AttributeError):
        series.symbol = "other"


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
_VOLUMES = ("1000", "0", " 250 ", "1e3", "-5", "2.5", "", "nan", "abc")


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
                pool = (("", "2021-02-30", "soon") if i == 0
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


@settings(max_examples=200, deadline=None)
@given(text=dirty_csv(), mode=st.sampled_from(["strict", "lenient"]), adjusted=st.booleans())
def test_parse_matches_naive_oracle(text, mode, adjusted):
    try:
        expected = oracles.naive_parse(text, mode, use_adjusted=adjusted)
    except oracles.OracleParseError as exc:
        expected = (exc.kind, exc.row)
    try:
        parsed = parse_text(text, mode=mode, use_adjusted=adjusted)
        got = (_columns(parsed.series), parsed.warnings)
    except errors.EngineError as exc:
        got = (exc.kind, getattr(exc, "row", None))
    assert got == expected
