"""Daily OHLCV series: CSV parsing, validation, serialization, year slicing.

Canonical CSV columns are ``date,open,high,low,close,adj_close,volume``
with ``adj_close`` optional. Dates are ``YYYY-MM-DD`` and must be strictly
increasing. A series stores one tuple per field.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import math
import operator
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    EmptySeries,
    EngineError,
    InvalidArgument,
    InvalidParams,
    InvariantViolation,
    LengthMismatch,
    MissingColumn,
    MissingInput,
    NonMonotonicDates,
    UndecodableInput,
    UnparsableRow,
)

STRICT = "strict"
LENIENT = "lenient"

_REQUIRED_COLUMNS = ("date", "open", "high", "low", "close", "volume")


@dataclass(frozen=True)
class OhlcvSeries:
    """Daily bars stored column by column, each column a tuple.

    Invariants, checked once per column on construction: at least one bar,
    equal column lengths, strictly increasing dates, finite and strictly
    positive prices, low <= high and volume >= 0. A violation raises
    ``EmptySeries`` or ``LengthMismatch``, or ``NonMonotonicDates`` or
    ``InvariantViolation`` whose row is the 1-based position of the first
    bad bar.
    """

    symbol: str
    dates: tuple[dt.date, ...]
    opens: tuple[float, ...]
    highs: tuple[float, ...]
    lows: tuple[float, ...]
    closes: tuple[float, ...]
    volumes: tuple[int, ...]

    def __post_init__(self):
        names = ("dates", "opens", "highs", "lows", "closes", "volumes")
        columns = [tuple(getattr(self, name)) for name in names]
        _validate(*columns)
        for name, column in zip(names, columns):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.dates)


def _first(flags) -> int:
    """1-based position of the first false flag."""
    return next(i for i, ok in enumerate(flags, start=1) if not ok)


def _validate(dates, opens, highs, lows, closes, volumes) -> None:
    if not dates:
        raise EmptySeries("a series needs at least one bar")
    if any(len(column) != len(dates) for column in (opens, highs, lows, closes, volumes)):
        raise LengthMismatch("all columns of a series need one entry per date")
    if not all(map(operator.lt, dates, dates[1:])):
        row = _first(map(operator.lt, dates, dates[1:])) + 1
        raise NonMonotonicDates(
            row, f"dates must strictly increase: {dates[row - 2]} -> {dates[row - 1]}"
        )
    for column in (opens, highs, lows, closes):
        if not (all(map(math.isfinite, column)) and min(column) > 0.0):
            row = _first(math.isfinite(p) and p > 0.0 for p in column)
            raise InvariantViolation(
                row, f"prices must be finite and positive, got {column[row - 1]}"
            )
    if not all(map(operator.le, lows, highs)):
        row = _first(map(operator.le, lows, highs))
        raise InvariantViolation(row, f"low {lows[row - 1]} > high {highs[row - 1]}")
    if min(volumes) < 0:
        row = _first(v >= 0 for v in volumes)
        raise InvariantViolation(row, f"volume must be non-negative, got {volumes[row - 1]}")


@dataclass(frozen=True)
class ParseResult:
    series: OhlcvSeries
    warnings: int


def _parse_price(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite price {cell!r}")
    return value


def _parse_volume(cell: str) -> int:
    value = float(cell)
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"volume is not an integer count: {cell!r}")
    return int(value)


def _parse_date(cell: str) -> dt.date:
    """A ``YYYY-MM-DD`` date; other ISO 8601 forms that Python 3.11+ reads,
    such as ``20210104`` and ``2021-W01-1``, fail with 3.10's message. The
    whole rule stands here: a cell the fast path refuses may be any string."""
    if len(cell) != 10 or cell[4] != "-" or cell[7] != "-":
        raise ValueError(f"Invalid isoformat string: {cell!r}")
    return dt.date.fromisoformat(cell)


def _holds_nul(raw) -> bool:
    """Whether a binary file holds a NUL byte, read in 64 KiB chunks, then rewound."""
    found = any(b"\0" in chunk for chunk in iter(lambda: raw.read(1 << 16), b""))
    raw.seek(0)
    return found


def _refuse_nul(lines):
    """The lines, up to one holding a NUL, where the ``csv`` module's
    Python 3.10 error is raised: from 3.11 on it reads a NUL into its cell."""
    for line in lines:
        if "\0" in line:
            raise csv.Error("line contains NUL")
        yield line


def parse_csv(
    path: str | Path,
    mode: str = STRICT,
    use_adjusted: bool = False,
    symbol: str | None = None,
) -> ParseResult:
    """Parse a daily OHLCV CSV file.

    The first record is the header; its names are matched stripped and
    case-insensitively, and ``date``, ``open``, ``high``, ``low``,
    ``close`` and ``volume`` must be present (``MissingColumn``). With
    ``use_adjusted`` the ``adj_close`` column must be present too and
    replaces ``close`` before validation.

    Data rows are numbered from 1 after the header, blank rows included.
    Each row is checked in this order; cells are stripped and a cell
    missing from a short row reads as empty:

    1. A row whose cells are all blank is skipped without a warning.
    2. The row is unparsable if all four price cells are empty, the date
       is not a valid ``YYYY-MM-DD`` date (other ISO 8601 forms such as
       ``20210104`` are refused), a price is not a finite float, or the
       volume is not a finite whole number (``UnparsableRow``).
    3. A date that does not follow the previous parsed row's date raises
       ``NonMonotonicDates`` in both modes. Unparsable rows set no date.
    4. A price <= 0 makes the row unrepairable (``InvariantViolation``);
       its date still counts as the previous date.
    5. A swapped low/high pair, an open or a close outside [low, high]
       and a negative volume are each an ``InvariantViolation``.

    In strict mode the first violation aborts with its row number. In
    lenient mode the rows of 2 and 4 are dropped with one warning each,
    and each remedy of 5 counts one warning: low and high are swapped,
    open and close are clamped into [low, high], and the volume becomes 0.
    A file with no accepted row raises ``EmptySeries``. An unknown
    ``mode`` raises ``InvalidArgument``.

    A record the ``csv`` module cannot read, such as one with a field
    longer than its field size limit, raises ``UnparsableRow`` in both
    modes (row 0 is the header). So does the first line that holds a NUL
    character, and reading stops there. A file that is not UTF-8 raises
    ``UndecodableInput``.
    """
    path = Path(path)
    if not path.exists():
        raise MissingInput(f"no such file: {path}")
    with path.open("rb") as raw:
        # only a file with a NUL, or one that cannot be rewound, is checked line by line
        nul = not raw.seekable() or _holds_nul(raw)
        handle = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        try:
            return _parse_stream(_refuse_nul(handle) if nul else handle,
                                 mode, use_adjusted, symbol or path.stem)
        except UnicodeDecodeError as exc:
            raise UndecodableInput(f"{path} is not UTF-8 text ({exc.reason})") from None


def _parse_stream(lines, mode: str, use_adjusted: bool, symbol: str) -> ParseResult:
    if mode not in (STRICT, LENIENT):
        raise InvalidArgument(f"unknown parse mode {mode!r}")
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptySeries("file has no header row") from None
    except csv.Error as exc:
        raise UnparsableRow(0, f"header: {exc}") from None
    columns = [cell.strip().lower() for cell in header]
    missing = [name for name in _REQUIRED_COLUMNS if name not in columns]
    if missing:
        raise MissingColumn(f"missing column(s): {', '.join(missing)}")
    if use_adjusted and "adj_close" not in columns:
        raise MissingColumn("missing column(s): adj_close (required by use_adjusted)")
    date_col, open_col, high_col, low_col, close_col, volume_col = (
        columns.index(name) for name in
        ("date", "open", "high", "low", "adj_close" if use_adjusted else "close", "volume")
    )

    strict = mode == STRICT
    dates: list[dt.date] = []
    opens: list[float] = []
    highs: list[float] = []
    lows: list[float] = []
    closes: list[float] = []
    volumes: list[int] = []
    warnings = 0
    prev_date: dt.date | None = None
    fromisoformat = dt.date.fromisoformat
    inf = math.inf

    def fault(error: EngineError) -> None:
        """Raise ``error`` in strict mode; count one warning in lenient mode."""
        nonlocal warnings
        if strict:
            raise error
        warnings += 1

    row_no = 0
    # The try wraps the whole loop, not each read, to keep the per-row
    # cost of clean rows at zero; only the reader raises csv.Error.
    try:
        for row_no, row in enumerate(reader, start=1):
            # Fast path: a row that passes every check as it stands. float()
            # ignores the surrounding whitespace that the checks below strip.
            # Of the forms fromisoformat reads, only YYYY-MM-DD has a dash
            # at index 7 (3.11+'s 2021W01 has no index 7 at all).
            try:
                date_cell = row[date_col]
                date = fromisoformat(date_cell)
                dash = date_cell[7]
                open_ = float(row[open_col])
                high = float(row[high_col])
                low = float(row[low_col])
                close = float(row[close_col])
                volume = float(row[volume_col])
            except (ValueError, IndexError):
                pass
            else:
                if (0.0 < low <= open_ <= high < inf and low <= close <= high
                        and volume >= 0.0 and volume.is_integer()
                        and (prev_date is None or date > prev_date) and dash == "-"):
                    dates.append(date)
                    opens.append(open_)
                    highs.append(high)
                    lows.append(low)
                    closes.append(close)
                    volumes.append(int(volume))
                    prev_date = date
                    continue

            # Every other row takes the checks one at a time, in the
            # documented order, to name the first violation or repair it.
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            cells += [""] * (len(columns) - len(cells))
            try:
                price_cells = [cells[col] for col in (open_col, high_col, low_col, close_col)]
                if not any(price_cells):
                    raise ValueError("all price cells empty")
                date = _parse_date(cells[date_col])
                open_, high, low, close = map(_parse_price, price_cells)
                volume = _parse_volume(cells[volume_col])
            except ValueError as exc:
                fault(UnparsableRow(row_no, str(exc)))
                continue

            if prev_date is not None and date <= prev_date:
                raise NonMonotonicDates(row_no, f"{date} does not follow {prev_date}")
            prev_date = date

            if min(open_, high, low, close) <= 0.0:
                fault(InvariantViolation(row_no, "prices must be strictly positive"))
                continue
            if low > high:
                fault(InvariantViolation(row_no, f"low {low} > high {high}"))
                low, high = high, low
            if not low <= open_ <= high:
                fault(InvariantViolation(row_no, f"open {open_} outside [{low}, {high}]"))
                open_ = min(max(open_, low), high)
            if not low <= close <= high:
                fault(InvariantViolation(row_no, f"close {close} outside [{low}, {high}]"))
                close = min(max(close, low), high)
            if volume < 0:
                fault(InvariantViolation(row_no, f"negative volume {volume}"))
                volume = 0

            dates.append(date)
            opens.append(open_)
            highs.append(high)
            lows.append(low)
            closes.append(close)
            volumes.append(volume)

    except csv.Error as exc:
        raise UnparsableRow(row_no + 1, str(exc)) from None

    if not dates:
        raise EmptySeries("no valid data rows")
    return ParseResult(OhlcvSeries(symbol, dates, opens, highs, lows, closes, volumes), warnings)


def serialize_csv(series: OhlcvSeries, handle) -> None:
    """Write a series in canonical column order to an open text handle;
    parse(serialize(s)) == s."""
    handle.write("date,open,high,low,close,volume\n")
    handle.writelines(
        f"{date.isoformat()},{open_!r},{high!r},{low!r},{close!r},{volume}\n"
        for date, open_, high, low, close, volume in zip(
            series.dates, series.opens, series.highs, series.lows, series.closes, series.volumes)
    )


def slice_years(series_or_length, bars_per_year: int) -> list[tuple[int, int]]:
    """Split [0, len) into consecutive half-open ranges of bars_per_year.

    The final range holds the remainder and may be shorter; together the
    ranges partition the whole series.
    """
    if bars_per_year < 1:
        raise InvalidParams(f"bars_per_year must be >= 1, got {bars_per_year}")
    length = series_or_length if isinstance(series_or_length, int) else len(series_or_length)
    if length < 0:
        raise InvalidParams(f"length must be non-negative, got {length}")
    ranges: list[tuple[int, int]] = []
    start = 0
    while start < length:
        end = min(start + bars_per_year, length)
        ranges.append((start, end))
        start = end
    return ranges
