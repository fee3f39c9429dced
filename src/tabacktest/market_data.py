"""Daily OHLCV series: CSV parsing, validation, serialization, year slicing.

Canonical CSV columns are ``date,open,high,low,close,adj_close,volume``
with ``adj_close`` optional. Dates are ``YYYY-MM-DD`` and must be strictly
increasing. A series stores each of its four price columns as a
read-only view of an ``array('d')``, and its dates and volumes as tuples.
"""
from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import math
import operator
import shutil
import tempfile
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Sequence

from ._exact import prefix_sums
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

# Characters of a plain file read, checked and converted at a time, then
# up to the end of the line: about 110 lines of daily bars. Chunks of 32
# and 64 KiB parse 2-5% faster, but the peak RSS of a process that parses
# again and again grows by up to 1 MB.
_CHUNK_CHARS = 1 << 13


@dataclass(frozen=True)
class OhlcvSeries:
    """Daily bars stored column by column.

    Each price column (``opens``, ``highs``, ``lows``, ``closes``) is a
    read-only view of its own ``array('d')``, 8 bytes a price: a write to
    it raises ``TypeError``, an int price given to the constructor is
    stored as its float, and columns compare by value. ``dates`` and
    ``volumes`` are tuples; a volume is an int count of any size. A series
    compares by value and is not hashable (``TypeError``).

    Invariants: at least one bar, equal column lengths, strictly
    increasing dates, finite and strictly positive prices, low <= high and
    volume >= 0. A series built by hand is checked once per column by this
    constructor: a violation raises ``EmptySeries`` or ``LengthMismatch``,
    or ``NonMonotonicDates`` or ``InvariantViolation`` whose row is the
    1-based position of the first bad bar. A parsed series is checked once,
    by the parse, bar by bar or chunk by chunk, and is built by
    ``_from_parse`` without a second check.
    """

    symbol: str
    dates: tuple[dt.date, ...]
    opens: Sequence[float]
    highs: Sequence[float]
    lows: Sequence[float]
    closes: Sequence[float]
    volumes: tuple[int, ...]

    # not the generated hash, which would raise ValueError on a 'd' view
    __hash__ = None

    def __post_init__(self):
        columns = {"dates": tuple(self.dates), "volumes": tuple(self.volumes)}
        for name in ("opens", "highs", "lows", "closes"):
            # array("d", ...) of an array("d") is a memcpy
            columns[name] = memoryview(array("d", getattr(self, name))).toreadonly()
        _validate(**columns)
        for name, column in columns.items():
            object.__setattr__(self, name, column)

    @classmethod
    def _from_parse(cls, symbol: str, dates: list, opens: array, highs: array, lows: array,
                    closes: array, volumes: list) -> OhlcvSeries:
        """The series of columns a parse has proven to hold every invariant:
        its own four arrays go behind read-only views, not copied, its date
        and volume lists become tuples, and ``_validate`` does not run."""
        series = object.__new__(cls)
        series.__dict__.update(
            symbol=symbol, dates=tuple(dates), volumes=tuple(volumes),
            opens=memoryview(opens).toreadonly(), highs=memoryview(highs).toreadonly(),
            lows=memoryview(lows).toreadonly(), closes=memoryview(closes).toreadonly())
        return series

    def __len__(self) -> int:
        return len(self.dates)

    @cached_property
    def close_sums(self) -> tuple[list[int], int]:
        """``_exact.prefix_sums`` of the closes, built on first use and kept
        as long as the series: each window sum of the closes is then one
        difference, however many kernels read them."""
        return prefix_sums(self.closes)


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
        if not all(map(math.isfinite, column)) or min(column) <= 0.0:
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
    """The whole number a volume cell holds. An integer literal such as
    ``10000000000000000001`` is read exactly; any other cell, such as
    ``1000.0`` or ``1e3``, through its float, which must be whole. Either
    must be inside the float range, where the float of the cell is finite."""
    try:
        value = int(cell)
        float(value)  # OverflowError past the float range
        return value
    except OverflowError:
        pass
    except ValueError:  # not an integer literal, or past int's digit limit
        number = float(cell)
        if number.is_integer():
            return int(number)
    raise ValueError(f"volume is not an integer count: {cell!r}")


def _whole_numbers(cells: list[str]) -> list[int]:
    """``_parse_volume`` of each cell, with its conversions run over the
    whole column. Raises ``ValueError`` if it refuses a cell, and
    ``OverflowError`` if the magnitudes of the volumes sum past the float
    range, though it may refuse none of them: the row loop then decides."""
    try:
        volumes = list(map(int, cells))
    except ValueError:  # a cell such as 1000.0 or 1e3 is read through its float
        floats = list(map(float, cells))
        if not all(map(float.is_integer, floats)):
            raise ValueError("a volume is not an integer count") from None
        # below 2**53 the float of an integer literal is its exact value
        if max(map(abs, floats)) < 2.0 ** 53:
            return list(map(int, floats))
        return list(map(_parse_volume, cells))
    # each |volume| is at most the sum, so a sum inside the float range proves them all
    float(sum(map(abs, volumes)))
    return volumes


def _parse_date(cell: str) -> dt.date:
    """A ``YYYY-MM-DD`` date; other ISO 8601 forms that Python 3.11+ reads,
    such as ``20210104`` and ``2021-W01-1``, fail with 3.10's message. The
    whole rule stands here: a cell the chunks refuse may be any string."""
    if len(cell) != 10 or cell[4] != "-" or cell[7] != "-":
        raise ValueError(f"Invalid isoformat string: {cell!r}")
    return dt.date.fromisoformat(cell)


def _scan(raw) -> tuple[bool, bool]:
    """Whether a binary file holds a NUL byte, and whether it is plain: no
    NUL, no double quote and no carriage return but the first half of a
    CRLF, so that the ``csv`` module reads each of its lines as the line
    split at every comma. Reads the whole file in 64 KiB chunks, raises
    ``UnicodeDecodeError`` if it is not UTF-8, then rewinds it. Only the
    chunks that are not ASCII are decoded, and a chunk after one that ends
    inside a character."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    nul, plain = False, True
    for chunk in iter(lambda: raw.read(1 << 16), b""):
        if chunk.endswith(b"\r"):  # whether it starts a CRLF
            chunk += raw.read(1)
        if not chunk.isascii() or decoder.getstate()[0]:
            decoder.decode(chunk)
        nul = nul or b"\0" in chunk
        plain = plain and b'"' not in chunk and (
            b"\r" not in chunk or chunk.count(b"\r") == chunk.count(b"\r\n"))
    decoder.decode(b"", final=True)
    raw.seek(0)
    return nul, plain and not nul


@contextmanager
def _rewindable(source):
    """A binary file itself if it can be rewound; else a temporary file
    holding its bytes, copied block by block, rewound, and closed on exit."""
    if source.seekable():
        yield source
        return
    with tempfile.TemporaryFile() as spool:
        shutil.copyfileobj(source, spool)
        spool.seek(0)
        yield spool


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
       volume is not a whole number inside the float range
       (``UnparsableRow``). A volume that is an integer literal is read
       exactly; any other, such as ``1e3``, through its float.
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
    character, and reading stops there. A leading UTF-8 byte-order mark is
    dropped. A file that is not UTF-8 raises ``UndecodableInput``: the
    file is checked whole before any row is read, so whatever else is
    wrong with it. An input that cannot be rewound, such as a named pipe,
    is first copied to a temporary file, which holds its bytes on disk,
    and is then read as that file.

    A plain file, one that holds no NUL, no double quote and no carriage
    return outside a CRLF, is read in chunks of whole lines of about
    ``_CHUNK_CHARS`` characters, and each chunk is split, converted and
    checked one column at a time. A chunk with a row that breaks a rule
    above, other than one that lenient mode repairs, goes to the row
    loop, and the next chunk is read as a chunk again. Every other file
    (quoted, with a NUL or a lone carriage return) goes to the row loop
    whole: the row loop decides every error, row number and dropped row.
    Each row is checked once: the rows the chunks and the row loop accept
    hold every invariant of an ``OhlcvSeries``, which is built from their
    columns without checking them again.
    """
    path = Path(path)
    if not path.exists():
        raise MissingInput(f"no such file: {path}")
    with path.open("rb") as source, _rewindable(source) as raw:
        try:
            nul, plain = _scan(raw)
            handle = io.TextIOWrapper(raw, encoding="utf-8-sig", newline="")
            return _parse_stream(_refuse_nul(handle) if nul else handle,
                                 mode, use_adjusted, symbol or path.stem, plain)
        except UnicodeDecodeError as exc:
            raise UndecodableInput(f"{path} is not UTF-8 text ({exc.reason})") from None


def _parse_stream(lines, mode: str, use_adjusted: bool, symbol: str,
                  plain: bool = False) -> ParseResult:
    """``parse_csv`` of an iterator of text lines; with ``plain``, a text
    file of a plain file. The one judge loop: each judge takes and returns
    the state ``(row_no, prev_date, warnings)``. A plain file's data lines
    are read about ``_CHUNK_CHARS`` characters of whole lines at a time,
    and each chunk is taken by ``_plain_chunk`` or, if it refuses it, by
    ``_parse_rows``; any other file goes to ``_parse_rows`` whole."""
    if mode not in (STRICT, LENIENT):
        raise InvalidArgument(f"unknown parse mode {mode!r}")
    strict = mode == STRICT
    # a plain header is split by hand, unless it is missing or too long for a csv field
    first = next(lines, "") if plain else ""
    plain = 0 < len(first) <= csv.field_size_limit()
    if plain:
        header = first.rstrip("\r\n").split(",")
    else:
        reader = csv.reader(chain((first,), lines) if first else lines)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptySeries("file has no header row") from None
        except csv.Error as exc:
            raise UnparsableRow(0, f"header: {exc}") from None
    width, picks = len(header), _pick_columns(header, use_adjusted)

    # dates and volumes in lists, prices straight into the arrays the series keeps
    columns = ([], array("d"), array("d"), array("d"), array("d"), [])
    state = (0, None, 0)
    if plain:
        while text := lines.read(_CHUNK_CHARS):
            if not text.endswith("\n"):
                text += lines.readline()
            state = (_plain_chunk(text, strict, width, picks, columns, *state)
                     or _parse_rows(csv.reader(io.StringIO(text)), strict, width, picks,
                                    columns, *state))
    else:
        state = _parse_rows(reader, strict, width, picks, columns, *state)
    if not columns[0]:
        raise EmptySeries("no valid data rows")
    # the chunks and the row loop have checked every invariant of a series
    return ParseResult(OhlcvSeries._from_parse(symbol, *columns), state[2])


def _pick_columns(header: list[str], use_adjusted: bool) -> tuple[int, ...]:
    """Positions of date, open, high, low, close (``adj_close`` with
    ``use_adjusted``) and volume in the header record."""
    columns = [cell.strip().lower() for cell in header]
    missing = [name for name in _REQUIRED_COLUMNS if name not in columns]
    if missing:
        raise MissingColumn(f"missing column(s): {', '.join(missing)}")
    if use_adjusted and "adj_close" not in columns:
        raise MissingColumn("missing column(s): adj_close (required by use_adjusted)")
    close = "adj_close" if use_adjusted else "close"
    return tuple(columns.index(name) for name in ("date", "open", "high", "low", close, "volume"))


def _plain_chunk(text: str, strict: bool, width: int, picks, columns, row_no: int,
                 prev_date: dt.date | None, warnings: int):
    """The fast judge: append the rows of ``text``, whole plain lines
    numbered from ``row_no + 1``, to ``columns``, and return the state as
    ``_parse_rows`` does; or return None and append nothing if any row
    needs the row loop: a row of another width or a blank line, a cell
    that does not convert, a date that is not ``YYYY-MM-DD`` or does not
    follow the one before, a line longer than the csv field limit, a
    strict violation, or a row that lenient mode drops. Each split,
    conversion and check runs over a whole column in C; only a row that
    lenient mode repairs takes a Python step of its own, with the row
    loop's rules (``_repair``). Volumes are read as ``_parse_volume``
    reads them, an integer literal exactly (``_whole_numbers``). The rows
    it appends hold every invariant of a series and its first date
    follows ``prev_date``: nothing checks them again."""
    if "\r" in text:  # CRLF lines; on an LF chunk this test costs far less than the replace
        text = text.replace("\r\n", "\n")
    if not text.endswith("\n"):  # the last line of the file
        text += "\n"
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, text.split("\n"))) > limit:
        return None
    # Each line ends in a cell "\n", so every line has ``width`` cells if
    # and only if every (width + 1)th cell is a "\n". Lines end at "\n"
    # only, as for the csv module, not at every break str.splitlines() sees.
    cells = text.replace("\n", ",\n,").split(",")
    cells.pop()
    n = text.count("\n")
    stride = width + 1
    if len(cells) != n * stride or cells[width::stride].count("\n") != n:
        return None
    date_col, *price_cols, volume_col = picks
    date_cells = cells[date_col::stride]
    try:
        dates = list(map(dt.date.fromisoformat, date_cells))
        prices = [list(map(float, cells[col::stride])) for col in price_cols]
        volumes = _whole_numbers(cells[volume_col::stride])
    except (ValueError, OverflowError):
        return None
    # A cell fromisoformat reads has at most 10 characters, and only
    # YYYY-MM-DD has a dash at index 7, so a dash at every 10th joined
    # position from 7 passes a column of YYYY-MM-DD alone: the first shorter
    # cell breaks the step. A sum is finite only if all its terms are; one
    # past the float range only sends the chunk to the row loop.
    if ("".join(date_cells)[7::10] != "-" * n
            or prev_date is not None and dates[0] <= prev_date
            or not all(map(operator.lt, dates, islice(dates, 1, None)))
            or not math.isfinite(sum(map(sum, prices)))):
        return None
    opens, highs, lows, closes = prices
    # a row with a low <= 0 is refused below in either mode
    if min(lows) <= 0.0:
        return None

    # A row is clean if 0 < low <= open <= high, low <= close <= high and
    # volume >= 0; each rule names the rows, all finite, that break it.
    rules = [(operator.gt, lows, opens), (operator.gt, opens, highs),
             (operator.gt, lows, closes), (operator.gt, closes, highs)]
    if min(volumes) < 0:
        rules.append((operator.gt, repeat(0), volumes))
    flagged: set[int] = set()
    for broken, left, right in rules:
        if any(map(broken, left, right)):
            if strict:
                return None
            flagged.update(compress(range(n), map(broken, left, right)))
    remedies: list[EngineError] = []
    for i in sorted(flagged):
        if min(opens[i], highs[i], lows[i], closes[i]) <= 0.0:
            return None
        opens[i], highs[i], lows[i], closes[i], volumes[i] = _repair(
            row_no + i + 1, opens[i], highs[i], lows[i], closes[i], volumes[i], remedies.append)
    columns[0].extend(dates)
    for column, part in zip(columns[1:5], prices):
        column.fromlist(part)  # array.extend grows the array a value at a time
    columns[5].extend(volumes)
    return row_no + n, dates[-1], warnings + len(remedies)


def _repair(row_no: int, open_: float, high: float, low: float, close: float, volume: int,
            fault) -> tuple[float, float, float, float, int]:
    """A row of finite positive prices with the remedies of rule 5: each
    violation goes to ``fault``, which raises it in strict mode and counts
    it in lenient mode."""
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
    return open_, high, low, close, volume


def _parse_rows(reader, strict: bool, width: int, picks, columns, row_no: int,
                prev_date: dt.date | None, warnings: int):
    """The row loop, the judge of every row ``_plain_chunk`` does not
    take: append the rows of ``reader``, numbered from ``row_no + 1``, to
    ``columns``, taking the checks of ``parse_csv`` one at a time and in
    their order, to name the first violation or drop or repair its row.
    Returns the state ``(row_no, prev_date, warnings)``: the last row
    number, the last date (a row dropped for a price <= 0 sets it too) and
    the warnings, each counted on from its argument."""
    date_col, *price_cols, volume_col = picks
    dates, opens, highs, lows, closes, volumes = columns

    def fault(error: EngineError) -> None:
        """Raise ``error`` in strict mode; count one warning in lenient mode."""
        nonlocal warnings
        if strict:
            raise error
        warnings += 1

    # The try wraps the whole loop, not each read; only the reader raises
    # csv.Error.
    try:
        for row_no, row in enumerate(reader, start=row_no + 1):
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            cells += [""] * (width - len(cells))
            try:
                price_cells = [cells[col] for col in price_cols]
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
            open_, high, low, close, volume = _repair(row_no, open_, high, low, close, volume,
                                                      fault)
            dates.append(date)
            opens.append(open_)
            highs.append(high)
            lows.append(low)
            closes.append(close)
            volumes.append(volume)

    except csv.Error as exc:
        raise UnparsableRow(row_no + 1, str(exc)) from None
    return row_no, prev_date, warnings


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
