"""Parameter-grid evaluation over one series.

A cell is evaluated in two steps. Its signals come from
``generate_signals`` in the calling process, through the sweep's one
``KernelMemo``, so each distinct indicator is computed once. Its
measures (``exposure_runs`` and ``measures_from_sums``) share nothing
with other cells, so where this process may run on more than one CPU,
forked children measure contiguous parts of the grid while the caller
computes the signals of later parts, and the caller measures the rest
(see ``_measured_cells``). The result is sorted by the objective
(descending) with a lexicographic tie-break on the parameter
assignment, so output never depends on which process measured a cell.
"""
from __future__ import annotations

import itertools
import marshal
from collections import Counter
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

from . import _parts
from .backtest import close_ratios, exposure_runs
from .config import OBJECTIVES, SweepSpec
from .errors import EmptyGridAfterFilter, EngineError, ZeroVolatility
from .market_data import OhlcvSeries
from .metrics import TRADING_DAYS_PER_YEAR, ReturnSums, daily_returns, measures_from_sums
from .strategies import KernelMemo, generate_signals


@dataclass(frozen=True)
class SweepRow:
    """A ranked cell: the measures ``sweep.csv`` writes, each equal to the
    same field of ``build_report`` on the cell's backtest."""

    params: tuple[tuple[str, Any], ...]
    buy_count: int
    rr_whole: float
    sr: Optional[float]
    ir: Optional[float]
    objective_value: float


@dataclass(frozen=True)
class SweepResult:
    """Ranked rows, and why every other cell of the grid is missing."""

    rows: list[SweepRow]
    dropped: dict[str, int]  # error kind -> cells it dropped, sorted by kind
    below_min_trades: int


def _cell_signals(spec: SweepSpec, memo: KernelMemo, assignment) -> list[int] | str:
    """The cell's signal bars, or the kind of error that drops it."""
    try:
        return generate_signals(memo.series, spec.cell_config(assignment), memo)
    except EngineError as exc:
        return exc.kind


def _measure(
    spec: SweepSpec,
    sums: ReturnSums,
    trading_days: int,
    closes: Sequence[float],
    assignment: tuple[tuple[str, Any], ...],
    bars: list[int] | str,
) -> SweepRow | str:
    """The row of a cell with these signal bars, or the kind of error that drops it."""
    if isinstance(bars, str):
        return bars
    try:
        initial, runs = exposure_runs(closes, bars, sums.ratios)
        # the drawdown and the yearly block can no longer fail, and no row holds them
        measures = measures_from_sums(initial, runs, len(closes), sums, trading_days)
    except EngineError as exc:
        return exc.kind
    value = getattr(measures, OBJECTIVES[spec.objective])
    if value is None:
        # only a ratio is ever None: its volatility was zero
        return ZeroVolatility.__name__
    return SweepRow(assignment, len(runs), measures.rr_whole, measures.sr, measures.ir, value)


def _share(cells: int, processes: int, signal_s: float, measure_s: float) -> float:
    """How many of the next ``cells`` the next child should measure, when
    ``processes`` (this one included) measure them and a cell's signals
    take ``signal_s`` and its measures ``measure_s``.

    A child starts once this process has computed its part's signals,
    and this process starts on the last part last. So that every process
    finishes together, each part is ``r = measure_s / (signal_s +
    measure_s)`` times the one before it, and the first is ``cells / (1 +
    r + ... + r ** (processes - 1))``.
    """
    ratio = measure_s / (signal_s + measure_s)
    return cells / sum(ratio ** k for k in range(processes))


def _child_rows(measure: Callable, cells: list) -> bytes:
    """What a forked child sends of each ``(assignment, bars)`` of
    ``cells``: a row as its fields, a dropped cell as its kind, all
    marshalled into one bytes object, which ``_parts.sent`` loads from
    the pipe in one read where a list of rows would take a read a field."""
    return marshal.dumps([row if isinstance(row, str) else vars(row)
                          for row in itertools.starmap(measure, cells)])


def _sent_rows(child: _parts.Child) -> Optional[list[SweepRow | str]]:
    """The rows a forked child sent (``_parts.sent``), or None where it
    sent no complete payload."""
    payload = _parts.sent(child)
    return None if payload is None else [
        cell if isinstance(cell, str) else SweepRow(**cell) for cell in marshal.loads(payload)]


def _measured_cells(
    assignments: list, signals: Callable, measure: Callable
) -> list[SweepRow | str]:
    """``measure(a, signals(a))`` of each assignment ``a``, in grid order.

    ``signals`` runs here for every cell, in grid order, so the memo it
    reads computes each indicator once. Where ``_parts.cpus()`` gives 1, every
    cell is measured here as soon as its signals are computed. Where it
    gives more, the first cell whose signals could be built is measured
    here too, and its time and the mean signal time so far size the next
    part (``_share``). Once a part's signals are computed, a forked child
    measures that part and the signals are dropped, until ``_parts.cpus()``
    processes measure, this one included; this process measures the
    cells after the last child's part. A part whose measures would take
    no longer than the last fork took is not forked (``_parts.pays``),
    so many CPUs give no fork that saves nothing.

    A part that raised here, or whose child sent no complete payload, is
    measured again here once every child is reaped, in grid order, so a
    bug raises the exception one process would raise, and a killed child
    costs time, not rows. Every child is reaped before the call returns
    or raises; on an interrupt each is killed first (see ``_parts.stop``).
    """
    processes = _parts.cpus()  # this one and the children it may still fork
    # [start, stop, rows measured here | (pid, pipe) of a child | None: measure it again]
    parts: list[list] = []
    pending: list = []  # (assignment, bars) of the next child's part, from cell ``done``
    done = 0
    signal_s = measure_s = 0.0
    try:
        try:
            for index, assignment in enumerate(assignments):
                start = perf_counter()
                bars = signals(assignment)
                signal_s += perf_counter() - start
                if processes == 1 or not measure_s:
                    start = perf_counter()
                    row = measure(assignment, bars)
                    if not isinstance(bars, str):
                        measure_s = measure_s or perf_counter() - start
                    if not (parts and isinstance(parts[-1][2], list)):
                        parts.append([index, index, []])
                    parts[-1][1] = done = index + 1
                    parts[-1][2].append(row)
                    continue
                pending.append((assignment, bars))
                share = _share(len(assignments) - done, processes, signal_s / (index + 1), measure_s)
                if len(pending) >= share and _parts.pays(len(pending) * measure_s):
                    parts.append([done, index + 1, _parts.fork(partial(_child_rows, measure, pending))])
                    done, pending = index + 1, []
                    processes = processes - 1 if parts[-1][2] else 1
            if pending:  # too few cells were left to be worth a fork
                parts.append([done, len(assignments), [measure(*cell) for cell in pending]])
        except Exception:  # measured again below, where it raises in grid order
            parts.append([done, len(assignments), None])
        sent = [_sent_rows(source) if isinstance(source, tuple) else source
                for *_, source in parts]
    except BaseException:
        _parts.stop([source for *_, source in parts if isinstance(source, tuple)])
        raise
    cells: list[SweepRow | str] = []
    for (start, stop, _), rows in zip(parts, sent):
        cells += [measure(a, signals(a)) for a in assignments[start:stop]] if rows is None else rows
    return cells


def run_sweep(
    series: OhlcvSeries,
    spec: SweepSpec,
    benchmark_closes: Sequence[float] | None = None,
    trading_days: int = TRADING_DAYS_PER_YEAR,
) -> SweepResult:
    """Evaluate every grid cell, filter by min_trades, rank by objective.

    Cells share one list of close ratios, one set of return sums (see
    ``metrics.ReturnSums``) and one computation of each distinct
    indicator series, and each cell's equity stays in exposure runs, so
    the result is the same as evaluating each cell on its own. Forked
    children may measure some of the cells (see ``_measured_cells``);
    the result, and every byte written from it, is the same as when this
    process measures them all.
    """
    closes = series.closes
    benchmark = closes if benchmark_closes is None else benchmark_closes
    names = [path for path, _ in spec.axes]
    value_lists = [values for _, values in spec.axes]
    assignments = [tuple(zip(names, combo)) for combo in itertools.product(*value_lists)]

    try:
        benchmark_returns = daily_returns(benchmark)
    except EngineError as exc:
        # every cell's report needs these returns, so no cell can survive
        cells: list[SweepRow | str] = [exc.kind] * len(assignments)
    else:
        memo = KernelMemo(series)
        sums = ReturnSums(close_ratios(closes), benchmark_returns)
        cells = _measured_cells(assignments, partial(_cell_signals, spec, memo),
                                partial(_measure, spec, sums, trading_days, closes))

    dropped = Counter(cell for cell in cells if isinstance(cell, str))
    evaluated = [cell for cell in cells if not isinstance(cell, str)]
    rows = sorted(
        (row for row in evaluated if row.buy_count >= spec.min_trades),
        key=lambda row: (-row.objective_value, _param_key(row.params)),
    )
    result = SweepResult(rows, dict(sorted(dropped.items())), len(evaluated) - len(rows))
    if not rows:
        raise EmptyGridAfterFilter(
            f"no grid cell survived evaluation with min_trades={spec.min_trades} "
            f"(dropped {result.dropped}, below min_trades {result.below_min_trades})"
        )
    return result


def _param_key(params: tuple[tuple[str, Any], ...]) -> str:
    return ",".join(f"{path}={value!r}" for path, value in params)


def sweep_to_csv(rows: list[SweepRow], spec: SweepSpec, handle) -> None:
    """One row per surviving cell, written to an open text handle:
    parameter columns, then the metrics."""
    param_names = [path for path, _ in spec.axes]
    header = param_names + ["buy_count", "rr_whole", "sharpe_annual", "ir_annual", "objective"]
    handle.write(",".join(header) + "\n")
    for row in rows:
        values = dict(row.params)
        cells = [repr(values[name]) for name in param_names]
        cells.append(str(row.buy_count))
        cells.append(repr(row.rr_whole))
        cells.append("" if row.sr is None else repr(row.sr))
        cells.append("" if row.ir is None else repr(row.ir))
        cells.append(repr(row.objective_value))
        handle.write(",".join(cells) + "\n")
