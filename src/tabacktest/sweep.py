"""Parameter-grid evaluation over one series.

Cells are independent and may be evaluated concurrently; the merged
result is sorted by the objective (descending) with a lexicographic
tie-break on the parameter assignment, so output never depends on
evaluation order or worker count.
"""
from __future__ import annotations

import copy
import itertools
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .backtest import close_ratios, exposure_runs
from .config import SweepSpec, set_leaf, strategy_from_dict
from .errors import EmptyGridAfterFilter, EngineError, ZeroVolatility
from .market_data import OhlcvSeries
from .metrics import MetricReport, daily_returns, report_from_runs
from .strategies import KernelMemo, generate_signals


@dataclass(frozen=True)
class SweepRow:
    params: tuple[tuple[str, Any], ...]
    buy_count: int
    objective_value: float
    report: MetricReport


@dataclass(frozen=True)
class SweepResult:
    """Ranked rows, and why every other cell of the grid is missing."""

    rows: list[SweepRow]
    dropped: dict[str, int]  # error kind -> cells it dropped, sorted by kind
    below_min_trades: int


def _objective_value(report: MetricReport, objective: str) -> Optional[float]:
    if objective == "sharpe_annual":
        return report.sr
    if objective == "ir_annual":
        return report.ir
    return report.rr_whole


def _evaluate_cell(
    series: OhlcvSeries,
    spec: SweepSpec,
    closes: list[float],
    ratios: list[float],
    benchmark_returns: Sequence[float],
    trading_days: int,
    memo: KernelMemo,
    assignment: tuple[tuple[str, Any], ...],
) -> SweepRow | str:
    """The cell's row, or the kind of error that drops it."""
    tree = copy.deepcopy(spec.base_tree)
    for path, value in assignment:
        set_leaf(tree, path, value)
    try:
        config = strategy_from_dict(tree)
        signals = generate_signals(series, config, memo)
        initial, runs = exposure_runs(closes, signals, ratios)
        report = report_from_runs(initial, runs, len(closes), benchmark_returns, len(runs),
                                  trading_days)
    except EngineError as exc:
        return exc.kind
    value = _objective_value(report, spec.objective)
    if value is None:
        # only a ratio is ever None: its volatility was zero
        return ZeroVolatility.__name__
    return SweepRow(assignment, report.buy_count, value, report)


def run_sweep(
    series: OhlcvSeries,
    spec: SweepSpec,
    benchmark_closes: Sequence[float] | None = None,
    trading_days: int = 252,
    jobs: int = 1,
) -> SweepResult:
    """Evaluate every grid cell, filter by min_trades, rank by objective.

    Cells share one pass over the benchmark's returns, one list of close
    ratios and one computation of each distinct indicator series, and
    each cell's equity stays in exposure runs, so the result is the same
    as evaluating each cell on its own.
    """
    closes = series.closes
    benchmark = list(benchmark_closes) if benchmark_closes is not None else closes
    names = [path for path, _ in spec.axes]
    value_lists = [values for _, values in spec.axes]
    assignments = [
        tuple(zip(names, combo)) for combo in itertools.product(*value_lists)
    ] or [()]

    try:
        benchmark_returns = daily_returns(benchmark)
    except EngineError as exc:
        # every cell's report needs these returns, so no cell can survive
        cells: list[SweepRow | str] = [exc.kind] * len(assignments)
    else:
        memo = KernelMemo()
        ratios = close_ratios(closes)

        def evaluate(assignment):
            return _evaluate_cell(series, spec, closes, ratios, benchmark_returns, trading_days,
                                  memo, assignment)

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                cells = list(pool.map(evaluate, assignments))
        else:
            cells = [evaluate(a) for a in assignments]

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
        cells.append(repr(row.report.rr_whole))
        cells.append("" if row.report.sr is None else repr(row.report.sr))
        cells.append("" if row.report.ir is None else repr(row.report.ir))
        cells.append(repr(row.objective_value))
        handle.write(",".join(cells) + "\n")
