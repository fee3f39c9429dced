"""Parameter-grid evaluation over one series.

Cells are evaluated one after another; the result is sorted by the
objective (descending) with a lexicographic tie-break on the parameter
assignment, so output never depends on evaluation order.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Any, Optional, Sequence

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


def _evaluate_cell(
    spec: SweepSpec,
    sums: ReturnSums,
    trading_days: int,
    memo: KernelMemo,
    assignment: tuple[tuple[str, Any], ...],
) -> SweepRow | str:
    """The cell's row, or the kind of error that drops it."""
    closes = memo.series.closes
    try:
        config = spec.cell_config(assignment)
        bars = generate_signals(memo.series, config, memo)
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
    the result is the same as evaluating each cell on its own.
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
        cells = [_evaluate_cell(spec, sums, trading_days, memo, assignment)
                 for assignment in assignments]

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
