import dataclasses
import functools
import io
import itertools
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (
    exit_codes_of_reaped, forced_cpus, interrupt_in, needs_fork, no_child_is_left, random_ohlcv,
)
from tabacktest import _exact, _parts, errors, strategies, sweep
from tabacktest.backtest import run
from tabacktest.config import parse_kv_text, strategy_from_dict, sweep_from_dict
from tabacktest.metrics import build_report
from tabacktest.strategies import generate_signals
from tabacktest.sweep import run_sweep, sweep_to_csv

SWEEP_TEXT = """
strategy = two_average
objective = sharpe_annual
min_trades = 1
fast.kind = sma
fast.period = 2:4:1
slow.kind = sma
slow.period = 12,20
"""


@pytest.fixture(scope="module")
def series():
    return random_ohlcv(random.Random(2024), 320)


def _row_measures(row):
    """The measures a sweep row holds, in the order of ``_report_measures``."""
    return row.buy_count, row.rr_whole, row.sr, row.ir


def _report_measures(report):
    return report.buy_count, report.rr_whole, report.sr, report.ir


def test_single_cell_matches_direct_backtest(series):
    text = """
    strategy = two_average
    fast.kind = sma
    fast.period = 3
    slow.kind = sma
    slow.period = 15
    """
    spec = sweep_from_dict(parse_kv_text(text))
    assert spec.grid_size() == 1
    rows = run_sweep(series, spec).rows
    assert len(rows) == 1
    config = strategy_from_dict(parse_kv_text(text))
    result = run(series, generate_signals(series, config))
    report = build_report(result.equity, series.closes, result.buy_count, 252)
    assert _row_measures(rows[0]) == _report_measures(report)


def test_grid_rows_sorted_and_complete(series):
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    assert spec.grid_size() == 6
    rows = run_sweep(series, spec).rows
    values = [row.objective_value for row in rows]
    assert values == sorted(values, reverse=True)
    # every surviving row reproduces its own cell run exactly
    for row in rows:
        tree = parse_kv_text(SWEEP_TEXT.replace("2:4:1", str(dict(row.params)["fast.period"]))
                             .replace("12,20", str(dict(row.params)["slow.period"])))
        config = strategy_from_dict(tree)
        result = run(series, generate_signals(series, config))
        assert row.buy_count == result.buy_count


def test_min_trades_filter_can_empty_the_grid(series):
    text = SWEEP_TEXT.replace("min_trades = 1", "min_trades = 100000")
    with pytest.raises(errors.EmptyGridAfterFilter):
        run_sweep(series, sweep_from_dict(parse_kv_text(text)))


def test_csv_shape(series):
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    rows = run_sweep(series, spec).rows
    buffer = io.StringIO()
    sweep_to_csv(rows, spec, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "fast.period,slow.period,buy_count,rr_whole,sharpe_annual,ir_annual,objective"
    assert len(lines) == len(rows) + 1


DEGENERATE_TEXT = """
strategy = two_average
min_trades = 1
fast.kind = sma
fast.period = 5
slow.kind = sma
slow.period = 5,15
"""


def test_degenerate_cells_are_dropped(series):
    # slow.period == fast.period never crosses -> zero trades -> filtered
    rows = run_sweep(series, sweep_from_dict(parse_kv_text(DEGENERATE_TEXT))).rows
    assert all(dict(row.params)["slow.period"] == 15 for row in rows)


@pytest.mark.parametrize("objective, extra_slow, dropped, below_min_trades", [
    # the flat 5/5 cell has no volatility, so its Sharpe ratio is undefined
    ("sharpe_annual", "", {"ZeroVolatility": 1}, 0),
    # rr_whole is defined for it, so min_trades filters it instead
    ("rr_whole", "", {}, 1),
    # a window longer than the series drops its cell with the error's kind
    ("sharpe_annual", ",400", {"TooShort": 1, "ZeroVolatility": 1}, 0),
])
def test_drops_are_counted_by_kind(series, objective, extra_slow, dropped, below_min_trades):
    text = DEGENERATE_TEXT.replace("5,15", "5,15" + extra_slow) + f"objective = {objective}\n"
    spec = sweep_from_dict(parse_kv_text(text))
    result = run_sweep(series, spec)
    assert result.dropped == dropped
    assert result.below_min_trades == below_min_trades
    assert len(result.rows) + sum(dropped.values()) + below_min_trades == spec.grid_size()


def test_failing_benchmark_returns_drop_every_cell():
    # one bar: every cell's strategy is too short, and so are the
    # benchmark's returns; the sweep must still report an empty grid
    one_bar = random_ohlcv(random.Random(5), 1)
    with pytest.raises(errors.EmptyGridAfterFilter, match="'TooShort': 6"):
        run_sweep(one_bar, sweep_from_dict(parse_kv_text(SWEEP_TEXT)))


def test_a_benchmark_return_that_overflows_drops_every_cell(series):
    # every benchmark close is positive and finite, but 1e300 / 1e-300 is not
    benchmark = [1e-300] + [1e300] * (len(series) - 1)
    with pytest.raises(errors.EmptyGridAfterFilter, match="'DomainError': 6"):
        run_sweep(series, sweep_from_dict(parse_kv_text(SWEEP_TEXT)), benchmark)


@pytest.mark.parametrize("bars", [100, 400])
def test_a_benchmark_of_another_length_drops_every_cell(series, bars):
    # a shorter benchmark's sums end before the cells' runs do
    benchmark = random_ohlcv(random.Random(6), bars).closes
    with pytest.raises(errors.EmptyGridAfterFilter, match="'LengthMismatch': 6"):
        run_sweep(series, sweep_from_dict(parse_kv_text(SWEEP_TEXT)), benchmark)


# One small grid per strategy. rr_whole is never undefined and min_trades
# is 0, so every cell that does not raise is ranked.
STRATEGY_GRIDS = {
    "two_average": "fast.kind = sma,ema\nfast.period = 3,5\nslow.kind = sma\nslow.period = 15,25\n",
    "price_cross": "ma.matype = 1,2\nma.timeperiod_long = 21,31\nma.timeperiod_short = 3\n"
                   "ma.ada_win = 8,12\n",
    "keltner": "ma.kind = ema\nma.period = 10,20\nkeltner.mult = 0.5,1,2\n",
    "rsi": "rsi.n = 7,14\nrsi.down_thres = 30,45\nrsi.upper_thres = 55,70\nrsi.rsitype = 2\n"
           "rsi.sma_n = 10,20\nrsi.diff_rate = 0.02\n",
    "aroon": "aroon.n = 10,25\naroon.aroon_type = 1,2\naroon.weak_thres = 30,45\n",
    "bollinger": "bollinger.n = 10,20\nbollinger.dev = 0.5,1,2\n",
    "macd": "macd.short_n = 6,12\nmacd.long_n = 20,26\nmacd.signal_n = 5,9\n",
}


def _direct_report(series, spec, params, benchmark=None):
    result = run(series, generate_signals(series, spec.cell_config(params)))
    return build_report(result.equity, benchmark or series.closes, result.buy_count, 252)


@pytest.mark.parametrize("seed", [1, 4])
@pytest.mark.parametrize("strategy", sorted(STRATEGY_GRIDS))
def test_shared_work_matches_direct_backtests(strategy, seed):
    # each strategy's grid on two independently drawn price series
    series = random_ohlcv(random.Random(seed), 320)
    text = f"strategy = {strategy}\nobjective = rr_whole\nmin_trades = 0\n"
    spec = sweep_from_dict(parse_kv_text(text + STRATEGY_GRIDS[strategy]))
    result = run_sweep(series, spec)
    assert len(result.rows) == spec.grid_size()
    for row in result.rows:
        assert _row_measures(row) == _report_measures(_direct_report(series, spec, row.params))


@pytest.mark.parametrize("strategy", sorted(STRATEGY_GRIDS))
def test_shared_work_matches_direct_backtests_against_another_benchmark(strategy):
    series = random_ohlcv(random.Random(1), 320)
    benchmark = random_ohlcv(random.Random(9), 320).closes
    text = f"strategy = {strategy}\nobjective = ir_annual\nmin_trades = 0\n"
    spec = sweep_from_dict(parse_kv_text(text + STRATEGY_GRIDS[strategy]))
    result = run_sweep(series, spec, benchmark)
    assert len(result.rows) == spec.grid_size()
    for row in result.rows:
        report = _direct_report(series, spec, row.params, benchmark)
        assert _row_measures(row) == _report_measures(report)


def test_each_moving_average_is_computed_once(series, monkeypatch):
    calls = []

    def counting(data, spec):
        calls.append(spec)
        return original(data, spec)

    original = strategies.moving_average
    monkeypatch.setattr(strategies, "moving_average", counting)
    text = SWEEP_TEXT.replace("2:4:1", "2:20:2").replace("12,20", "30:120:10")
    spec = sweep_from_dict(parse_kv_text(text))
    assert spec.grid_size() == 100
    run_sweep(series, spec)
    assert len(calls) == 20
    assert len(set(calls)) == 20


def test_a_sweep_converts_its_closes_once(series, monkeypatch):
    calls = []

    def counting(x, *args):
        calls.append(x)
        return original(x, *args)

    original = _exact.exact_ints
    monkeypatch.setattr(_exact, "exact_ints", counting)
    fresh = dataclasses.replace(series)  # no close column built yet
    text = SWEEP_TEXT.replace("2:4:1", "2:20:2").replace("12,20", "30:120:10")
    run_sweep(fresh, sweep_from_dict(parse_kv_text(text)))
    assert calls == [fresh.closes]


@pytest.mark.parametrize("strategy, parts", [
    ("keltner", "keltner_parts"),
    ("bollinger", "bollinger_parts"),
])
def test_band_parts_are_shared_across_widths(series, monkeypatch, strategy, parts):
    # the grid has 2 windows x 3 band widths; the parts depend only on the window
    calls = []
    original = getattr(strategies, parts)

    def counting(data, window):
        calls.append(window)
        return original(data, window)

    monkeypatch.setattr(strategies, parts, counting)
    text = f"strategy = {strategy}\nobjective = rr_whole\nmin_trades = 0\n"
    spec = sweep_from_dict(parse_kv_text(text + STRATEGY_GRIDS[strategy]))
    assert spec.grid_size() == 6
    run_sweep(series, spec)
    assert len(calls) == 2
    assert len(set(calls)) == 2


def _grid(spec):
    names = [path for path, _ in spec.axes]
    return [tuple(zip(names, combo)) for combo in itertools.product(*(v for _, v in spec.axes))]


@needs_fork
@pytest.mark.parametrize("strategy", sorted(STRATEGY_GRIDS))
def test_measuring_in_parts_gives_the_serial_result(strategy, monkeypatch):
    # seed 4 and min_trades 3 give drops on aroon and keltner, and cells
    # below min_trades on aroon, keltner, bollinger and rsi
    series = random_ohlcv(random.Random(4), 320)
    text = f"strategy = {strategy}\nobjective = sharpe_annual\nmin_trades = 3\n"
    spec = sweep_from_dict(parse_kv_text(text + STRATEGY_GRIDS[strategy]))
    serial = run_sweep(series, spec)
    for cpus in (1, 2, 3):
        for ticking in (True, False):
            forks = forced_cpus(monkeypatch, cpus, ticking=ticking)
            assert run_sweep(series, spec) == serial
            assert len(forks) <= cpus - 1
            assert len(forks) == cpus - 1 or not ticking
            no_child_is_left()


def test_parts_shrink_so_that_every_process_finishes_together():
    signal_s, measure_s = 1.0, 3.0
    ratio = measure_s / (signal_s + measure_s)
    # two processes: the child measures k cells while this one computes
    # the signals of the other 60 - k and measures them
    k = sweep._share(60, 2, signal_s, measure_s)
    assert k * measure_s == pytest.approx((60 - k) * (signal_s + measure_s))
    cells, parts = 60.0, []
    for processes in (4, 3, 2, 1):
        parts.append(sweep._share(cells, processes, signal_s, measure_s))
        cells -= parts[-1]
    assert cells == pytest.approx(0)
    assert [b / a for a, b in zip(parts, parts[1:])] == pytest.approx([ratio] * 3)
    # where signals take no time, every process measures as many cells
    assert sweep._share(60, 4, 0.0, measure_s) == 15


@needs_fork
def test_a_part_is_forked_only_if_measuring_it_takes_longer_than_a_fork(series, monkeypatch):
    # with a one-second fork, cell 0 is measured here and children measure
    # cells 1-3 and 4-5; after a fork of 100 s the last two cells stay here
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    serial = run_sweep(series, spec)
    for fork_s, forked in ((1, 2), (100, 1)):
        forks = forced_cpus(monkeypatch, 8, fork_s)
        assert run_sweep(series, spec) == serial
        assert len(forks) == forked
        no_child_is_left()


@needs_fork
def test_a_grid_of_one_cell_forks_nothing(series, monkeypatch):
    text = SWEEP_TEXT.replace("2:4:1", "3").replace("12,20", "15")
    forks = forced_cpus(monkeypatch, 3)
    assert len(run_sweep(series, sweep_from_dict(parse_kv_text(text))).rows) == 1
    assert forks == []


# where each step of a cell takes the cell's assignment
_ASSIGNMENT_ARG = {"_cell_signals": -1, "_measure": -2}


def _faulty(monkeypatch, step, fault):
    """Have ``fault(assignment)`` run before ``step`` of each cell."""
    original = getattr(sweep, step)

    def faulty(*args):
        fault(args[_ASSIGNMENT_ARG[step]])
        return original(*args)

    monkeypatch.setattr(sweep, step, faulty)


@needs_fork
@pytest.mark.parametrize("faults", [
    # (step, cell) pairs that raise, the one raised in grid order first
    [("_cell_signals", 0)],
    [("_cell_signals", 5)],
    [("_measure", 0)],
    [("_measure", 5)],
    [("_measure", 2), ("_measure", 5)],
    [(step, cell) for cell in range(6) for step in ("_cell_signals", "_measure")],
    [("_measure", cell) for cell in range(6)],
    [("_measure", 1), ("_cell_signals", 3)],
    [("_measure", 3), ("_cell_signals", 4)],
])
def test_a_bug_raises_the_serial_exception(series, monkeypatch, faults):
    # this process computes every cell's signals and measures cell 0; in
    # 2 parts a child measures cells 1-4 and this process cell 5, and in 3
    # parts children measure cells 1-3 and 4-5
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    grid = _grid(spec)
    faulty = {(step, grid[cell]) for step, cell in faults}

    def fault(step, assignment):
        if (step, assignment) in faulty:
            raise KeyError(f"no {step} for {assignment}")

    for step in _ASSIGNMENT_ARG:
        _faulty(monkeypatch, step, functools.partial(fault, step))
    first_step, first_cell = faults[0]
    for cpus in (1, 2, 3):
        forced_cpus(monkeypatch, cpus)
        with pytest.raises(KeyError) as info:
            run_sweep(series, spec)
        assert info.type is KeyError
        assert info.value.args == (f"no {first_step} for {grid[first_cell]}",)
        no_child_is_left()


@needs_fork
def test_a_drop_measured_in_a_child_is_counted(series, monkeypatch):
    # this process measures the 5/15 cell; a child the flat 5/5 cell and
    # the 5/400 cell, whose signals are too short
    text = DEGENERATE_TEXT.replace("5,15", "15,5,400") + "objective = sharpe_annual\n"
    caller, measured_here = os.getpid(), []

    def fault(assignment):
        if os.getpid() == caller:
            measured_here.append(dict(assignment)["slow.period"])

    _faulty(monkeypatch, "_measure", fault)
    forks = forced_cpus(monkeypatch, 3)
    result = run_sweep(series, sweep_from_dict(parse_kv_text(text)))
    assert result.dropped == {"TooShort": 1, "ZeroVolatility": 1}
    assert [dict(row.params)["slow.period"] for row in result.rows] == [15]
    assert len(forks) == 1
    assert measured_here == [15]


@needs_fork
@pytest.mark.parametrize("code", [0, 1])
def test_a_child_that_exits_without_rows_leaves_the_serial_result(series, monkeypatch, code):
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    serial = run_sweep(series, spec)
    caller = os.getpid()

    def fault(assignment):
        if os.getpid() != caller:
            os._exit(code)

    _faulty(monkeypatch, "_measure", fault)
    forks = forced_cpus(monkeypatch, 3)
    assert run_sweep(series, spec) == serial
    assert len(forks) == 2
    no_child_is_left()


@needs_fork
@pytest.mark.parametrize("cpus, exit_codes", [(2, [-signal.SIGKILL]), (3, [0, -signal.SIGKILL])])
def test_an_interrupted_caller_kills_its_children(series, monkeypatch, cpus, exit_codes):
    # in 2 parts the child sleeps a minute a cell, and this process is
    # interrupted measuring its own last cell; in 3 parts the second child
    # sleeps on the last cell, and this process is interrupted reading its
    # pipe, once the first child is reaped
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    last, caller = _grid(spec)[-1], os.getpid()

    def fault(assignment):
        if os.getpid() == caller:
            if assignment == last:
                raise KeyboardInterrupt
        elif cpus == 2 or assignment == last:
            time.sleep(60)

    _faulty(monkeypatch, "_measure", fault)
    forks = forced_cpus(monkeypatch, cpus)
    reaped = exit_codes_of_reaped(monkeypatch)
    previous = signal.getsignal(signal.SIGALRM)
    if cpus == 3:
        interrupt_in(0.5)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_sweep(series, spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == cpus - 1
    assert reaped == exit_codes
    monkeypatch.undo()
    no_child_is_left()


@needs_fork
def test_an_interrupt_with_sigchld_ignored_awaits_the_children(series, monkeypatch):
    # the kernel reaps each child as it exits and may reuse its pid, so
    # none is killed: the child measures its cells, fails to write its
    # rows to the closed pipe, and exits
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    last, caller, kills = _grid(spec)[-1], os.getpid(), []

    def fault(assignment):
        if os.getpid() != caller:
            time.sleep(0.2)
        elif assignment == last:
            raise KeyboardInterrupt

    _faulty(monkeypatch, "_measure", fault)
    forks = forced_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "kill", lambda *args: kills.append(args))
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    started = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_sweep(series, spec)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert time.monotonic() - started >= 0.2 * 4  # the child's four cells
    assert len(forks) == 1
    assert kills == []
    no_child_is_left()


@needs_fork
def test_a_child_interrupted_as_it_starts_never_returns_to_the_caller(series, monkeypatch):
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    serial = run_sweep(series, spec)
    caller = os.getpid()
    forks = forced_cpus(monkeypatch, 3)
    counting = os.fork

    def fork_then_interrupt():
        pid = counting()
        if pid == 0:
            raise KeyboardInterrupt
        return pid

    monkeypatch.setattr(os, "fork", fork_then_interrupt)
    exit_codes = exit_codes_of_reaped(monkeypatch)
    try:
        result = run_sweep(series, spec)
    finally:
        if os.getpid() != caller:  # a child got out of the sweep into this test
            os._exit(3)
    assert result == serial
    assert len(forks) == 2
    assert exit_codes == [1, 1]
    monkeypatch.undo()
    no_child_is_left()


@needs_fork
def test_a_part_that_cannot_fork_is_measured_by_the_caller(series, monkeypatch):
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    serial = run_sweep(series, spec)
    forks = forced_cpus(monkeypatch, 3)

    def no_child():
        forks.append(None)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_child)
    assert run_sweep(series, spec) == serial
    assert len(forks) == 1  # no fork is tried after one fails
    no_child_is_left()


@needs_fork
def test_children_reaped_by_an_ignored_sigchld_still_send_their_rows(series, monkeypatch):
    # with SIGCHLD ignored the kernel reaps each child, and waitpid finds none
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    serial = run_sweep(series, spec)
    caller, measured_here = os.getpid(), []

    def fault(assignment):
        if os.getpid() == caller:
            measured_here.append(assignment)

    _faulty(monkeypatch, "_measure", fault)
    forks = forced_cpus(monkeypatch, 3)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        result = run_sweep(series, spec)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert result == serial
    assert len(forks) == 2
    assert measured_here == _grid(spec)[:1]  # both children's rows arrived
    no_child_is_left()


CPUS_SCRIPT = """
import io, os, threading
from tabacktest import _parts

def runnable(count):
    line = f"0.00 0.00 0.00 {count}/90 1234\\n"
    _parts.open = lambda path: io.StringIO(line)

os.sched_getaffinity = lambda pid: {0, 1, 2}
for count in (1, 2, 3, 7):
    runnable(count)
    print(_parts.cpus())
runnable(1)
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
print(_parts.cpus())
stop.set()
thread.join()
listdir = os.listdir
def unreadable(path):
    raise PermissionError(13, "Permission denied", path)
os.listdir = unreadable
print(_parts.cpus())
os.listdir = listdir
os.sched_getaffinity = lambda pid: {0}
print(_parts.cpus())
del os.sched_getaffinity
print(_parts.cpus())
"""


def test_only_a_lone_thread_with_idle_cpus_measures_in_parts():
    # in a fresh interpreter: this one may run threads of its own (a BLAS pool)
    src = Path(_parts.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", CPUS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # 3 CPUs with 1, 2, 3 and 7 tasks runnable, this one included; then
    # a second thread, no /proc/self/task, one CPU and no sched_getaffinity
    assert done.stdout.split() == ["3", "2", "1", "1", "1", "1", "1", "1"]
