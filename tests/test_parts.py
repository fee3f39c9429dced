"""Writers of a series' bars in forked row ranges (``_parts.write_rows``):
``serialize_csv``, ``equity_to_csv`` and the ``indicators.csv`` writer
give the bytes of one process, and raise what one process raises,
whatever the number of processes, and no child outlives a call."""
import functools
import io
import os
import random
import signal
import time

import pytest

from conftest import (
    exit_codes_of_reaped, forced_cpus, interrupt_in, needs_fork, no_child_is_left, random_ohlcv,
)
from tabacktest import _parts, cli, indicators
from tabacktest.backtest import BacktestResult, equity_to_csv, run
from tabacktest.config import parse_kv_text, strategy_from_dict
from tabacktest.market_data import serialize_csv
from tabacktest.strategies import generate_signals

STRATEGY = """
strategy = two_average
fast.kind = sma
fast.period = 3
slow.kind = ema
slow.period = 12
"""

WRITERS = ["serialize_csv", "equity_to_csv", "indicators"]


def _writer(name, series):
    """``write(handle)`` of the writer ``name`` on ``series``."""
    if name == "serialize_csv":
        return functools.partial(serialize_csv, series)
    if name == "equity_to_csv":
        result = run(series, generate_signals(series, strategy_from_dict(parse_kv_text(STRATEGY))))
        return functools.partial(equity_to_csv, result, series)
    columns = {"ema5": indicators.ema(series, 5).values, "rsi3": indicators.rsi(series, 3).values}
    return functools.partial(cli._indicators_to_csv, series.closes, columns)


def _bytes(write, tmp_path, handle_kind):
    """What ``write`` puts into a StringIO or into a real file, as bytes."""
    if handle_kind == "StringIO":
        handle = io.StringIO(newline="")
        write(handle)
        return handle.getvalue().encode("utf-8")
    path = tmp_path / "artifact.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write(handle)
    return path.read_bytes()


@pytest.fixture(scope="module")
def series():
    return random_ohlcv(random.Random(33), 300)


def _one_process(monkeypatch, write, tmp_path, handle_kind="StringIO"):
    monkeypatch.setattr(_parts, "cpus", lambda: 1)
    return _bytes(write, tmp_path, handle_kind)


@needs_fork
@pytest.mark.parametrize("name", WRITERS)
@pytest.mark.parametrize("handle_kind", ["StringIO", "file"])
def test_a_writer_gives_the_bytes_of_one_process(series, monkeypatch, tmp_path, name, handle_kind):
    write = _writer(name, series)
    serial = _one_process(monkeypatch, write, tmp_path, handle_kind)
    assert serial.count(b"\n") == len(series) + 1
    for piece_rows in (_parts.PIECE_ROWS, 7):  # one piece a child, and many
        monkeypatch.setattr(_parts, "PIECE_ROWS", piece_rows)
        for cpus in (1, 2, 3):
            for ticking in (True, False):
                forks = forced_cpus(monkeypatch, cpus, ticking=ticking)
                assert _bytes(write, tmp_path, handle_kind) == serial
                assert len(forks) <= cpus - 1
                assert len(forks) == cpus - 1 or not ticking
                no_child_is_left()


@needs_fork
@pytest.mark.parametrize("name", WRITERS)
def test_a_one_bar_series_forks_nothing(monkeypatch, tmp_path, name):
    bar = random_ohlcv(random.Random(1), 1)
    write = {  # a one-bar series has no signals and no indicator past its warm-up
        "serialize_csv": functools.partial(serialize_csv, bar),
        "equity_to_csv": functools.partial(equity_to_csv, BacktestResult(bar.closes, ()), bar),
        "indicators": functools.partial(cli._indicators_to_csv, bar.closes, {"c": bar.closes}),
    }[name]
    serial = _one_process(monkeypatch, write, tmp_path)
    forks = forced_cpus(monkeypatch, 3)
    assert _bytes(write, tmp_path, "StringIO") == serial
    assert forks == []


@needs_fork
def test_a_range_is_forked_only_if_formatting_it_takes_longer_than_a_fork(monkeypatch, tmp_path):
    # row 0 takes a second here; rows 1-6 go in three ranges of two rows,
    # two seconds each, so after a one-second fork the third range is
    # forked too, and after a fork of 100 s it is formatted here, as is a
    # later call's range
    write = _writer("serialize_csv", random_ohlcv(random.Random(2), 7))
    serial = _one_process(monkeypatch, write, tmp_path)
    for fork_s, forked in ((1, 2), (100, 1)):
        forks = forced_cpus(monkeypatch, 3, fork_s)
        assert _bytes(write, tmp_path, "StringIO") == serial
        assert len(forks) == forked
        no_child_is_left()
    assert _bytes(write, tmp_path, "StringIO") == serial
    assert len(forks) == 1


@needs_fork
@pytest.mark.parametrize("code", [0, 1])
def test_a_child_that_exits_without_its_text_leaves_its_range_to_the_caller(
        series, monkeypatch, tmp_path, code):
    write = _writer("indicators", series)
    serial = _one_process(monkeypatch, write, tmp_path)
    monkeypatch.setattr(_parts, "_pieces", lambda *args: os._exit(code))
    forks = forced_cpus(monkeypatch, 3)
    assert _bytes(write, tmp_path, "file") == serial
    assert len(forks) == 2
    no_child_is_left()


def _rows_failing_at(bad):
    def rows(start, stop):
        for row in range(start, stop):
            if row == bad:
                raise KeyError(f"no row {row}")
            yield f"{row}\n"
    return rows


@needs_fork
@pytest.mark.parametrize("bad", [0, 1, 4, 9, 10])
def test_a_row_that_raises_raises_as_in_one_process(monkeypatch, bad):
    # 11 rows: rows 0-3 here, 4-6 and 7-10 in children
    outcomes = []
    for cpus in (1, 3):
        forks = forced_cpus(monkeypatch, cpus)
        handle = io.StringIO()
        with pytest.raises(KeyError) as info:
            _parts.write_rows(handle, _rows_failing_at(bad), 11)
        outcomes.append((handle.getvalue(), info.value.args))
        assert len(forks) == (2 if cpus == 3 and bad else 0)
        no_child_is_left()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ("".join(f"{row}\n" for row in range(bad)), (f"no row {bad}",))


@needs_fork
@pytest.mark.parametrize("cpus, exit_codes", [(2, [-signal.SIGKILL]), (3, [0, -signal.SIGKILL])])
def test_an_interrupt_while_reading_a_childs_text_kills_and_reaps_the_children(
        series, monkeypatch, tmp_path, cpus, exit_codes):
    # the child of the last range sleeps a minute; this process is
    # interrupted reading its text, after any earlier child is reaped
    write = _writer("serialize_csv", series)
    pieces = _parts._pieces

    def slow(rows, begin, end):
        if end == len(series):
            time.sleep(60)
        return pieces(rows, begin, end)

    monkeypatch.setattr(_parts, "_pieces", slow)
    forks = forced_cpus(monkeypatch, cpus)
    reaped = exit_codes_of_reaped(monkeypatch)
    previous = signal.getsignal(signal.SIGALRM)
    interrupt_in(0.5)
    started = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            _bytes(write, tmp_path, "file")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 30
    assert len(forks) == cpus - 1
    assert reaped == exit_codes
    monkeypatch.undo()
    no_child_is_left()


def _child_affinity():
    return sorted(os.sched_getaffinity(0))


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no os.sched_getaffinity")
def test_a_child_leaves_the_cpu_its_caller_ran_on(monkeypatch):
    mine = sorted(os.sched_getaffinity(0))
    assert _parts._this_cpu() in mine
    monkeypatch.setattr(_parts, "_this_cpu", lambda: mine[0])
    # with one CPU in the affinity no CPU would be left, and the child stays
    assert _parts.sent(_parts.fork(_child_affinity)) == (mine[1:] or mine)
    monkeypatch.setattr(_parts, "_this_cpu", lambda: None)  # /proc/self/stat unreadable
    assert _parts.sent(_parts.fork(_child_affinity)) == mine
    assert sorted(os.sched_getaffinity(0)) == mine
    no_child_is_left()
