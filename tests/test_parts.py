"""Work shared with forked children from both ends (``_parts.share``): the
bar writers (``serialize_csv``, ``equity_to_csv`` and the
``indicators.csv`` writer, through ``_parts.write_rows``) and the
indicator dump's columns (``cli._fill``) give the bytes of one process,
and raise what one process raises, whatever the number of processes,
and no child outlives a call."""
import functools
import io
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import (
    DATA_DIR, exit_codes_of_reaped, forced_cpus, interrupt_in, needs_fork, no_child_is_left,
    random_ohlcv,
)
from tabacktest import _parts, cli, indicators
from tabacktest.backtest import BacktestResult, equity_to_csv, run
from tabacktest.config import AmaParams, parse_kv_text, strategy_from_dict
from tabacktest.errors import DomainError, TooShort
from tabacktest.market_data import serialize_csv
from tabacktest.strategies import KernelMemo, generate_signals

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


def _pieces_of(monkeypatch, rows):
    """Write every artifact in pieces of ``rows`` rows from now on."""
    monkeypatch.setattr(_parts, "MIN_PIECE_ROWS", rows)
    monkeypatch.setattr(_parts, "PIECE_ROWS", rows)


@needs_fork
@pytest.mark.parametrize("name", WRITERS)
@pytest.mark.parametrize("handle_kind", ["StringIO", "file"])
def test_a_writer_gives_the_bytes_of_one_process(series, monkeypatch, tmp_path, name, handle_kind):
    write = _writer(name, series)
    serial = _one_process(monkeypatch, write, tmp_path, handle_kind)
    assert serial.count(b"\n") == len(series) + 1
    # 300 rows: by the size rule two pieces (256 and 44 rows), then 3 and 43
    for piece_rows, pieces in ((None, 2), (100, 3), (7, 43)):
        if piece_rows:
            _pieces_of(monkeypatch, piece_rows)
        for cpus in (1, 2, 3):
            for ticking in (True, False):
                # forks that take no time: each child pays, however small its share
                forks = forced_cpus(monkeypatch, cpus, 0, ticking)
                assert _bytes(write, tmp_path, handle_kind) == serial
                assert len(forks) <= min(cpus, pieces) - 1
                assert len(forks) == min(cpus, pieces) - 1 or not ticking
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
@pytest.mark.parametrize("bars, forked", [(256, 0), (257, 1), (600, 2)])
def test_an_artifact_of_one_piece_forks_nothing(monkeypatch, tmp_path, bars, forked):
    # pieces of count // 32 rows, at least 256: 1, 2 and 3 pieces, and
    # forks that take no time
    write = _writer("serialize_csv", random_ohlcv(random.Random(3), bars))
    serial = _one_process(monkeypatch, write, tmp_path)
    forks = forced_cpus(monkeypatch, 3, 0)
    assert _bytes(write, tmp_path, "StringIO") == serial
    assert len(forks) == forked


@needs_fork
def test_a_range_is_forked_only_if_formatting_it_takes_longer_than_a_fork(monkeypatch, tmp_path):
    # 7 one-row pieces: piece 0 takes a second here, so each of three
    # processes' shares of the other six takes two seconds; after a
    # one-second fork the second child is forked too, and after a fork of
    # 100 s it is not, nor is a later call's first child
    write = _writer("serialize_csv", random_ohlcv(random.Random(2), 7))
    serial = _one_process(monkeypatch, write, tmp_path)
    _pieces_of(monkeypatch, 1)
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
    _pieces_of(monkeypatch, 7)
    monkeypatch.setattr(_parts, "_from_back", lambda *args: os._exit(code))
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
    # 11 one-row pieces: piece 0 here, then blocks 1-6 and 7-10, each
    # taken from the front here and from the back by its child
    _pieces_of(monkeypatch, 1)
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


def _rows_taking(caller_s, child_s, taken):
    """Rows of one line each, ``row\\n``, taking ``caller_s`` a row in this
    process and ``child_s`` in a child; ``taken`` gets each row this
    process formats."""
    caller = os.getpid()

    def rows(start, stop):
        for row in range(start, stop):
            here = os.getpid() == caller
            if here:
                taken.append(row)
            time.sleep(caller_s if here else child_s)
            yield f"{row}\n"
    return rows


@needs_fork
@pytest.mark.parametrize("caller_s, child_s, taken_here", [(0, 0.02, range(30, 42)),
                                                           (0.02, 0, range(1, 11))])
def test_the_caller_and_its_child_meet_where_their_speeds_say(monkeypatch, caller_s, child_s,
                                                               taken_here):
    # 41 one-row pieces shared with one child: the faster process takes
    # most of them, whichever it is, the caller's are the first, and the
    # two stop where they meet, so at most one piece is formatted twice
    _pieces_of(monkeypatch, 1)
    forks = forced_cpus(monkeypatch, 2, ticking=False)
    taken, sent, load = [], [], _parts.sent

    def counting(child):
        payload = load(child)
        sent.append(len(payload[1]))
        return payload

    monkeypatch.setattr(_parts, "sent", counting)
    handle = io.StringIO()
    _parts.write_rows(handle, _rows_taking(caller_s, child_s, taken), 41)
    assert handle.getvalue() == "".join(f"{row}\n" for row in range(41))
    assert len(forks) == 1
    assert taken == list(range(len(taken)))
    assert len(taken) in taken_here
    assert len(taken) + sum(sent) - 41 in (0, 1)
    no_child_is_left()


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no os.sched_getaffinity")
def test_more_processes_than_cpus_write_each_row_once(monkeypatch):
    # every one of 400 one-row pieces shared by more processes than this
    # host has CPUs (at most 8) is written once and in order, wherever the
    # counters' races put the meetings
    processes = min(8, len(os.sched_getaffinity(0)) + 2)
    _pieces_of(monkeypatch, 1)
    forks = forced_cpus(monkeypatch, processes, 0)
    handle = io.StringIO()
    _parts.write_rows(handle, lambda start, stop: (f"{row}\n" for row in range(start, stop)), 400)
    assert handle.getvalue() == "".join(f"{row}\n" for row in range(400))
    assert len(forks) == processes - 1
    no_child_is_left()


@needs_fork
@pytest.mark.parametrize("cpus, exit_codes", [(2, [-signal.SIGKILL]), (3, [0, -signal.SIGKILL])])
def test_an_interrupt_while_reading_a_childs_text_kills_and_reaps_the_children(
        monkeypatch, cpus, exit_codes):
    # 11 one-row pieces, 50 ms each here: the child that takes the last
    # piece sleeps a minute there, and this process is interrupted
    # reading its text, after any earlier child is reaped
    _pieces_of(monkeypatch, 1)
    caller = os.getpid()

    def rows(start, stop):
        if os.getpid() == caller:
            time.sleep(0.05)
        elif stop == 11:
            time.sleep(60)
        return [f"{row}\n" for row in range(start, stop)]

    forks = forced_cpus(monkeypatch, cpus)
    reaped = exit_codes_of_reaped(monkeypatch)
    previous = signal.getsignal(signal.SIGALRM)
    interrupt_in(1)
    started = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            _parts.write_rows(io.StringIO(), rows, 11)
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


FRESH_BACKTEST = """
import os, sys
from tabacktest import _parts, cli

forks, fork = [], os.fork

def counting():
    forks.append(None)
    return fork()

os.fork = counting
_parts.cpus = lambda: 2
code = cli.main(sys.argv[1:])
print(code, len(forks))
"""


@needs_fork
def test_a_fresh_backtest_of_an_80_bar_fixture_forks_nothing(tmp_path):
    # in a fresh interpreter, which has timed no fork yet: its 80-row
    # equity.csv is one piece
    src = Path(_parts.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["backtest", "--data", str(DATA_DIR / "v_fixture.csv"),
            "--config", str(DATA_DIR / "v_strategy.cfg"), "--out-dir", str(tmp_path)]
    done = subprocess.run([sys.executable, "-c", FRESH_BACKTEST, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 0"
    assert (tmp_path / "equity.csv").read_text().count("\n") == 81


# -- the indicator dump's columns -----------------------------------------------

REGIME = DATA_DIR / "regime_fixture.csv"  # 510 bars: an indicators.csv of two pieces
DUMPS = {
    "one column": ["a=ema 5"],
    "duplicate specs": ["a=sma 5", "b=ema 3", "c=sma 5", "d=ema 3", "e=rsi 4"],
    "five tokens": ["sma50=sma 50", "ema20=ema 20", "rsi14=rsi 14", "rmi14=rmi 14 4",
                    "kama=ama 30 2 10 1"],
}


def _dump(tmp_path, specs, out="out"):
    """(exit code, stdout, indicators.csv bytes or None) of one dump through ``cli.main``."""
    argv = ["indicators", "--data", str(REGIME), "--out-dir", str(tmp_path / out)]
    for spec in specs:
        argv += ["--indicator", spec]
    with redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(argv)
    artifact = tmp_path / out / "indicators.csv"
    return code, stdout.getvalue(), artifact.read_bytes() if artifact.exists() else None


@needs_fork
@pytest.mark.parametrize("dump", DUMPS)
def test_the_dump_gives_the_bytes_of_one_process(monkeypatch, tmp_path, dump):
    specs = DUMPS[dump]
    distinct = len({spec.partition("=")[2] for spec in specs})
    forced_cpus(monkeypatch, 1)
    serial = _dump(tmp_path, specs, "serial")
    assert serial[0] == 0 and serial[2].count(b"\n") == 511
    for cpus in (1, 2, 3):
        for ticking in (True, False):
            forks = forced_cpus(monkeypatch, cpus, 0, ticking)  # forks that take no time
            assert _dump(tmp_path, specs) == serial
            # the columns' children, then the writer's (two pieces)
            most = min(cpus, distinct) - 1 + min(cpus, 2) - 1
            assert len(forks) <= most
            assert len(forks) == most or not ticking
            no_child_is_left()


def _failing(monkeypatch, name, error):
    """Make the kernel ``name`` raise ``error`` in every process."""
    def kernel(*args):
        raise error
    monkeypatch.setattr(indicators, name, kernel)


@needs_fork
@pytest.mark.parametrize("specs, forked, error", [
    # only the last call fails: the child takes it first, from the back
    (["a=ema 5", "b=rsi 3", "c=ema 7", "d=rsi 5", "e=sma 5"], True, DomainError("sma fails")),
    # the caller's third call fails, and the child's first
    (["a=ema 5", "b=rsi 3", "c=rmi 3 2", "d=rsi 5", "e=sma 5"], True, TooShort("rmi fails")),
    # the timed first call fails, before any fork
    (["a=sma 5", "b=rsi 3", "c=rmi 3 2"], False, DomainError("sma fails")),
])
def test_the_first_failing_spec_fails_as_in_one_process(monkeypatch, tmp_path, specs, forked,
                                                         error):
    _failing(monkeypatch, "sma", DomainError("sma fails"))
    _failing(monkeypatch, "rmi", TooShort("rmi fails"))
    for cpus in (1, 2, 3):
        forks = forced_cpus(monkeypatch, cpus)
        code, stdout, _ = _dump(tmp_path, specs)
        assert code == error.exit_code
        assert stdout == cli._json({"error": {"kind": error.kind, "message": str(error)}})
        assert bool(forks) == (forked and cpus > 1)
        no_child_is_left()


@needs_fork
@pytest.mark.parametrize("code", [0, 1])
def test_a_child_that_exits_without_sending_leaves_its_columns_to_the_caller(
        monkeypatch, tmp_path, code):
    specs = DUMPS["five tokens"]
    forced_cpus(monkeypatch, 1)
    serial = _dump(tmp_path, specs, "serial")
    caller, ama = os.getpid(), indicators.ama

    def exiting(*args):  # the child takes the ama column first, from the back
        if os.getpid() != caller:
            os._exit(code)
        return ama(*args)

    monkeypatch.setattr(indicators, "ama", exiting)
    forks = forced_cpus(monkeypatch, 2)
    assert _dump(tmp_path, specs) == serial
    # the columns' child; after its one-second fork the writer's half-second
    # share of its two pieces does not pay
    assert len(forks) == 1
    no_child_is_left()


@needs_fork
def test_an_interrupt_while_awaiting_a_childs_columns_kills_and_reaps_it(monkeypatch, tmp_path):
    # the child takes the ama column first and sleeps a minute there; this
    # process computes the other columns, 100 ms each after the timed
    # first, and is interrupted awaiting the child's
    caller = os.getpid()

    def slowed(kernel, seconds):
        def slow(*args):
            time.sleep(seconds if os.getpid() == caller else 60)
            return kernel(*args)
        return slow

    monkeypatch.setattr(indicators, "rsi", slowed(indicators.rsi, 0.1))
    monkeypatch.setattr(indicators, "rmi", slowed(indicators.rmi, 0.1))
    monkeypatch.setattr(indicators, "ama", slowed(indicators.ama, 0))
    forks = forced_cpus(monkeypatch, 2)
    reaped = exit_codes_of_reaped(monkeypatch)
    previous = signal.getsignal(signal.SIGALRM)
    interrupt_in(0.6)
    started = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            _dump(tmp_path, ["a=ema 5", "b=rsi 3", "c=rmi 3 2", "d=ama 30 2 10 1"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 30
    assert len(forks) == 1
    assert reaped == [-signal.SIGKILL]
    monkeypatch.undo()
    no_child_is_left()


def test_an_entry_put_in_the_memo_is_the_one_a_call_stores(series):
    params = (AmaParams(30, 2, 10, 1),)
    stored = KernelMemo(series)(indicators.ama, *params)
    memo = KernelMemo(series)
    memo.put((stored.values.tobytes(), stored.warmup_len), indicators.ama, *params)
    entry = memo(indicators.ama, *params)
    assert entry.values.tolist() == stored.values.tolist()
    assert entry.warmup_len == stored.warmup_len
    assert entry.values.readonly and entry.values.format == "d"
