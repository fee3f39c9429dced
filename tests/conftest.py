import datetime as dt
import os
import random
import signal
from pathlib import Path
from typing import NamedTuple

import pytest

from tabacktest import _parts, sweep
from tabacktest.market_data import OhlcvSeries
from tabacktest.strategies import BUY, SELL

DATA_DIR = Path(__file__).parent / "data"


def make_series(closes, highs=None, lows=None, opens=None, volumes=None, symbol="test"):
    """Build an OHLCV series from close prices, defaulting OHL to a tight
    band around the closes."""
    closes = [float(c) for c in closes]
    highs = [float(h) for h in highs] if highs is not None else [c * 1.01 for c in closes]
    lows = [float(l) for l in lows] if lows is not None else [c * 0.99 for c in closes]
    opens = [float(o) for o in opens] if opens is not None else list(closes)
    volumes = list(volumes) if volumes is not None else [1000] * len(closes)
    dates = []
    day = dt.date(2020, 1, 1)
    for _ in closes:
        while day.weekday() >= 5:
            day += dt.timedelta(days=1)
        dates.append(day)
        day += dt.timedelta(days=1)
    return OhlcvSeries(symbol, dates, opens, highs, lows, closes, volumes)


class Signal(NamedTuple):
    bar_index: int
    action: str


def signal_pairs(bars):
    """``(bar, "Buy"|"Sell")`` pairs of an alternating bar list, Buy first;
    each pair is a tuple that also reads as ``.bar_index`` and ``.action``."""
    return [Signal(bar, SELL if k % 2 else BUY) for k, bar in enumerate(bars)]


def random_walk(rng: random.Random, n: int, start: float = 100.0, step: float = 1.0):
    closes = [start]
    for _ in range(n - 1):
        closes.append(max(1.0, closes[-1] + rng.uniform(-step, step)))
    return closes


def random_ohlcv(rng: random.Random, n: int, start: float = 100.0):
    closes = random_walk(rng, n, start)
    highs = [c + rng.uniform(0.0, 1.0) for c in closes]
    lows = [max(0.5, c - rng.uniform(0.0, 1.0)) for c in closes]
    return make_series(closes, highs=highs, lows=lows)


@pytest.fixture
def rng():
    return random.Random(137)


def _a_child_process_is_left() -> bool:
    """Whether this process has a child, running or exited; none is reaped."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    """Fail a test that leaves a child process, running or not yet reaped;
    one left by an earlier test is that test's failure, not this one's."""
    if not hasattr(os, "waitid") or _a_child_process_is_left():
        yield
        return
    yield
    if _a_child_process_is_left():
        pytest.fail("the test left a child process")


FORK = getattr(os, "fork", None)
needs_fork = pytest.mark.skipif(FORK is None, reason="no os.fork")


def forced_cpus(monkeypatch, cpus, fork_s=1, ticking=True):
    """Work in ``cpus`` processes from now on, with no fork timed yet;
    return the list each fork appends to. A ticking clock moves one second
    a reading, so a sweep cell's signals and its measures take one second
    each, parts go 1 : 1/2 : 1/4 ... (``sweep._share``), the first item
    of ``_parts.share`` (a writer's first piece, the dump's first column)
    takes one second, and a fork takes ``fork_s`` seconds."""
    forks, now = [], [0]

    def clock():
        now[0] += 1
        return now[0]

    def counting():
        forks.append(None)
        now[0] += fork_s - 1
        return FORK()

    monkeypatch.setattr(_parts, "cpus", lambda: cpus)
    monkeypatch.setattr(_parts, "_last_fork_s", 0.0)
    monkeypatch.setattr(os, "fork", counting)
    if ticking:
        monkeypatch.setattr(sweep, "perf_counter", clock)
        monkeypatch.setattr(_parts, "perf_counter", clock)
    return forks


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def exit_codes_of_reaped(monkeypatch):
    """The exit code of each child os.waitpid reaps from now on."""
    codes, waitpid = [], os.waitpid

    def recording(pid, options):
        reaped = waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    monkeypatch.setattr(os, "waitpid", recording)
    return codes


def interrupt_in(seconds):
    """Raise KeyboardInterrupt here in ``seconds``, as Ctrl-C would."""
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
