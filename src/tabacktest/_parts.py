"""Forked parts: work a caller hands to forked children on idle CPUs.

A child does one piece of work, sends its result down a pipe as one
``marshal`` payload and leaves through ``os._exit``; a payload counts
as sent only if it loads whole. Where a child sends none, the caller
does that piece itself, so the result, and any exception, is what one
process gives. The sweep measures parts of its grid this way (see
``sweep._measured_cells``), and the writers whose rows are a series'
bars format ranges of rows this way (see ``write_rows``).
"""
from __future__ import annotations

import marshal
import os
from functools import partial
from time import perf_counter
from typing import Any, BinaryIO, Callable, Iterable, Optional

Child = tuple[int, BinaryIO]  # (pid, read end of its pipe)

# rows of a child's range that go into one piece of its text: the caller
# holds a child's whole text, but encodes it one piece at a time
PIECE_ROWS = 4096

_last_fork_s = 0.0  # how long the last fork took this process, in seconds


def cpus() -> int:
    """The CPUs this process may run on, less one for each other task
    that is runnable now, so a busy host gets no fork that only waits for
    a CPU. 1 where it cannot say, or where another thread runs, since a
    forked child holds only the forking thread and so keeps any lock
    another thread held."""
    try:
        count = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
        with open("/proc/loadavg") as loadavg:
            # the fourth field is runnable/all tasks, this one among the runnable
            runnable = int(loadavg.read().split()[3].partition("/")[0])
    except (AttributeError, OSError):  # no sched_getaffinity outside Linux
        return 1
    return max(1, count + 1 - runnable) if threads == 1 else 1


def pays(seconds: float) -> bool:
    """Whether work that takes ``seconds`` here takes longer than the last
    fork of this process took, so that a child may do it. Before the
    first fork nothing is known of its cost, and any work pays."""
    return seconds > _last_fork_s


def _this_cpu() -> Optional[int]:
    """The CPU this process last ran on (field 39 of ``/proc/self/stat``),
    or None where it cannot be read."""
    try:
        with open("/proc/self/stat") as stat:
            # field 2, the command name, may hold spaces; field 3 follows its ")"
            return int(stat.read().rpartition(")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave(cpu: int) -> None:
    """Take ``cpu`` out of this process's affinity, unless no CPU would be
    left: a child forked from a fresh interpreter may otherwise stay on
    its caller's CPU while another idles."""
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except OSError:  # the mask cannot be set; the child runs where it is
        pass


def fork(work: Callable[[], Any]) -> Optional[Child]:
    """(pid, read end of its pipe) of a forked child that leaves this
    process's CPU and writes ``work()`` down the pipe as one ``marshal``
    payload; None when no child can be forked. The child exits 0 once
    every byte is written and 1 on anything else: whatever it raises, and
    wherever, it never returns from here. The time the fork took this
    process is what ``pays`` compares with."""
    global _last_fork_s
    start = perf_counter()
    cpu = _this_cpu()
    caller = os.getpid()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            if cpu is not None:
                _leave(cpu)
            payload = marshal.dumps(work())
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
            os._exit(0)
    except OSError:
        pid = None
    finally:
        if os.getpid() != caller:
            os._exit(1)
    _last_fork_s = perf_counter() - start
    os.close(write_end)
    if pid is None:
        os.close(read_end)
        return None
    return pid, open(read_end, "rb")


def reap(pid: int) -> None:
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # reaped already, or by the kernel: SIGCHLD is ignored
        pass


def sent(child: Child) -> Any:
    """What a forked child sent down its pipe, once the child is reaped.
    None where it sent no complete payload: a child that raised sends
    nothing, and one killed while writing sends a prefix, which does not
    load. An interrupt while reading leaves the child to ``stop``."""
    pid, pipe = child
    with pipe:
        try:
            payload = marshal.load(pipe)
        except (EOFError, ValueError, TypeError):
            payload = None
    reap(pid)
    return payload


def stop(children: list[Child]) -> None:
    """Kill each child not yet reaped, close its pipe and reap it. Where
    SIGCHLD is ignored the kernel reaps a child as it exits and may give
    its pid to another process, so none is killed: each is awaited, and
    fails when it writes to its closed pipe."""
    import signal  # here alone: a run that is never interrupted does not load it

    killing = signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN
    for pid, pipe in children:
        pipe.close()
        try:
            # an exited child keeps its pid until it is reaped; only a running one is killed
            if killing and os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
                os.kill(pid, signal.SIGKILL)
        except ChildProcessError:  # reaped already
            continue
        reap(pid)


def _pieces(rows: Callable[[int, int], Iterable[str]], begin: int, end: int) -> list[str]:
    """The text of rows ``begin`` to ``end - 1``, in pieces of ``PIECE_ROWS`` rows."""
    return ["".join(rows(first, min(first + PIECE_ROWS, end)))
            for first in range(begin, end, PIECE_ROWS)]


def write_rows(handle, rows: Callable[[int, int], Iterable[str]], count: int) -> None:
    """Write the lines ``rows(0, count)`` to the open text handle, in order.

    ``rows(start, stop)`` gives the lines of rows ``start`` to ``stop -
    1``, each line a function of its row alone. Where ``cpus()`` gives 1,
    this is ``handle.writelines(rows(0, count))``. Where it gives more,
    this process writes row 0 and times it, splits the other rows into
    ``cpus()`` contiguous ranges, and forks a child (``fork``) that
    formats each later range whose rows would take longer to format here
    than the last fork took (``pays``); the rows after a range that does
    not pay stay here. It streams the first range into the handle, then
    writes each child's text in order, once that text has loaded whole,
    and formats here any range whose child sent none. So the bytes, and
    any exception, are what one process gives, and this process never
    holds more of the text than one child's range. Children never touch
    the handle. Every child is reaped before the call returns or raises;
    on an interrupt each is killed first (see ``stop``).
    """
    processes = min(cpus(), count - 1)
    if processes < 2:
        handle.writelines(rows(0, count))
        return
    start = perf_counter()
    handle.writelines(rows(0, 1))
    row_s = perf_counter() - start
    bounds = [1 + (count - 1) * k // processes for k in range(processes + 1)]
    parts: list[tuple[int, int, Optional[Child]]] = []  # (begin, end, child or None: here)
    try:
        for begin, end in zip(bounds[1:-1], bounds[2:]):
            child = fork(partial(_pieces, rows, begin, end)) if pays((end - begin) * row_s) else None
            if child is None:
                parts.append((begin, count, None))
                break
            parts.append((begin, end, child))
        handle.writelines(rows(1, bounds[1]))
        for begin, end, child in parts:
            text = None if child is None else sent(child)
            handle.writelines(rows(begin, end) if text is None else text)
    except BaseException:
        stop([child for *_, child in parts if child is not None])
        raise
