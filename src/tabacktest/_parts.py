"""Forked parts: work a caller shares with forked children on idle CPUs.

A child does its share of some work, sends its result down a pipe as
one ``marshal`` payload and leaves through ``os._exit``; a payload
counts as sent only if it loads whole. Where a child sends none, the
caller does that share itself, so the result, and any exception, is
what one process gives. The sweep measures parts of its grid this way
(see ``sweep._measured_cells``). Work that is a numbered list of items
is shared from both ends (see ``share``): the caller takes items from
the front and a child from the back, until they meet. The writers whose
rows are a series' bars share pieces of rows this way (see
``write_rows``), and the indicator dump its distinct kernel calls (see
``cli.cmd_indicators``).
"""
from __future__ import annotations

import marshal
import mmap
import os
from functools import partial
from time import perf_counter
from typing import Any, BinaryIO, Callable, Iterable, Optional

Child = tuple[int, BinaryIO]  # (pid, read end of its pipe)

# the rows of one piece of a writer's text: about 1/PIECES of the rows,
# at least MIN_PIECE_ROWS and at most PIECE_ROWS, so an artifact of fewer
# than 2 * MIN_PIECE_ROWS rows is one piece and forks nothing
PIECES = 32
MIN_PIECE_ROWS = 256
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


def _from_back(counters: memoryview, block: int, first: int, there: Callable[[int], Any]):
    """What child ``block`` sends: ``(start, [there(i) for i from start to
    the end of its block])``. It takes the block's items from the back,
    each only while the caller has not taken it from the front, and
    stops at the block's ``first`` item."""
    results = []
    item = counters[block] - 1
    while item >= max(first, counters[0]):
        counters[block] = item
        results.append(there(item))
        item -= 1
    results.reverse()
    return item + 1, results


def share(count: int, here: Callable[[int], Any], there: Callable[[int], Any],
          take: Callable[[int, Any], Any]) -> None:
    """Do items 0 to ``count - 1``, in order: each is ``here(i)`` in this
    process, or ``take(i, result)`` with ``result = there(i)`` from a
    forked child (``fork``), which must be a ``marshal``-able value.

    Where ``cpus()`` gives 1, or there is one item, this is ``here(i)``
    for each item. Otherwise this process does item 0 and times it, and
    splits items 1.. into one contiguous block a child: the first block
    holds two processes' shares, this one's and its child's, and each
    later block one. A child is forked for each block while its share of
    the items would take longer here than the last fork took (``pays``);
    the blocks after the first that does not pay stay here. Each child
    takes its block's items from the back while this process takes
    items from the front, block after block, and the two stop where they
    meet, so neither waits on a split fixed in advance. Their progress
    is two counters in shared memory, made before the fork: only this
    process writes the front, only the child its back, and before each
    item each reads the other's. Where this process meets a child, it
    loads what the child sent, all at once, and goes on to the next
    block.

    The result never rests on the counters. This process runs ``here``
    or ``take`` for every item, in order: ``here`` for the items it took,
    ``take`` for the items the child sent, and ``here`` for any other
    item, such as one whose child sent nothing. A stale read can only
    make both processes do one item, never leave one out, so the
    result, and any exception, is what one process gives, and this
    process holds at most one child's results at a time. Every child is
    reaped before the call returns or raises; on an interrupt each is
    killed first (see ``stop``).
    """
    processes = min(cpus(), count)
    if processes < 2:
        for item in range(count):
            here(item)
        return
    start = perf_counter()
    here(0)
    share_s = (perf_counter() - start) * (count - 1) / processes
    ends = [1 + (count - 1) * k // processes for k in range(2, processes + 1)]
    # [0]: the next item this process takes; [k]: the last item child k took
    shared = mmap.mmap(-1, 8 * processes)
    counters = memoryview(shared).cast("q")
    counters[0] = 1
    for block, end in enumerate(ends, 1):
        counters[block] = end
    children: list[Child] = []
    try:
        for block, first in enumerate([1, *ends[:-1]], 1):
            child = fork(partial(_from_back, counters, block, first, there)) if pays(share_s) else None
            if child is None:
                break
            children.append(child)
        item = 1
        for block, end in enumerate(ends, 1):
            while item < counters[block]:
                counters[0] = item + 1
                here(item)
                item += 1
            payload = sent(children[block - 1]) if block <= len(children) else None
            taken, results = payload or (end, [])  # the first item the child took, and its results
            for rest in range(item, end):
                if rest < taken:
                    here(rest)
                else:
                    take(rest, results[rest - taken])
            item = end
    except BaseException:
        stop(children)
        raise
    finally:
        counters.release()
        shared.close()


def write_rows(handle, rows: Callable[[int, int], Iterable[str]], count: int) -> None:
    """Write the lines ``rows(0, count)`` to the open text handle, in order.

    ``rows(start, stop)`` gives the lines of rows ``start`` to ``stop -
    1``, each line a function of its row alone. The rows go in pieces of
    about ``count // PIECES`` rows (at least ``MIN_PIECE_ROWS``, at most
    ``PIECE_ROWS``), shared with forked children from both ends
    (``share``): this process streams each piece it takes into the
    handle with ``writelines``, and a child joins each piece it takes
    into one string and sends its pieces when it stops. So the bytes,
    and any exception, are what one process gives: a row that raises
    leaves exactly the rows before it in the handle. Children never
    touch the handle, and an artifact of one piece forks nothing.
    """
    size = min(PIECE_ROWS, max(MIN_PIECE_ROWS, count // PIECES))

    def piece(item: int) -> Iterable[str]:
        return rows(item * size, min(item * size + size, count))

    share(-(-count // size), lambda item: handle.writelines(piece(item)),
          lambda item: "".join(piece(item)), lambda item, text: handle.write(text))
