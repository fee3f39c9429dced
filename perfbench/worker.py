"""One fresh interpreter of a benchmark run.

    python3 perfbench/worker.py PLAN.json RESULT.json [--setup-only]

Set-up is ``import tabacktest.cli`` followed by one warm-up execution of
each distinct op. With ``--setup-only`` the
worker stops there. Otherwise it runs the plan's op cycle in a closed
loop (one thread, the next op only after the previous one returned)
until the plan's seconds have passed, at whole cycles. With tracing on,
odd cycles run under the tracer and even cycles without it, so both see
the same machine.

Each op is timed from the ``main(argv)`` call to its return. Outside the
timed region the worker checks that the op returned 0, printed exactly
one JSON line, and wrote stdout and artifacts byte-identical to its
warm-up execution.

The host's vCPUs switch, for seconds at a time, between speeds up to
1.7x apart, so raw op times of separate runs differ by 25% or more.
Right before and after each op (and each part of set-up) the worker also
times a fixed pure-Python reference loop; ``run.py`` scales each op's
time by ``REFERENCE_LOOP_S`` over that loop's time, which reports it at
one fixed machine speed.
"""
import sys
import time

REFERENCE_ITERATIONS = 10_000
# The reference loop's time at the speed all timings are reported at.
# On a 2-vCPU Intel Xeon host the loop takes 0.8 to 1.2 ms.
REFERENCE_LOOP_S = 0.001


def _reference_loop() -> float:
    start = time.perf_counter()
    x = 0.0
    for k in range(REFERENCE_ITERATIONS):
        x += (k % 7) * 0.5
    return time.perf_counter() - start


def machine_speed() -> float:
    """The reference loop's time now: the median of three."""
    return sorted(_reference_loop() for _ in range(3))[1]


def _run(cli, argv):
    """(exit code, stdout, seconds, error) of one in-process CLI call.

    ``main`` is looked up on the module at each call, so that under the
    tracer the op's root span is the wrapped ``cli.main``."""
    import io

    saved, sys.stdout = sys.stdout, io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op, not a failed benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    out, sys.stdout = sys.stdout.getvalue(), saved
    return code, out, elapsed, error


def main(argv):
    import json

    plan_path, result_path = argv[0], argv[1]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    ops = plan["ops"]

    # set-up is timed in segments (the import, then each warm-up op), with
    # the reference loop timed between them
    speeds = [machine_speed()]
    start = time.perf_counter()
    import tabacktest.cli as cli
    seconds = [time.perf_counter() - start]
    speeds.append(machine_speed())
    warmups = []
    for op in ops:
        warmups.append(_run(cli, op["argv"]))
        seconds.append(warmups[-1][2])
        speeds.append(machine_speed())
    setup = [[s, (before + after) / 2] for s, before, after in zip(seconds, speeds, speeds[1:])]

    if "--setup-only" in argv:
        _write(result_path, {"setup": setup})
        return 0

    import resource

    import tabacktest
    from checks import artifact_digest, op_failure

    reference, errors = [], []
    for op, (code, out, _, error) in zip(ops, warmups):
        failure = op_failure(code, out, error)
        if failure is None:
            reference.append((out, artifact_digest(op["out_dir"])))
        else:
            reference.append(None)
            errors.append(f"warm-up {op['name']}: {failure}")

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
    records = []  # [op index, seconds, reference loop seconds, traced, failed]
    deadline = time.perf_counter() + plan["seconds"]
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            tracer.install()
        for index, op in enumerate(ops):
            if traced:
                tracer.op = len(records)
            speed = machine_speed()
            code, out, elapsed, error = _run(cli, op["argv"])
            speed = (speed + machine_speed()) / 2
            failure = op_failure(code, out, error)
            if failure is None and reference[index] is None:
                failure = "warm-up execution failed"
            if failure is None and (out, artifact_digest(op["out_dir"])) != reference[index]:
                failure = "output differs from the warm-up execution"
            if failure is not None and len(errors) < 20:
                errors.append(f"{op['name']}: {failure}")
            if traced and failure is None and op["argv"][0] == "sweep":
                summary = json.loads(out)
                tracer.counts["sweep.cells_attempted"] += summary["grid_size"]
                tracer.counts["sweep.cells_ranked"] += summary["cells_ranked"]
            records.append([index, elapsed, speed, traced, failure is not None])
        if traced:
            tracer.uninstall()
        cycle += 1
        if time.perf_counter() >= deadline and (tracer is None or cycle >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup": setup,
        "records": records,
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
        "stdouts": [out for _, out, _, _ in warmups],
        "python": sys.version.split()[0],
        "tabacktest_version": getattr(tabacktest, "__version__", None),
        "tabacktest_path": tabacktest.__file__,
    }
    if tracer is not None:
        scale = {op: REFERENCE_LOOP_S / speed for op, (_, _, speed, _, _) in enumerate(records)}
        result["per_layer"] = tracer.metrics(sum(1 for r in records if r[3]), scale)
        result["absent"] = sorted(tracer.absent)
        tracer.write_spans(plan["spans_path"])
    _write(result_path, result)
    return 0


def _write(path, payload):
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
