"""tabacktest benchmark: drives ``tabacktest.cli.main(argv)`` on seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``tabacktest`` from
``src/`` there and fails, printing no result, when that is missing.

One run:

1. generates the workload's CSVs and configs from ``--seed`` into a
   scratch directory under ``.perfbench/`` in the checkout (see
   ``workloads.py`` for the workloads and why each exists);
2. untraced (``--trace 0``): times set-up in two fresh interpreters that
   stop after it, then in a third that goes on to run the op cycle in a
   closed loop for ``--seconds`` (see ``worker.py``);
   traced (``--trace 1``): the third interpreter alone, alternating
   traced and untraced cycles;
3. checks the outputs (see ``checks.py``);
4. writes the full result, inputs' provenance and, when traced, the spans
   to ``.perfbench/results/``, and prints one JSON line last:
   ``{"correct", "attempted", "failed", "metrics"}``. Untraced runs report
   the end-to-end metrics, traced runs the per-layer ones (``spans.py``).

End-to-end metrics, all times at the reference machine speed (worker.py):

* ``setup_s``: median over the three interpreters of ``import
  tabacktest.cli`` plus one warm-up execution of each distinct op;
* ``op_p50_s``: median op time, from each op type's median (end_to_end);
* ``bars_per_s``: input bars consumed per second of op time;
* ``peak_rss_mb``: peak RSS of the measuring interpreter.

The result file adds the pooled median, the highest percentile with ten
samples beyond it (``op_tail_s``, with that percentile and the sample
count), cells per second on ``sweep_grid``, the error rate, the raw
wall-clock figures and the inputs' sha256, bar and warning counts.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from worker import REFERENCE_LOOP_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples beyond it


def _worker(plan_path: Path, result_path: Path, setup_only: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)]
    if setup_only:
        argv.append("--setup-only")
    subprocess.run(argv, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def type_medians(records: list) -> dict[int, float]:
    """Median op time of each op type, at the reference machine speed."""
    times: dict[int, list[float]] = {}
    for index, seconds, speed, _, _ in records:
        times.setdefault(index, []).append(seconds * REFERENCE_LOOP_S / speed)
    return {index: statistics.median(t) for index, t in sorted(times.items())}


def end_to_end(plan: dict, worker: dict, setups: list[list[list[float]]]) -> tuple[dict, dict]:
    """(metrics, details for the result file) of an untraced run.

    Times are at the reference machine speed (see worker.py); the raw
    wall-clock figures go into the details. Every op type runs equally
    often, so the workload's typical op and its throughput are taken from
    each op type's median: ``op_p50_s`` is the median of those medians and
    ``bars_per_s`` the bars of one cycle over the sum of them. This keeps
    both steady when the pooled median falls between two op types.
    """
    records = worker["records"]
    by_type = type_medians(records)
    cycle_bars = sum(plan["ops"][index]["bars"] for index in by_type)
    times = [seconds * REFERENCE_LOOP_S / speed for _, seconds, speed, _, _ in records]
    raw = [seconds for _, seconds, _, _, _ in records]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(sum(s * REFERENCE_LOOP_S / speed for s, speed in setup)
                                      for setup in setups), "s"),
        "op_p50_s": (statistics.median(by_type.values()), "s"),
        "bars_per_s": (cycle_bars / sum(by_type.values()), "bars/s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }
    details = {
        "op_samples": len(times),
        "op_pooled_p50_s": statistics.median(times),
        # too few samples for a steady tail on the long-op workloads, so it
        # is reported here and not gated
        "op_tail_s": tail_s,
        "op_tail_percentile": tail_pct,
        "per_op_p50_s": {plan["ops"][index]["name"]: t for index, t in by_type.items()},
        "raw_wall_clock": {
            "setup_s": statistics.median(sum(s for s, _ in setup) for setup in setups),
            "op_pooled_p50_s": statistics.median(raw),
            "op_tail_s": tail(raw)[0],
            "setup_samples": setups,
            "reference_loop_s": [speed for _, _, speed, _, _ in records],
        },
    }
    if plan["ops"][0]["argv"][0] == "sweep":
        details["cells_per_s"] = json.loads(worker["stdouts"][0])["grid_size"] / by_type[0]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, details


def per_layer(worker: dict) -> dict:
    """Per-layer metrics of a traced run; ``trace.overhead_s`` is the
    traced ``op_p50_s`` minus the untraced one, from alternating cycles."""
    from spans import METRICS

    traced = [r for r in worker["records"] if r[3]]
    untraced = [r for r in worker["records"] if not r[3]]
    values = dict(worker["per_layer"])
    values["trace.overhead_s"] = (statistics.median(type_medians(traced).values())
                                  - statistics.median(type_medians(untraced).values()))
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tabacktest" / "__init__.py").is_file():
        print(f"perfbench: no tabacktest sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=stem + "-", dir=base))
    try:
        plan = WORKLOADS[args.workload](workdir, args.seed)
        plan.update(src=str(src), seconds=args.seconds, trace=args.trace,
                    spans_path=str(results / f"{stem}.spans.jsonl"))
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        setups = []
        if not args.trace:
            for k in range(SETUP_RUNS - 1):
                setups.append(_worker(plan_path, workdir / f"setup{k}.json", setup_only=True)["setup"])
        worker = _worker(plan_path, workdir / "worker.json")
        setups.append(worker["setup"])
        if not Path(worker["tabacktest_path"]).resolve().is_relative_to(src.resolve()):
            print(f"perfbench: imported tabacktest from {worker['tabacktest_path']}", file=sys.stderr)
            return 2

        from checks import run_checks

        try:
            problems = run_checks(args.workload, plan, worker["stdouts"], ROOT)
        except Exception as exc:  # a check that cannot run fails every op it covers
            problems = {op["name"]: [f"check raised {type(exc).__name__}: {exc}"] for op in plan["ops"]}
        records = worker["records"]
        failed = sum(1 for index, *_, bad in records
                     if bad or plan["ops"][index]["name"] in problems)

        if args.trace:
            metrics, details = per_layer(worker), {"absent": worker["absent"]}
        else:
            metrics, details = end_to_end(plan, worker, setups)
        details.update(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            attempted=len(records),
            failed=failed,
            error_rate=failed / len(records),
            errors=worker["errors"],
            check_problems=problems,
            inputs=[{k: v for k, v in data.items() if k != "file"} | {"file": Path(data["file"]).name}
                    for data in plan["inputs"]],
            python=worker["python"],
            implementation=platform.python_implementation(),
            nproc=os.cpu_count(),
            tabacktest_version=worker["tabacktest_version"],
            metrics=metrics,
        )
        (results / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
        print(f"perfbench: result written to {results / (stem + '.json')}", file=sys.stderr)
        print(json.dumps({
            "correct": failed == 0 and not worker["errors"] and not problems,
            "attempted": len(records),
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
