"""Tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest perfbench
"""
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gen import bars_csv  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generator_is_deterministic_per_seed():
    assert bars_csv(7, 2000, 0.01) == bars_csv(7, 2000, 0.01)
    assert bars_csv(7, 2000)[0] != bars_csv(8, 2000)[0]


def test_each_dirty_row_is_one_lenient_warning(tmp_path):
    from tabacktest import parse_csv
    from tabacktest.errors import InvariantViolation

    text, dirty = bars_csv(3, 5000, 0.01)
    path = tmp_path / "dirty.csv"
    path.write_text(text, encoding="utf-8")
    assert dirty > 0
    assert parse_csv(path, mode="lenient").warnings == dirty
    with pytest.raises(InvariantViolation):
        parse_csv(path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_minimal_run_reports_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    stem = f"{workload}-seed5-trace{trace}"
    details = json.loads((ROOT / ".perfbench" / "results" / f"{stem}.json").read_text())
    assert details["error_rate"] == 0


def test_per_layer_metrics_match_the_declaration():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(spans.METRICS)


def test_output_check_flags_one_flipped_byte_in_sweep_csv(tmp_path):
    from tabacktest.cli import main

    plan = workloads.sweep_grid(tmp_path, seed=4)
    op = plan["ops"][0]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(op["argv"]) == 0
    digest = checks.artifact_digest(op["out_dir"])
    assert checks.check_sweep(plan, workloads.SWEEP_FAST, workloads.SWEEP_SLOW) == {}

    path = Path(op["out_dir"]) / "sweep.csv"
    data = bytearray(path.read_bytes())
    last_digit = data.index(b"\n", data.index(b"\n") + 1) - 1  # end of the best cell's row
    data[last_digit] ^= 1
    path.write_bytes(bytes(data))
    assert checks.artifact_digest(op["out_dir"]) != digest
    assert checks.check_sweep(plan, workloads.SWEEP_FAST, workloads.SWEEP_SLOW) != {}


def test_tracer_wraps_copies_and_reports_missing_names(monkeypatch):
    import tabacktest.cli
    import tabacktest.indicators
    import tabacktest.kelly
    import tabacktest.strategies

    original = tabacktest.indicators.sma
    monkeypatch.delattr(tabacktest.kelly, "curve_to_csv")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tabacktest.cli.sma is tabacktest.strategies.sma is tabacktest.indicators.sma
        assert tabacktest.cli.sma is not original
        tabacktest.cli.sma([1.0, 2.0, 3.0], 2)
    finally:
        tracer.uninstall()
    assert tabacktest.cli.sma is original
    assert tracer.absent == {"kelly.curve_to_csv"}
    metrics = tracer.metrics(1, {})
    assert metrics["indicators.calls"] == 1 and metrics["kelly.curve_to_csv.self_s"] == 0
    assert set(metrics) == {name for name, *_ in spans.METRICS} - {"trace.overhead_s"}
