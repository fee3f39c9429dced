"""Output checks. None of them runs inside a timed region.

Per op (in the worker): exit code 0, exactly one JSON line on stdout, and
stdout and artifacts byte-identical to the op's first execution in the
run, which is the engine's determinism contract.

Once per run (in the parent, after the worker has exited):

* ``sweep_grid``: every grid cell is re-evaluated through
  ``generate_signals`` -> ``run`` -> ``build_report`` and must match its
  ``sweep.csv`` row byte for byte, in rank order. A wrong cache key in
  the sweep shows here.
* ``backtest_suite``: each strategy's indicator series are compared with
  the naive kernels in ``tests/oracles.py`` (within ``REL_TOL``, which
  admits a 1e-12 kernel contract), and its ``signals.csv`` must equal,
  exactly, the signals a plain state machine derives from the oracle
  series. Every strategy must trade.
* ``ingest_report``: the bar and warning counts equal what the generator
  wrote, and the Kelly optimum matches its closed form.
"""
from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
import os
from pathlib import Path

REL_TOL = 1e-9


def op_failure(code, out: str, error: str | None) -> str | None:
    """Why one op failed, or None."""
    if error is not None:
        return f"raised {error}"
    if code != 0:
        return f"exit code {code}"
    lines = out.splitlines()
    if len(lines) != 1:
        return f"printed {len(lines)} lines, not one JSON line"
    try:
        json.loads(lines[0])
    except ValueError:
        return "stdout is not JSON"
    return None


def artifact_digest(out_dir: str) -> str:
    """sha256 over the names and bytes of every file an op wrote."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        digest.update(b"\0")
    return digest.hexdigest()


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _series(path: str):
    from tabacktest import parse_csv

    return parse_csv(path).series


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


# -- sweep_grid ----------------------------------------------------------------

def check_sweep(plan: dict, fast_periods, slow_periods) -> dict[str, list[str]]:
    from tabacktest import MaSpec, TwoAverageConfig, build_report, generate_signals, run
    from tabacktest.errors import EngineError

    op = plan["ops"][0]
    series = _series(plan["inputs"][0]["file"])
    closes = series.closes
    expected = []
    for fast in fast_periods:
        for slow in slow_periods:
            config = TwoAverageConfig(MaSpec("sma", fast), MaSpec("sma", slow))
            try:
                result = run(series, generate_signals(series, config))
                report = build_report(result.equity, closes, result.buy_count)
            except EngineError:
                continue
            if report.sr is None:
                continue
            expected.append((-report.sr, f"fast.period={fast!r},slow.period={slow!r}", [
                repr(fast), repr(slow), str(report.buy_count), repr(report.rr_whole),
                repr(report.sr), "" if report.ir is None else repr(report.ir), repr(report.sr),
            ]))
    expected.sort(key=lambda cell: cell[:2])
    header = ["fast.period", "slow.period", "buy_count", "rr_whole", "sharpe_annual",
              "ir_annual", "objective"]
    rows = _read_rows(Path(op["out_dir"]) / "sweep.csv")
    problems = []
    if rows[:1] != [header]:
        problems.append(f"sweep.csv header is {rows[:1]}")
    if len(rows) - 1 != len(expected):
        problems.append(f"sweep.csv ranks {len(rows) - 1} cells, expected {len(expected)}")
    for rank, (row, (_, key, cells)) in enumerate(zip(rows[1:], expected), start=1):
        if row != cells:
            problems.append(f"sweep.csv rank {rank} is {row}, re-evaluating {key} gives {cells}")
            break
    return {op["name"]: problems} if problems else {}


# -- backtest_suite ------------------------------------------------------------

def _typical(series) -> list[float]:
    return [(h + l + c) / 3.0 for h, l, c in zip(series.highs, series.lows, series.closes)]


def _state_machine(start: int, end: int, enter, leave) -> list[tuple[int, str]]:
    """Alternating Buy/Sell events; the exit test is not evaluated on a bar
    whose entry test held."""
    events, holding = [], False
    for i in range(start, end):
        if enter(i):
            if not holding:
                events.append((i, "Buy"))
                holding = True
        elif leave(i):
            if holding:
                events.append((i, "Sell"))
                holding = False
    return events


def _crosses(fast, slow, start):
    return _state_machine(
        start, len(fast),
        lambda i: fast[i - 1] < slow[i - 1] and fast[i] > slow[i],
        lambda i: fast[i - 1] > slow[i - 1] and fast[i] < slow[i],
    )


def _reference(name: str, series, o):
    """(engine series, oracle series, oracle-derived signals) of one strategy.

    Windows and start bars follow the configs in workloads.SUITE_STRATEGIES
    and the warm-up rules documented in tabacktest.indicators.
    """
    import tabacktest as ta

    closes, highs, lows = series.closes, series.highs, series.lows
    if name == "two_average":
        engine = [ta.sma(closes, 20).values, ta.sma(closes, 100).values]
        oracle = [o.naive_sma(closes, 20), o.naive_sma(closes, 100)]
        return engine, oracle, _crosses(oracle[0], oracle[1], 100)
    if name == "price_cross":
        engine = [ta.ama(closes, ta.AmaParams(51, 5, 12, 2)).values]
        oracle = [o.naive_ama2(closes, 51, 5, 12)]
        return engine, oracle, _crosses(closes, oracle[0], 52)
    if name == "keltner":
        bands = ta.keltner(series, ta.MaSpec("ema", 50), 2.0)
        middle = o.naive_ema(_typical(series), 50)
        width = o.naive_sma(o.naive_true_range(highs, lows, closes), 50)
        upper = [m + 2.0 * w for m, w in zip(middle, width)]
        lower = [m - 2.0 * w for m, w in zip(middle, width)]
        engine = [bands.middle.values, bands.upper.values, bands.lower.values]
        signals = _state_machine(
            50, len(closes),
            lambda i: closes[i - 1] <= upper[i - 1] and closes[i] > upper[i],
            lambda i: closes[i - 1] >= lower[i - 1] and closes[i] < lower[i],
        )
        return engine, [middle, upper, lower], signals
    if name == "rsi":
        engine = [ta.rsi(closes, 14).values, ta.sma(closes, 100).values]
        strength, line = o.rsi_transcription(closes, 14), o.naive_sma(closes, 100)
        # RsiConfig defaults: thresholds 30/70, diff_rate 0.0024, sma_rate 0.001.
        # Oversold and overbought exclude each other, so folding the rate
        # gate into each test keeps the engine's if/elif outcome.
        signals = _state_machine(
            60, len(closes) - 1,
            lambda i: (strength[i] < 30.0 and closes[i] < (1 - 0.001) * line[i]
                       and 0 <= (closes[i - 1] - closes[i]) / closes[i - 1] <= 0.0024),
            lambda i: (strength[i] > 70.0 and closes[i] > (1 + 0.001) * line[i]
                       and 0 <= (closes[i] - closes[i - 1]) / closes[i - 1] <= 0.0024),
        )
        return engine, [strength, line], signals
    if name == "aroon":
        up, down, _ = ta.aroon(series, 100)
        oracle = list(o.naive_aroon(highs, lows, 100))
        signals = _state_machine(
            60, len(closes) - 1,
            lambda i: oracle[0][i - 1] < oracle[1][i - 1] and oracle[0][i] > oracle[1][i],
            lambda i: oracle[0][i - 1] > oracle[1][i - 1] and oracle[0][i] < oracle[1][i],
        )
        return [up.values, down.values], oracle, signals
    if name == "bollinger":
        bands = ta.bollinger(series, 100, 2.0)
        middle, upper, lower = o.naive_bollinger(_typical(series), 100, 2.0)
        engine = [bands.middle.values, bands.upper.values, bands.lower.values]
        signals = _state_machine(
            100, len(closes),
            lambda i: closes[i - 1] >= lower[i - 1] and closes[i] < lower[i],
            lambda i: closes[i - 1] <= upper[i - 1] and closes[i] > upper[i],
        )
        return engine, [middle, upper, lower], signals
    if name == "macd":
        line, signal, _ = ta.macd(closes)
        fast, slow = o.naive_ema(closes, 12), o.naive_ema(closes, 26)
        oracle_line = [f - s for f, s in zip(fast, slow)]
        oracle_signal = o.naive_sma(oracle_line, 9)
        return ([line.values, signal.values], [oracle_line, oracle_signal],
                _crosses(oracle_line, oracle_signal, 9))
    raise KeyError(name)


def _differs(got, want) -> int | None:
    """First index where two series disagree beyond REL_TOL, or None."""
    if len(got) != len(want):
        return min(len(got), len(want))
    for i, (g, w) in enumerate(zip(got, want)):
        if not math.isclose(g, w, rel_tol=REL_TOL, abs_tol=REL_TOL):
            return i
    return None


def check_suite(plan: dict, root: Path) -> dict[str, list[str]]:
    oracles = _load_oracles(root)
    series = _series(plan["inputs"][0]["file"])
    failures = {}
    for op in plan["ops"]:
        name = op["name"].split(":", 1)[1]
        out = Path(op["out_dir"])
        engine, oracle, signals = _reference(name, series, oracles)
        problems = [f"series {k} differs from the oracle at bar {bar}"
                    for k, (got, want) in enumerate(zip(engine, oracle))
                    if (bar := _differs(got, want)) is not None]
        rows = _read_rows(out / "signals.csv")
        try:
            written = [(int(index), action) for index, action in rows[1:]]
        except ValueError:
            written = None
        if rows[:1] != [["bar_index", "action"]] or written != signals:
            problems.append("signals.csv differs from the oracle-derived signals")
        buys = sum(1 for _, action in signals if action == "Buy")
        buy_count = json.loads((out / "report.json").read_text(encoding="utf-8")).get("buy_count")
        if buys == 0 or buy_count != buys:
            problems.append(f"report buy_count {buy_count}, oracle signals have {buys} buys")
        if problems:
            failures[op["name"]] = problems
    return failures


# -- ingest_report -------------------------------------------------------------

def check_ingest(plan: dict, stdouts: list[str]) -> dict[str, list[str]]:
    data = plan["inputs"][0]
    failures = {}
    for op, out in zip(plan["ops"], stdouts):
        summary = json.loads(out)
        problems = []
        if op["name"] == "ingest":
            if (summary.get("bars"), summary.get("warnings")) != (data["bars"], data["expected_warnings"]):
                problems.append(f"ingest saw {summary.get('bars')} bars and {summary.get('warnings')} "
                                f"warnings, the input has {data['bars']} and {data['expected_warnings']}")
            with open(Path(op["out_dir"]) / "ingested.csv", "rb") as handle:
                lines = sum(1 for _ in handle)
            if lines != data["bars"] + 1:
                problems.append(f"ingested.csv has {lines} lines")
        elif op["name"] in ("report", "indicators") and summary.get("bars", data["bars"]) != data["bars"]:
            problems.append(f"{op['name']} saw {summary.get('bars')} bars")
        elif op["name"] == "kelly":
            flags = dict(zip(op["argv"][1::2], op["argv"][2::2]))
            p, gain, loss = float(flags["--p"]), float(flags["--l-gain"]), float(flags["--m-loss"])
            optimum = min(1.0, max(0.0, (gain * p - loss * (1 - p)) / (gain * loss)))
            if not math.isclose(summary.get("optimal_fraction", math.nan), optimum, rel_tol=REL_TOL):
                problems.append(f"kelly optimum {summary.get('optimal_fraction')}, closed form {optimum}")
        if problems:
            failures[op["name"]] = problems
    return failures


def run_checks(workload: str, plan: dict, stdouts: list[str], root: Path) -> dict[str, list[str]]:
    """Problems found per op name; an op absent from the result passed."""
    from workloads import SWEEP_FAST, SWEEP_SLOW

    if workload == "sweep_grid":
        return check_sweep(plan, SWEEP_FAST, SWEEP_SLOW)
    if workload == "backtest_suite":
        return check_suite(plan, root)
    return check_ingest(plan, stdouts)
