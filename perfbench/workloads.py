"""The three benchmark workloads: inputs made from a seed, and the ops run on them.

Each workload is a fixed cycle of distinct CLI invocations of
``tabacktest.cli.main(argv)``. A closed-loop caller runs the cycle again
and again, one op at a time. No workload passes ``--jobs``: a later
change may remove that flag, and a removed flag must not turn into
failed ops.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

from gen import bars_csv

SWEEP_BARS = 5_000
SUITE_BARS = 20_000
INGEST_BARS = 100_000
INGEST_DIRTY_SHARE = 0.01

SWEEP_FAST = tuple(range(2, 21, 2))
SWEEP_SLOW = tuple(range(30, 121, 10))

# strategy name -> config lines; windows are around 100 so the windowed
# kernels dominate the op
SUITE_STRATEGIES = {
    "two_average": "strategy = two_average\nfast.kind = sma\nfast.period = 20\n"
                   "slow.kind = sma\nslow.period = 100\n",
    "price_cross": "strategy = price_cross\nma.matype = 2\nma.timeperiod_long = 51\n"
                   "ma.timeperiod_short = 5\nma.ada_win = 12\n",
    "keltner": "strategy = keltner\nma.kind = ema\nma.period = 50\n",
    "rsi": "strategy = rsi\nrsi.n = 14\nrsi.rsitype = 2\nrsi.sma_n = 100\n",
    "aroon": "strategy = aroon\naroon.n = 100\n",
    "bollinger": "strategy = bollinger\nbollinger.n = 100\n",
    "macd": "strategy = macd\n",
}

INGEST_INDICATORS = (
    "indicator.ema20 = ema 20\n"
    "indicator.rsi14 = rsi 14\n"
    "indicator.rmi14 = rmi 14 4\n"
    "indicator.ama = ama 30 2 10 1\n"
)


def _write_input(workdir: Path, name: str, seed: int, bars: int, dirty_share: float = 0.0) -> dict:
    text, dirty = bars_csv(seed, bars, dirty_share)
    data = text.encode("utf-8")
    path = workdir / name
    path.write_bytes(data)
    return {
        "file": str(path),
        "sha256": hashlib.sha256(data).hexdigest(),
        "bars": bars,
        "expected_warnings": dirty,
    }


def _op(workdir: Path, name: str, argv: list[str], bars: int) -> dict:
    out_dir = workdir / "out" / name.replace(":", "-")
    return {"name": name, "argv": argv + ["--out-dir", str(out_dir)],
            "out_dir": str(out_dir), "bars": bars}


def sweep_grid(workdir: Path, seed: int) -> dict:
    """`sweep` over a 10x10 two_average SMA grid on ~5k bars, serial.

    Why: this is the sweep case, and the cells share most of their work:
    200 moving-average calls cover only 20 distinct specs, and the
    benchmark's daily returns are recomputed in every cell.
    Predicts: sweep memoisation and an O(n) SMA move `indicators` and
    `metrics` here, and with them `op_p50_s` and `bars_per_s`
    (cells per second is in the result file). Parsing and the writers are
    a few per cent, so parse and writer changes stay flat here.
    """
    data = _write_input(workdir, "sweep.csv", seed, SWEEP_BARS)
    config = workdir / "sweep.cfg"
    config.write_text(
        "strategy = two_average\n"
        "fast.kind = sma\nfast.period = 2:20:2\n"
        "slow.kind = sma\nslow.period = 30:120:10\n",
        encoding="utf-8",
    )
    argv = ["sweep", "--data", data["file"], "--config", str(config)]
    return {"inputs": [data], "ops": [_op(workdir, "sweep", argv, SWEEP_BARS)]}


def backtest_suite(workdir: Path, seed: int) -> dict:
    """`backtest` of each of the 7 strategies, in a fixed cyclic order, on ~20k bars.

    Why: no two ops share work, so a sweep cache is bypassed here and is
    predicted to change nothing. Parsing and the windowed kernels
    (`bollinger`, `aroon`, `ama` matype 2, `sma`) dominate each op.
    Predicts: O(n) kernels and parse changes move `indicators` and
    `market_data`, and with them `op_p50_s` and `bars_per_s`; the
    `signals.csv` and `equity.csv` writers also show here.
    """
    data = _write_input(workdir, "suite.csv", seed, SUITE_BARS)
    ops = []
    for name, text in SUITE_STRATEGIES.items():
        config = workdir / f"{name}.cfg"
        config.write_text(text, encoding="utf-8")
        argv = ["backtest", "--data", data["file"], "--config", str(config)]
        ops.append(_op(workdir, f"backtest:{name}", argv, SUITE_BARS))
    return {"inputs": [data], "ops": ops}


def ingest_report(workdir: Path, seed: int) -> dict:
    """`ingest`, `report`, `indicators` and `kelly`, in a fixed cycle, on ~100k dirty bars.

    Why: reads beside writes. One 100k-bar CSV with ~1% repairable rows is
    parsed with `--lenient` by three of the four ops; `ingest` then
    re-serialises it and `indicators` writes a 100k-row table. Windowed
    kernels and the sweep are nearly absent.
    Predicts: `market_data` (parse_csv and serialize_csv) is the largest
    layer, so a columnar series that speeds parsing but slows
    serialisation or the writers shows here and nowhere else, in
    `bars_per_s`, `op_p50_s` and `peak_rss_mb`. Kernel changes stay flat.
    """
    data = _write_input(workdir, "ingest.csv", seed, INGEST_BARS, INGEST_DIRTY_SHARE)
    config = workdir / "indicators.cfg"
    config.write_text(INGEST_INDICATORS, encoding="utf-8")
    read = ["--data", data["file"], "--lenient"]
    return {"inputs": [data], "ops": [
        _op(workdir, "ingest", ["ingest"] + read, INGEST_BARS),
        _op(workdir, "report", ["report"] + read, INGEST_BARS),
        _op(workdir, "indicators", ["indicators"] + read + ["--config", str(config)], INGEST_BARS),
        _op(workdir, "kelly", ["kelly", "--p", "0.55", "--l-gain", "1.2", "--m-loss", "1.0"], 0),
    ]}


WORKLOADS = {
    "sweep_grid": sweep_grid,
    "backtest_suite": backtest_suite,
    "ingest_report": ingest_report,
}
