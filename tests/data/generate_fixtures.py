"""Regenerate the committed test fixtures.

Run from the repository root:

    python tests/data/generate_fixtures.py

Deterministic by construction (fixed seeds); the committed CSV/JSON files
are the source of truth for tests, this script documents where they came
from and re-verifies the engine against the independent oracles before
writing anything.
"""
from __future__ import annotations

import datetime as dt
import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent))  # for oracles.py

import oracles  # noqa: E402
from conftest import signal_pairs  # noqa: E402

from tabacktest.backtest import run  # noqa: E402
from tabacktest.indicators import AmaParams, MaSpec  # noqa: E402
from tabacktest.market_data import OhlcvSeries, serialize_csv  # noqa: E402
from tabacktest.metrics import build_report, max_drawdown  # noqa: E402
from tabacktest.strategies import (  # noqa: E402
    PriceCrossConfig,
    TwoAverageConfig,
    generate_signals,
)

REGIME_PREAMBLE = 60  # down-drift so the golden cross lands after the scan start
REGIME_UP = 300
REGIME_DOWN = 150


def business_days(start: dt.date, count: int) -> list[dt.date]:
    days = []
    day = start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def write_csv(series: OhlcvSeries, name: str) -> None:
    with open(HERE / name, "w", encoding="utf-8", newline="") as handle:
        serialize_csv(series, handle)


def to_series(closes, symbol, start_date, rng) -> OhlcvSeries:
    opens, highs, lows, volumes = [], [], [], []
    prev_close = closes[0]
    for close in closes:
        open_ = prev_close
        spread_up = abs(rng.normal(0.0, 0.003)) + 1e-4
        spread_dn = abs(rng.normal(0.0, 0.003)) + 1e-4
        opens.append(float(open_))
        highs.append(float(max(open_, close) * (1.0 + spread_up)))
        lows.append(float(min(open_, close) * (1.0 - spread_dn)))
        volumes.append(int(rng.integers(1_000_000, 5_000_000)))
        prev_close = close
    return OhlcvSeries(symbol, business_days(start_date, len(closes)), opens, highs, lows,
                       [float(c) for c in closes], volumes)


def make_regime_fixture() -> None:
    rng = np.random.default_rng(20110114)
    closes = []
    level = 130.0
    for _ in range(REGIME_PREAMBLE):
        level -= 0.35
        closes.append(level + rng.uniform(-0.1, 0.1))
    for _ in range(REGIME_UP):
        level += 0.5
        closes.append(level + rng.uniform(-0.3, 0.3))
    for _ in range(REGIME_DOWN):
        level -= 1.0
        closes.append(level + rng.uniform(-0.1, 0.1))
    series = to_series(closes, "regime", dt.date(2019, 1, 1), rng)
    write_csv(series, "regime_fixture.csv")

    # golden signals straight from the brute-force cross oracle
    fast = oracles.naive_sma(series.closes, 5)
    slow = oracles.naive_sma(series.closes, 30)
    golden = oracles.cross_scan(fast, slow, start=30)
    engine = generate_signals(
        series, TwoAverageConfig(fast=MaSpec("sma", 5), slow=MaSpec("sma", 30))
    )
    assert signal_pairs(engine) == golden, "engine disagrees with oracle"

    down_start = REGIME_PREAMBLE + REGIME_UP
    sells_in_downleg = [i for i, a in golden if a == "Sell" and i >= down_start]
    assert len(sells_in_downleg) == 1, f"fixture must have one down-leg sell, got {golden}"

    strategy_mdd = max_drawdown(run(series, engine).equity.values)
    hold_mdd = max_drawdown(run(series, [0]).equity.values)
    assert strategy_mdd < hold_mdd, (strategy_mdd, hold_mdd)

    (HERE / "regime_golden.json").write_text(
        json.dumps(
            {
                "strategy": {"fast": ["sma", 5], "slow": ["sma", 30]},
                "preamble_len": REGIME_PREAMBLE,
                "up_start": REGIME_PREAMBLE,
                "down_start": down_start,
                "signals": [[i, a] for i, a in golden],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"regime fixture: {len(series)} bars, signals={golden}, "
          f"mdd strategy={strategy_mdd:.4f} hold={hold_mdd:.4f}")


def make_v_fixture() -> None:
    closes = [100.0 - i for i in range(40)] + [61.0 + i for i in range(1, 41)]
    dates = business_days(dt.date(2021, 1, 4), len(closes))
    series = OhlcvSeries("vfix", dates, closes, [c + 0.5 for c in closes],
                         [c - 0.5 for c in closes], closes,
                         [1000 + i for i in range(len(closes))])
    write_csv(series, "v_fixture.csv")

    config = TwoAverageConfig(fast=MaSpec("sma", 2), slow=MaSpec("sma", 5))
    signals = generate_signals(series, config)
    expected = oracles.cross_scan(
        oracles.naive_sma(series.closes, 2), oracles.naive_sma(series.closes, 5), start=5
    )
    assert signal_pairs(signals) == expected

    result = run(series, signals)
    report = build_report(result.equity, series.closes, result.buy_count, 252)

    # independent recomputation of the whole report before freezing bytes
    pairs = []
    for k in range(0, len(signals), 2):
        entry = signals[k]
        exit_index = signals[k + 1] if k + 1 < len(signals) else None
        pairs.append((entry, exit_index))
    curve = oracles.naive_equity(series.closes, pairs, len(series))
    returns = [curve[i] / curve[i - 1] - 1.0 for i in range(1, len(curve))]
    bench = [closes[i] / closes[i - 1] - 1.0 for i in range(1, len(closes))]
    checks = {
        "initial_price": curve[0] if not pairs else closes[pairs[0][0]],
        "final_price": curve[-1],
        "rr_whole": curve[-1] / closes[pairs[0][0]],
        "mdd": oracles.brute_force_mdd(curve),
        "sr": oracles.numpy_sharpe(returns),
        "ir": oracles.numpy_information_ratio(returns, bench),
        "rr_per_year": (curve[-1] / closes[pairs[0][0]]) ** (252.0 / len(curve)),
    }
    payload = report.to_dict()
    for key, want in checks.items():
        got = payload[key]
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (key, got, want)

    (HERE / "v_golden_report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (HERE / "v_strategy.cfg").write_text(
        "strategy = two_average\n"
        "fast.kind = sma\nfast.period = 2\n"
        "slow.kind = sma\nslow.period = 5\n",
        encoding="utf-8",
    )
    print(f"v fixture: {len(series)} bars, signals={expected}, buy_count={report.buy_count}")


def make_synthetic_sp500() -> None:
    rng = np.random.default_rng(8)
    n = 2769
    closes = [1271.87]
    draws = rng.normal(5.3e-4, 1.08e-2, size=n - 1)
    for r in draws:
        closes.append(max(1.0, closes[-1] * (1.0 + float(r))))
    series = to_series(closes, "synthetic_spx", dt.date(2011, 1, 14), rng)
    write_csv(series, "synthetic_sp500.csv")

    config = PriceCrossConfig(ma=AmaParams(51, 5, 12, 2))
    result = run(series, generate_signals(series, config))
    assert 50 <= result.buy_count <= 300, result.buy_count
    print(f"synthetic sp500: {len(series)} bars, buy_count={result.buy_count}")


if __name__ == "__main__":
    make_regime_fixture()
    make_v_fixture()
    make_synthetic_sp500()
