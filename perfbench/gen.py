"""Seeded daily-bar generator for the benchmark inputs.

Prices follow a geometric random walk whose drift and volatility switch
between regimes of random length, with a weak pull back towards the
starting level so that 100k bars stay within a few orders of magnitude.
Trending and choppy regimes both occur, so every strategy in the
``backtest_suite`` workload trades.

The same seed always gives the same bytes: only ``random.Random`` is used
and every float is written with a fixed number of decimals.
"""
from __future__ import annotations

import datetime as dt
import math
import random

HEADER = "date,open,high,low,close,adj_close,volume\n"

# Each dirty row breaks exactly one invariant that ``--lenient`` repairs
# with exactly one warning, so the expected warning count is the number
# of dirty rows.
DIRTY_KINDS = ("swap_low_high", "open_above_high", "close_below_low")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _clean_rows(rng: random.Random, n: int) -> list[list[float]]:
    """[open, high, low, close, volume] rows of a regime-switching walk."""
    rows: list[list[float]] = []
    log_price = math.log(100.0)
    anchor = log_price
    regime_left = 0
    drift = vol = 0.0
    for _ in range(n):
        if regime_left == 0:
            regime_left = rng.randint(150, 900)
            drift = rng.uniform(-0.0012, 0.0015)
            vol = rng.choice((0.006, 0.01, 0.016, 0.025))
        regime_left -= 1
        prev_close = math.exp(log_price)
        log_price += drift - 0.002 * (log_price - anchor) + rng.gauss(0.0, vol)
        close = math.exp(log_price)
        open_ = prev_close * math.exp(rng.gauss(0.0, vol / 4))
        top, bottom = max(open_, close), min(open_, close)
        # the 1e-4 floor keeps high > low after rounding to 6 decimals
        high = top * (1.0 + 1e-4 + abs(rng.gauss(0.0, vol / 2)))
        low = bottom * (1.0 - 1e-4 - abs(rng.gauss(0.0, vol / 2)))
        volume = rng.randint(10_000, 5_000_000)
        rows.append([open_, high, low, close, volume])
    return rows


def bars_csv(seed: int, n: int, dirty_share: float = 0.0) -> tuple[str, int]:
    """CSV text of ``n`` bars and the number of dirty rows injected."""
    rng = random.Random(seed)
    rows = _clean_rows(rng, n)
    day = dt.date(1900, 1, 1)
    lines = [HEADER]
    dirty = 0
    for open_, high, low, close, volume in rows:
        while day.weekday() >= 5:
            day += dt.timedelta(days=1)
        cells = [_fmt(open_), _fmt(high), _fmt(low), _fmt(close)]
        if dirty_share and rng.random() < dirty_share:
            kind = rng.choice(DIRTY_KINDS)
            if kind == "swap_low_high":
                cells[1], cells[2] = cells[2], cells[1]
            elif kind == "open_above_high":
                cells[0] = _fmt(high * 1.01)
            else:
                cells[3] = _fmt(low * 0.99)
            dirty += 1
        lines.append(f"{day.isoformat()},{','.join(cells)},{cells[3]},{volume}\n")
        day += dt.timedelta(days=1)
    return "".join(lines), dirty
