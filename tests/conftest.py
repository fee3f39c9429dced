import datetime as dt
import random
from pathlib import Path
from typing import NamedTuple

import pytest

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
