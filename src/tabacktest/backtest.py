"""All-in/all-out, zero-cost, long-only backtest of a signal sequence.

Fills happen at the signal bar's close. The strategy equity starts at
the close of the first Buy, multiplies by the daily close ratio while a
position is held, and is frozen while flat; a terminal open position is
valued at the final close.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import mul, truediv
from typing import Optional, Sequence

from .errors import IndexOutOfRange, NonAlternatingSignals
from .market_data import OhlcvSeries
from .strategies import BUY, SELL, SignalEvent


@dataclass(frozen=True)
class Trade:
    entry_index: int
    exit_index: Optional[int]
    entry_price: float
    exit_price: float
    return_factor: float

    @property
    def is_open(self) -> bool:
        return self.exit_index is None


@dataclass(frozen=True)
class EquityCurve:
    values: tuple[float, ...]
    initial_price: float
    final_price: float


@dataclass(frozen=True)
class BacktestResult:
    equity: EquityCurve
    trades: tuple[Trade, ...]

    @property
    def buy_count(self) -> int:
        return len(self.trades)


def _validate_signals(signals: list[SignalEvent], length: int) -> None:
    expected = BUY
    prev_index = -1
    for event in signals:
        if not 0 <= event.bar_index < length:
            raise IndexOutOfRange(f"signal at bar {event.bar_index} outside series of length {length}")
        if event.bar_index <= prev_index:
            raise NonAlternatingSignals(f"signal indices must strictly increase at bar {event.bar_index}")
        if event.action != expected:
            raise NonAlternatingSignals(f"expected {expected} at bar {event.bar_index}, got {event.action}")
        prev_index = event.bar_index
        expected = SELL if expected == BUY else BUY


def _pairs(signals: list[SignalEvent]) -> list[tuple[int, Optional[int]]]:
    """(entry bar, exit bar or None while still open) of each trade."""
    return [(signals[k].bar_index,
             signals[k + 1].bar_index if k + 1 < len(signals) else None)
            for k in range(0, len(signals), 2)]


def close_ratios(closes: Sequence[float]) -> list[float]:
    """``closes[i] / closes[i - 1]`` for bars 1 to n - 1, at index i - 1:
    a held position's growth over each bar."""
    return list(map(truediv, islice(closes, 1, None), closes))


def exposure_runs(
    closes: Sequence[float], signals: list[SignalEvent], ratios: Sequence[float]
) -> tuple[float, list[tuple[int, list[float]]]]:
    """The strategy equity of a Buy/Sell sequence, which it validates, as exposure runs.

    Returns the initial value and one ``(entry bar, values)`` run per
    trade, ``values`` being the equity from the entry bar to the exit bar
    (the last bar for an open trade). ``ratios`` is ``close_ratios(closes)``.
    Before the first Buy the equity is the initial value; between trades
    it holds the last run's final value.
    """
    _validate_signals(signals, len(closes))
    if not signals:
        return closes[0], []
    initial = held = closes[signals[0].bar_index]
    runs = []
    for entry, exit_index in _pairs(signals):
        stop = exit_index if exit_index is not None else len(closes) - 1
        values = list(accumulate(ratios[entry:stop], mul, initial=held))
        runs.append((entry, values))
        held = values[-1]
    return initial, runs


def run(series: OhlcvSeries, signals: list[SignalEvent]) -> BacktestResult:
    """Apply a validated Buy/Sell sequence to a price series.

    An empty signal list yields a flat curve pinned at the first close
    and zero trades.
    """
    closes = series.closes
    initial, runs = exposure_runs(closes, signals, close_ratios(closes))
    parts = []
    held, done = initial, 0
    for entry, values in runs:
        parts += (repeat(held, entry - done), values)
        held, done = values[-1], entry + len(values)
    parts.append(repeat(held, len(closes) - done))
    trades = tuple(
        Trade(
            entry_index=entry,
            exit_index=exit_index,
            entry_price=closes[entry],
            exit_price=closes[exit_index if exit_index is not None else -1],
            return_factor=closes[exit_index if exit_index is not None else -1] / closes[entry],
        )
        for entry, exit_index in _pairs(signals)
    )
    equity = EquityCurve(tuple(chain.from_iterable(parts)), initial, held)
    return BacktestResult(equity, trades)


def equity_to_csv(result: BacktestResult, series: OhlcvSeries, handle) -> None:
    """Write `bar_index,equity,close` rows for figure reproduction to an open text handle."""
    handle.write("bar_index,equity,close\n")
    for i, (value, close) in enumerate(zip(result.equity.values, series.closes)):
        handle.write(f"{i},{value!r},{close!r}\n")
