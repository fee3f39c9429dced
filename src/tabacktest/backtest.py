"""All-in/all-out, zero-cost, long-only backtest of a signal sequence.

Fills happen at the signal bar's close. The strategy equity starts at
the close of the first Buy, multiplies by the daily close ratio while a
position is held, and is frozen while flat; a terminal open position is
valued at the final close.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def run(series: OhlcvSeries, signals: list[SignalEvent]) -> BacktestResult:
    """Apply a validated Buy/Sell sequence to a price series.

    An empty signal list yields a flat curve pinned at the first close
    and zero trades.
    """
    closes = series.closes
    _validate_signals(signals, len(closes))

    if not signals:
        flat = closes[0]
        equity = EquityCurve(tuple([flat] * len(closes)), flat, flat)
        return BacktestResult(equity, ())

    pairs: list[tuple[int, Optional[int]]] = []
    for i in range(0, len(signals), 2):
        entry = signals[i].bar_index
        exit_index = signals[i + 1].bar_index if i + 1 < len(signals) else None
        pairs.append((entry, exit_index))

    exposed = [False] * len(closes)
    for entry, exit_index in pairs:
        stop = exit_index if exit_index is not None else len(closes) - 1
        for i in range(entry + 1, stop + 1):
            exposed[i] = True

    first_buy = pairs[0][0]
    initial = closes[first_buy]
    values = [initial] * len(closes)
    for i in range(first_buy + 1, len(closes)):
        if exposed[i]:
            values[i] = values[i - 1] * (closes[i] / closes[i - 1])
        else:
            values[i] = values[i - 1]

    trades = tuple(
        Trade(
            entry_index=entry,
            exit_index=exit_index,
            entry_price=closes[entry],
            exit_price=closes[exit_index if exit_index is not None else -1],
            return_factor=closes[exit_index if exit_index is not None else -1] / closes[entry],
        )
        for entry, exit_index in pairs
    )
    equity = EquityCurve(tuple(values), initial, values[-1])
    return BacktestResult(equity, trades)


def equity_to_csv(result: BacktestResult, series: OhlcvSeries, handle) -> None:
    """Write `bar_index,equity,close` rows for figure reproduction to an open text handle."""
    handle.write("bar_index,equity,close\n")
    for i, (value, close) in enumerate(zip(result.equity.values, series.closes)):
        handle.write(f"{i},{value!r},{close!r}\n")
