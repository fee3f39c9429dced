"""All-in/all-out, zero-cost, long-only backtest of a signal sequence.

Fills happen at the signal bar's close. The strategy equity starts at
the close of the first Buy, multiplies by the daily close ratio while a
position is held, and is frozen while flat; a terminal open position is
valued at the final close.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import lt, mul, truediv
from typing import Optional, Sequence

from .errors import IndexOutOfRange, NonAlternatingSignals
from .market_data import OhlcvSeries


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


def _validate_signals(bars: Sequence[int], length: int) -> None:
    """Signal bars inside the series and strictly increasing; the first
    offending bar raises."""
    prev_index = -1
    for bar in bars:
        if not 0 <= bar < length:
            raise IndexOutOfRange(f"signal at bar {bar} outside series of length {length}")
        if bar <= prev_index:
            raise NonAlternatingSignals(f"signal indices must strictly increase at bar {bar}")
        prev_index = bar


def _pairs(bars: Sequence[int]) -> list[tuple[int, Optional[int]]]:
    """(entry bar, exit bar or None while still open) of each trade."""
    return [(bars[k], bars[k + 1] if k + 1 < len(bars) else None)
            for k in range(0, len(bars), 2)]


def close_ratios(closes: Sequence[float]) -> list[float]:
    """``closes[i] / closes[i - 1]`` for bars 1 to n - 1, at index i - 1:
    a held position's growth over each bar."""
    return list(map(truediv, islice(closes, 1, None), closes))


def exposure_runs(
    closes: Sequence[float], bars: Sequence[int], ratios: Sequence[float]
) -> tuple[float, list[tuple[int, list[float]]]]:
    """The strategy equity of the signal bars of a Buy/Sell sequence, as exposure runs.

    ``bars`` alternate Buy and Sell from a Buy; they must be strictly
    increasing and inside the series. Returns the initial value and one
    ``(entry bar, values)`` run per trade, ``values`` being the equity
    from the entry bar to the exit bar (the last bar for an open trade).
    ``ratios`` is ``close_ratios(closes)``. Before the first Buy the
    equity is the initial value; between trades it holds the last run's
    final value.
    """
    if not bars:
        return closes[0], []
    # checked in C; the offending bar is looked for only when the check fails
    increasing = all(map(lt, bars, islice(bars, 1, None)))
    if not (increasing and 0 <= bars[0] and bars[-1] < len(closes)):
        _validate_signals(bars, len(closes))
    initial = held = closes[bars[0]]
    runs = []
    for entry, exit_index in _pairs(bars):
        stop = exit_index if exit_index is not None else len(closes) - 1
        values = list(accumulate(ratios[entry:stop], mul, initial=held))
        runs.append((entry, values))
        held = values[-1]
    return initial, runs


def run(series: OhlcvSeries, bars: Sequence[int]) -> BacktestResult:
    """Apply the signal bars of a Buy/Sell sequence to a price series.

    ``bars`` alternate Buy and Sell from a Buy, as ``generate_signals``
    returns them; ``exposure_runs`` checks them. An empty list yields a
    flat curve pinned at the first close and zero trades.
    """
    closes = series.closes
    initial, runs = exposure_runs(closes, bars, close_ratios(closes))
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
        for entry, exit_index in _pairs(bars)
    )
    equity = EquityCurve(tuple(chain.from_iterable(parts)), initial, held)
    return BacktestResult(equity, trades)


def equity_to_csv(result: BacktestResult, series: OhlcvSeries, handle) -> None:
    """Write `bar_index,equity,close` rows for figure reproduction to an open text handle."""
    handle.write("bar_index,equity,close\n")
    for i, (value, close) in enumerate(zip(result.equity.values, series.closes)):
        handle.write(f"{i},{value!r},{close!r}\n")
