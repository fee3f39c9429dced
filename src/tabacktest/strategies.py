"""Signal generation: seven long-only strategies over one OHLCV series.

Every strategy is a small frozen config object dispatched through
``generate_signals``. Output is a strictly alternating Buy/Sell event
list starting with a Buy; a terminal open position is left open.

Cross conventions: line-vs-line strategies (two-average, price cross,
aroon, macd) require strict inequality on both bars of the cross, so a
touch is not a cross. Band strategies (keltner, bollinger) treat a bar
sitting exactly on the band as still inside it, and fire when the next
close is strictly beyond the band.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .errors import InvalidParams, TooShort
from .indicators import (
    AmaParams,
    IndicatorSeries,
    MaLike,
    aroon,
    bollinger_bands,
    bollinger_parts,
    keltner_parts,
    macd,
    moving_average,
    offset_bands,
    rsi,
    sma,
)
from .market_data import OhlcvSeries

BUY = "Buy"
SELL = "Sell"

# The rsi/aroon strategies scan from this fixed bar regardless of the
# indicator warm-up, so short-period runs stay comparable.
OSCILLATOR_SCAN_START = 60


@dataclass(frozen=True)
class SignalEvent:
    bar_index: int
    action: str

    def __post_init__(self):
        if self.action not in (BUY, SELL):
            raise InvalidParams(f"unknown action {self.action!r}")
        if self.bar_index < 0:
            raise InvalidParams("bar_index must be >= 0")


@dataclass(frozen=True)
class TwoAverageConfig:
    """Golden/dead cross between a fast and a slow moving average."""

    fast: MaLike
    slow: MaLike


@dataclass(frozen=True)
class PriceCrossConfig:
    """Close price crossing a single moving average."""

    ma: MaLike


@dataclass(frozen=True)
class KeltnerConfig:
    """Breakout channel: buy above the upper band, sell below the lower."""

    ma: MaLike
    mult: float = 2.0

    def __post_init__(self):
        if self.mult < 0:
            raise InvalidParams("mult must be >= 0")


@dataclass(frozen=True)
class RsiConfig:
    """Oversold/overbought reversal with a trend-end rate window.

    rsitype 2 additionally requires the close to sit sma_rate below (buy)
    or above (sell) its simple moving average of sma_n closes.
    """

    n: int
    down_thres: float = 30.0
    upper_thres: float = 70.0
    diff_rate: float = 0.0024
    rsitype: int = 1
    sma_n: int = 0
    sma_rate: float = 0.001

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("n must be >= 1")
        if not 0 <= self.down_thres < self.upper_thres <= 100:
            raise InvalidParams("need 0 <= down_thres < upper_thres <= 100")
        if self.diff_rate < 0:
            raise InvalidParams("diff_rate must be >= 0")
        if self.rsitype not in (1, 2):
            raise InvalidParams("rsitype must be 1 or 2")
        if self.rsitype == 2 and self.sma_n < 1:
            raise InvalidParams("rsitype 2 needs sma_n >= 1")


@dataclass(frozen=True)
class AroonConfig:
    """Aroon Up/Down crossover; type 2 gates entries by a weak opposite trend."""

    n: int
    aroon_type: int = 1
    weak_thres: float = 45.0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("n must be >= 1")
        if self.aroon_type not in (1, 2):
            raise InvalidParams("aroon_type must be 1 or 2")
        if not 0 < self.weak_thres < 100:
            raise InvalidParams("weak_thres must be in (0, 100)")


@dataclass(frozen=True)
class BollingerConfig:
    """Mean reversion: buy below the lower band, sell above the upper."""

    window: Union[int, AmaParams]
    dev: float = 2.0

    def __post_init__(self):
        if isinstance(self.window, int) and self.window < 1:
            raise InvalidParams("window must be >= 1")
        if self.dev < 0:
            raise InvalidParams("dev must be >= 0")


@dataclass(frozen=True)
class MacdConfig:
    short_n: int = 12
    long_n: int = 26
    signal_n: int = 9

    def __post_init__(self):
        for period in (self.short_n, self.long_n, self.signal_n):
            if period < 1:
                raise InvalidParams("macd periods must be >= 1")


StrategyConfig = Union[
    TwoAverageConfig,
    PriceCrossConfig,
    KeltnerConfig,
    RsiConfig,
    AroonConfig,
    BollingerConfig,
    MacdConfig,
]


class KernelMemo:
    """Indicator outputs over one fixed series, shared by the cells of a sweep.

    A key names the kernel, its input column and its frozen parameters. The
    series is not part of the key, so a memo must not outlive its series or
    serve another one. Entries are kept as ``array('d')`` plus the warm-up
    length, 8 bytes a value instead of a list slot and a float object, and
    every hit hands out fresh lists, so no caller can change what the next
    one reads. Threads may share a memo: dict reads and writes are atomic,
    so a race at worst computes an identical entry twice.
    """

    def __init__(self) -> None:
        self._entries: dict = {}

    def get(self, key: tuple, compute: Callable):
        """``compute()``'s result for ``key``: an IndicatorSeries or a tuple of them."""
        entry = self._entries.get(key)
        if entry is not None:
            return _unpack(entry)
        result = compute()
        self._entries[key] = _pack(result)
        return result


def _pack(result):
    if isinstance(result, IndicatorSeries):
        return array("d", result.values), result.warmup_len
    return tuple(_pack(part) for part in result)


def _unpack(entry):
    if isinstance(entry[0], array):
        return IndicatorSeries(list(entry[0]), entry[1])
    return tuple(_unpack(part) for part in entry)


def _cached(memo: Optional[KernelMemo], key: tuple, compute: Callable):
    return compute() if memo is None else memo.get(key, compute)


def _line_cross_signals(fast: list[float], slow: list[float], start: int, end: int) -> list[SignalEvent]:
    """Strict-cross state machine over [start, end)."""
    events: list[SignalEvent] = []
    in_position = False
    for i in range(start, end):
        if fast[i - 1] < slow[i - 1] and fast[i] > slow[i]:
            if not in_position:
                events.append(SignalEvent(i, BUY))
                in_position = True
        elif fast[i - 1] > slow[i - 1] and fast[i] < slow[i]:
            if in_position:
                events.append(SignalEvent(i, SELL))
                in_position = False
    return events


def two_average_signals(
    series: OhlcvSeries, config: TwoAverageConfig, memo: Optional[KernelMemo] = None
) -> list[SignalEvent]:
    closes = series.closes
    fast = _cached(memo, ("moving_average", "close", config.fast),
                   lambda: moving_average(closes, config.fast))
    slow = _cached(memo, ("moving_average", "close", config.slow),
                   lambda: moving_average(closes, config.slow))
    start = max(fast.warmup_len, slow.warmup_len) + 1
    if len(closes) <= start:
        raise TooShort("series shorter than the moving-average warm-up")
    return _line_cross_signals(fast.values, slow.values, start, len(closes))


def price_cross_signals(
    series: OhlcvSeries, config: PriceCrossConfig, memo: Optional[KernelMemo] = None
) -> list[SignalEvent]:
    closes = series.closes
    line = _cached(memo, ("moving_average", "close", config.ma),
                   lambda: moving_average(closes, config.ma))
    start = line.warmup_len + 1
    if len(closes) <= start:
        raise TooShort("series shorter than the moving-average warm-up")
    return _line_cross_signals(closes, line.values, start, len(closes))


def keltner_signals(
    series: OhlcvSeries, config: KeltnerConfig, memo: Optional[KernelMemo] = None
) -> list[SignalEvent]:
    # the parts do not depend on mult, so cells differing only in mult share them
    closes = series.closes
    parts = _cached(memo, ("keltner_parts", "ohlc", config.ma),
                    lambda: keltner_parts(series, config.ma))
    bands = offset_bands(*parts, config.mult)
    start = bands.upper.warmup_len + 1
    if len(closes) <= start:
        raise TooShort("series shorter than the channel warm-up")
    upper, lower = bands.upper.values, bands.lower.values
    events: list[SignalEvent] = []
    in_position = False
    for i in range(start, len(closes)):
        if closes[i - 1] <= upper[i - 1] and closes[i] > upper[i]:
            if not in_position:
                events.append(SignalEvent(i, BUY))
                in_position = True
        elif closes[i - 1] >= lower[i - 1] and closes[i] < lower[i]:
            if in_position:
                events.append(SignalEvent(i, SELL))
                in_position = False
    return events


def bollinger_signals(
    series: OhlcvSeries, config: BollingerConfig, memo: Optional[KernelMemo] = None
) -> list[SignalEvent]:
    # the parts do not depend on dev, so cells differing only in dev share them
    closes = series.closes
    parts = _cached(memo, ("bollinger_parts", "ohlc", config.window),
                    lambda: bollinger_parts(series, config.window))
    bands = bollinger_bands(*parts, config.dev)
    start = bands.upper.warmup_len + 1
    if len(closes) <= start:
        raise TooShort("series shorter than the band warm-up")
    upper, lower = bands.upper.values, bands.lower.values
    events: list[SignalEvent] = []
    in_position = False
    for i in range(start, len(closes)):
        if closes[i - 1] >= lower[i - 1] and closes[i] < lower[i]:
            if not in_position:
                events.append(SignalEvent(i, BUY))
                in_position = True
        elif closes[i - 1] <= upper[i - 1] and closes[i] > upper[i]:
            if in_position:
                events.append(SignalEvent(i, SELL))
                in_position = False
    return events


def rsi_signals(
    series: OhlcvSeries, config: RsiConfig, memo: Optional[KernelMemo] = None
) -> list[SignalEvent]:
    closes = series.closes
    if len(closes) < OSCILLATOR_SCAN_START + 2:
        raise TooShort(f"rsi strategy needs more than {OSCILLATOR_SCAN_START + 1} bars")
    strength = _cached(memo, ("rsi", "close", config.n), lambda: rsi(closes, config.n)).values
    ma_line = None
    if config.rsitype == 2:
        ma_line = _cached(memo, ("sma", "close", config.sma_n),
                          lambda: sma(closes, config.sma_n)).values
    events: list[SignalEvent] = []
    in_position = False
    for i in range(OSCILLATOR_SCAN_START, len(closes) - 1):
        if config.rsitype == 1:
            oversold_gate = True
            overbought_gate = True
        else:
            oversold_gate = closes[i] < (1 - config.sma_rate) * ma_line[i]
            overbought_gate = closes[i] > (1 + config.sma_rate) * ma_line[i]
        if strength[i] < config.down_thres and oversold_gate:
            downrate = (closes[i - 1] - closes[i]) / closes[i - 1]
            if 0 <= downrate <= config.diff_rate and not in_position:
                events.append(SignalEvent(i, BUY))
                in_position = True
        elif strength[i] > config.upper_thres and overbought_gate:
            uprate = (closes[i] - closes[i - 1]) / closes[i - 1]
            if 0 <= uprate <= config.diff_rate and in_position:
                events.append(SignalEvent(i, SELL))
                in_position = False
    return events


def aroon_signals(
    series: OhlcvSeries, config: AroonConfig, memo: Optional[KernelMemo] = None
) -> list[SignalEvent]:
    closes = series.closes
    if len(closes) < OSCILLATOR_SCAN_START + 2:
        raise TooShort(f"aroon strategy needs more than {OSCILLATOR_SCAN_START + 1} bars")
    up, down, _ = _cached(memo, ("aroon", "ohlc", config.n), lambda: aroon(series, config.n))
    up_v, down_v = up.values, down.values
    events: list[SignalEvent] = []
    in_position = False
    for i in range(OSCILLATOR_SCAN_START, len(closes) - 1):
        if config.aroon_type == 1:
            buy_gate = True
            sell_gate = True
        else:
            buy_gate = down_v[i] < config.weak_thres
            sell_gate = up_v[i] < config.weak_thres
        if (
            up_v[i - 1] < down_v[i - 1]
            and up_v[i] > down_v[i]
            and buy_gate
            and not in_position
        ):
            events.append(SignalEvent(i, BUY))
            in_position = True
        elif (
            up_v[i - 1] > down_v[i - 1]
            and up_v[i] < down_v[i]
            and sell_gate
            and in_position
        ):
            events.append(SignalEvent(i, SELL))
            in_position = False
    return events


def macd_signals(
    series: OhlcvSeries, config: MacdConfig, memo: Optional[KernelMemo] = None
) -> list[SignalEvent]:
    closes = series.closes
    periods = (config.short_n, config.long_n, config.signal_n)
    line, signal, _ = _cached(memo, ("macd", "close", *periods), lambda: macd(closes, *periods))
    start = max(line.warmup_len, signal.warmup_len) + 1
    if len(closes) <= start:
        raise TooShort("series shorter than the macd warm-up")
    return _line_cross_signals(line.values, signal.values, start, len(closes))


_DISPATCH = {
    TwoAverageConfig: two_average_signals,
    PriceCrossConfig: price_cross_signals,
    KeltnerConfig: keltner_signals,
    RsiConfig: rsi_signals,
    AroonConfig: aroon_signals,
    BollingerConfig: bollinger_signals,
    MacdConfig: macd_signals,
}

def generate_signals(
    series: OhlcvSeries, config: StrategyConfig, memo: Optional[KernelMemo] = None
) -> list[SignalEvent]:
    """Signals of one strategy; indicator series come from ``memo`` when given."""
    try:
        runner = _DISPATCH[type(config)]
    except KeyError:
        raise InvalidParams(f"unknown strategy config {type(config).__name__}") from None
    return runner(series, config, memo)


def signals_to_csv(events: list[SignalEvent], target) -> None:
    from pathlib import Path as _Path

    own = isinstance(target, (str, _Path))
    handle = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        handle.write("bar_index,action\n")
        for event in events:
            handle.write(f"{event.bar_index},{event.action}\n")
    finally:
        if own:
            handle.close()
