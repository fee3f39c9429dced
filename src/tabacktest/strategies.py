"""Signal generation: seven long-only strategies over one OHLCV series.

Every strategy is a small frozen config object dispatched through
``signal_bars``, which returns the bars of a strictly alternating
Buy/Sell sequence starting with a Buy; ``generate_signals`` returns the
same sequence as events. A terminal open position is left open.

Cross conventions: line-vs-line strategies (two-average, price cross,
aroon, macd) require strict inequality on both bars of the cross, so a
touch is not a cross. Band strategies (keltner, bollinger) treat a bar
sitting exactly on the band as still inside it, and fire when the next
close is strictly beyond the band.
"""
from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from operator import gt, lt
from typing import Callable, Iterable, Optional, Sequence, Union

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
    length, 8 bytes a value instead of a list slot and a float object.
    Every call, hit or miss, hands out read-only views of the stored arrays,
    so no caller can change what the next one reads: a write raises
    TypeError.
    """

    def __init__(self) -> None:
        self._entries: dict = {}

    def get(self, key: tuple, compute: Callable):
        """``compute()``'s result for ``key``: an IndicatorSeries or a tuple
        of them, each over a read-only view of the stored values."""
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _pack(compute())
        return _view(entry)


def _pack(result):
    if isinstance(result, IndicatorSeries):
        return array("d", result.values), result.warmup_len
    return tuple(_pack(part) for part in result)


def _view(entry):
    if isinstance(entry[0], array):
        return IndicatorSeries(memoryview(entry[0]).toreadonly(), entry[1])
    return tuple(_view(part) for part in entry)


def _cached(memo: Optional[KernelMemo], key: tuple, compute: Callable):
    return compute() if memo is None else memo.get(key, compute)


def _alternate(buys: list[int], sells: list[int]) -> list[int]:
    """The bars of the long-only Buy/Sell alternation over two sorted lists
    of candidate bars, a Buy first.

    The first buy, then the first sell after it, then the first buy after
    that sell, and so on; the candidates in between are passed over.

    Precondition: no bar is in both lists. The strategies are defined with
    the entry test first and no exit test on a bar whose entry test held;
    the precondition makes that order moot. Opposite strict crosses
    exclude each other, a band bar would need close < lower <= upper <
    close, and an RSI bar strength < down_thres < upper_thres < strength.
    """
    bars: list[int] = []
    last = -1
    candidates, other = buys, sells
    while (k := bisect_right(candidates, last)) < len(candidates):
        last = candidates[k]
        bars.append(last)
        candidates, other = other, candidates
    return bars


# In a packed run of flags, one flag turning true and one turning false;
# a match ends at the flag that changed.
_TURNS_TRUE = re.compile(b"\x00(?=\x01)")
_TURNS_FALSE = re.compile(b"\x01(?=\x00)")


def _turns(flags: Iterable[bool], first: int) -> tuple[list[int], list[int]]:
    """The bars where ``flags`` turns true, and where it turns false; flag k
    is bar ``first + k``. The flags are compared in C and packed into
    bytes, so Python only touches the few bars where a flag changes."""
    packed = bytes(flags)
    return ([first + m.end() for m in _TURNS_TRUE.finditer(packed)],
            [first + m.end() for m in _TURNS_FALSE.finditer(packed)])


def _crosses(fast: Sequence[float], slow: Sequence[float],
             bars: range) -> tuple[list[int], list[int]]:
    """The bars where ``fast`` crosses strictly above ``slow``, and strictly below it."""
    first = bars.start - 1
    prior = slice(first, bars.stop)
    # a cross ends or starts `fast < slow`; the other side may still be a tie
    into_below, out_of_below = _turns(map(lt, fast[prior], slow[prior]), first)
    return ([i for i in out_of_below if fast[i] > slow[i]],
            [i for i in into_below if fast[i - 1] > slow[i - 1]])


def _breaks(closes: Sequence[float], upper: Sequence[float], lower: Sequence[float],
            bars: range) -> tuple[list[int], list[int]]:
    """The bars where the close leaves the band above ``upper``, and below
    ``lower``; a close exactly on a band is still inside it."""
    first = bars.start - 1
    prior = slice(first, bars.stop)
    over, _ = _turns(map(gt, closes[prior], upper[prior]), first)
    under, _ = _turns(map(lt, closes[prior], lower[prior]), first)
    # not above the band before is `<=` unless a band value is NaN
    return ([i for i in over if closes[i - 1] <= upper[i - 1]],
            [i for i in under if closes[i - 1] >= lower[i - 1]])


def two_average_signals(
    series: OhlcvSeries, config: TwoAverageConfig, memo: Optional[KernelMemo] = None
) -> list[int]:
    closes = series.closes
    fast = _cached(memo, ("moving_average", "close", config.fast),
                   lambda: moving_average(closes, config.fast))
    slow = _cached(memo, ("moving_average", "close", config.slow),
                   lambda: moving_average(closes, config.slow))
    start = max(fast.warmup_len, slow.warmup_len) + 1
    if len(closes) <= start:
        raise TooShort("series shorter than the moving-average warm-up")
    return _alternate(*_crosses(fast.values, slow.values, range(start, len(closes))))


def price_cross_signals(
    series: OhlcvSeries, config: PriceCrossConfig, memo: Optional[KernelMemo] = None
) -> list[int]:
    closes = series.closes
    line = _cached(memo, ("moving_average", "close", config.ma),
                   lambda: moving_average(closes, config.ma))
    start = line.warmup_len + 1
    if len(closes) <= start:
        raise TooShort("series shorter than the moving-average warm-up")
    return _alternate(*_crosses(closes, line.values, range(start, len(closes))))


def keltner_signals(
    series: OhlcvSeries, config: KeltnerConfig, memo: Optional[KernelMemo] = None
) -> list[int]:
    # the parts do not depend on mult, so cells differing only in mult share them
    closes = series.closes
    parts = _cached(memo, ("keltner_parts", "ohlc", config.ma),
                    lambda: keltner_parts(series, config.ma))
    bands = offset_bands(*parts, config.mult)
    start = bands.upper.warmup_len + 1
    if len(closes) <= start:
        raise TooShort("series shorter than the channel warm-up")
    return _alternate(*_breaks(closes, bands.upper.values, bands.lower.values,
                               range(start, len(closes))))


def bollinger_signals(
    series: OhlcvSeries, config: BollingerConfig, memo: Optional[KernelMemo] = None
) -> list[int]:
    # the parts do not depend on dev, so cells differing only in dev share them
    closes = series.closes
    parts = _cached(memo, ("bollinger_parts", "ohlc", config.window),
                    lambda: bollinger_parts(series, config.window))
    bands = bollinger_bands(*parts, config.dev)
    start = bands.upper.warmup_len + 1
    if len(closes) <= start:
        raise TooShort("series shorter than the band warm-up")
    above, below = _breaks(closes, bands.upper.values, bands.lower.values,
                           range(start, len(closes)))
    return _alternate(below, above)


def rsi_signals(
    series: OhlcvSeries, config: RsiConfig, memo: Optional[KernelMemo] = None
) -> list[int]:
    closes = series.closes
    if len(closes) < OSCILLATOR_SCAN_START + 2:
        raise TooShort(f"rsi strategy needs more than {OSCILLATOR_SCAN_START + 1} bars")
    strength = _cached(memo, ("rsi", "close", config.n), lambda: rsi(closes, config.n)).values
    bars = range(OSCILLATOR_SCAN_START, len(closes) - 1)
    # oversold (overbought) after a fall (rise) of at most diff_rate
    buys = [i for i in bars if strength[i] < config.down_thres
            and 0 <= (closes[i - 1] - closes[i]) / closes[i - 1] <= config.diff_rate]
    sells = [i for i in bars if strength[i] > config.upper_thres
             and 0 <= (closes[i] - closes[i - 1]) / closes[i - 1] <= config.diff_rate]
    if config.rsitype == 2:
        line = _cached(memo, ("sma", "close", config.sma_n),
                       lambda: sma(closes, config.sma_n)).values
        buys = [i for i in buys if closes[i] < (1 - config.sma_rate) * line[i]]
        sells = [i for i in sells if closes[i] > (1 + config.sma_rate) * line[i]]
    return _alternate(buys, sells)


def aroon_signals(
    series: OhlcvSeries, config: AroonConfig, memo: Optional[KernelMemo] = None
) -> list[int]:
    closes = series.closes
    if len(closes) < OSCILLATOR_SCAN_START + 2:
        raise TooShort(f"aroon strategy needs more than {OSCILLATOR_SCAN_START + 1} bars")
    up, down, _ = _cached(memo, ("aroon", "ohlc", config.n), lambda: aroon(series, config.n))
    up_v, down_v = up.values, down.values
    buys, sells = _crosses(up_v, down_v, range(OSCILLATOR_SCAN_START, len(closes) - 1))
    if config.aroon_type == 2:
        # enter only while the downtrend is weak, exit only while the uptrend is
        buys = [i for i in buys if down_v[i] < config.weak_thres]
        sells = [i for i in sells if up_v[i] < config.weak_thres]
    return _alternate(buys, sells)


def macd_signals(
    series: OhlcvSeries, config: MacdConfig, memo: Optional[KernelMemo] = None
) -> list[int]:
    closes = series.closes
    periods = (config.short_n, config.long_n, config.signal_n)
    line, signal, _ = _cached(memo, ("macd", "close", *periods), lambda: macd(closes, *periods))
    start = max(line.warmup_len, signal.warmup_len) + 1
    if len(closes) <= start:
        raise TooShort("series shorter than the macd warm-up")
    return _alternate(*_crosses(line.values, signal.values, range(start, len(closes))))


_DISPATCH = {
    TwoAverageConfig: two_average_signals,
    PriceCrossConfig: price_cross_signals,
    KeltnerConfig: keltner_signals,
    RsiConfig: rsi_signals,
    AroonConfig: aroon_signals,
    BollingerConfig: bollinger_signals,
    MacdConfig: macd_signals,
}


def signal_bars(
    series: OhlcvSeries, config: StrategyConfig, memo: Optional[KernelMemo] = None
) -> list[int]:
    """The bars of one strategy's signals, strictly increasing and
    alternating Buy and Sell from a Buy; indicator series come from
    ``memo`` when given."""
    try:
        runner = _DISPATCH[type(config)]
    except KeyError:
        raise InvalidParams(f"unknown strategy config {type(config).__name__}") from None
    return runner(series, config, memo)


def generate_signals(
    series: OhlcvSeries, config: StrategyConfig, memo: Optional[KernelMemo] = None
) -> list[SignalEvent]:
    """Signals of one strategy: ``signal_bars`` as Buy/Sell events."""
    return [SignalEvent(bar, SELL if k % 2 else BUY)
            for k, bar in enumerate(signal_bars(series, config, memo))]


def signals_to_csv(events: list[SignalEvent], handle) -> None:
    """Write `bar_index,action` rows to an open text handle."""
    handle.write("bar_index,action\n")
    for event in events:
        handle.write(f"{event.bar_index},{event.action}\n")
