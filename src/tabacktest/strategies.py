"""Signal generation: seven long-only strategies over one OHLCV series.

Every strategy is a small frozen config object and a signal step, listed
together under the tag config files use in ``STRATEGIES``.
``generate_signals`` dispatches through that table and returns the bars
of a strictly alternating Buy/Sell sequence starting with a Buy: even
positions are Buys, odd positions Sells. A terminal open position is
left open.

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
    bollinger_parts,
    check_band_factor,
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
        check_band_factor(self.mult, "mult")


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
        check_band_factor(self.dev, "dev")


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
    """Indicator outputs over one series, shared by the signal steps that read it.

    ``memo(kernel, *params)`` is ``kernel(memo.series, *params)``, stored
    under the call ``(kernel, params)``, so a repeated call does not run
    the kernel again. Each entry is stored once, as IndicatorSeries over
    read-only views of ``array('d')``s, 8 bytes a value instead of a list
    slot and a float object, and every call hands out that stored entry,
    so no caller can change what the next one reads: a write raises
    TypeError.
    """

    def __init__(self, series: OhlcvSeries) -> None:
        self.series = series
        self._entries: dict = {}

    def __call__(self, kernel: Callable, *params):
        """``kernel(self.series, *params)``: an IndicatorSeries or a tuple of
        them, each over a read-only view of the stored values."""
        key = (kernel, params)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _stored(kernel(self.series, *params))
        return entry


def _stored(result):
    """``result`` with each IndicatorSeries' values in an ``array('d')``
    behind a read-only view."""
    if isinstance(result, IndicatorSeries):
        return IndicatorSeries(memoryview(array("d", result.values)).toreadonly(),
                               result.warmup_len)
    return tuple(_stored(part) for part in result)


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


def _warm_bars(memo: KernelMemo, lines: Sequence[IndicatorSeries], what: str) -> range:
    """The bars after every line's warm-up, each with a prior bar to
    compare against; TooShort names the ``what`` warm-up otherwise."""
    start = max(line.warmup_len for line in lines) + 1
    if len(memo.series) <= start:
        raise TooShort(f"series shorter than the {what} warm-up")
    return range(start, len(memo.series))


def _oscillator_bars(memo: KernelMemo, tag: str) -> range:
    """The fixed rsi/aroon scan range, whatever the indicator warm-up."""
    if len(memo.series) < OSCILLATOR_SCAN_START + 2:
        raise TooShort(f"{tag} strategy needs more than {OSCILLATOR_SCAN_START + 1} bars")
    return range(OSCILLATOR_SCAN_START, len(memo.series) - 1)


def two_average_signals(memo: KernelMemo, config: TwoAverageConfig) -> list[int]:
    fast = memo(moving_average, config.fast)
    slow = memo(moving_average, config.slow)
    bars = _warm_bars(memo, (fast, slow), "moving-average")
    return _alternate(*_crosses(fast.values, slow.values, bars))


def price_cross_signals(memo: KernelMemo, config: PriceCrossConfig) -> list[int]:
    line = memo(moving_average, config.ma)
    bars = _warm_bars(memo, (line,), "moving-average")
    return _alternate(*_crosses(memo.series.closes, line.values, bars))


def keltner_signals(memo: KernelMemo, config: KeltnerConfig) -> list[int]:
    # the parts do not depend on mult, so configs differing only in mult share them
    bands = offset_bands(*memo(keltner_parts, config.ma), config.mult)
    bars = _warm_bars(memo, (bands.upper,), "channel")
    return _alternate(*_breaks(memo.series.closes, bands.upper.values, bands.lower.values, bars))


def bollinger_signals(memo: KernelMemo, config: BollingerConfig) -> list[int]:
    # the parts do not depend on dev, so configs differing only in dev share them
    bands = offset_bands(*memo(bollinger_parts, config.window), config.dev)
    bars = _warm_bars(memo, (bands.upper,), "band")
    above, below = _breaks(memo.series.closes, bands.upper.values, bands.lower.values, bars)
    return _alternate(below, above)


def rsi_signals(memo: KernelMemo, config: RsiConfig) -> list[int]:
    bars = _oscillator_bars(memo, "rsi")
    closes = memo.series.closes
    strength = memo(rsi, config.n).values
    # oversold (overbought) after a fall (rise) of at most diff_rate
    buys = [i for i in bars if strength[i] < config.down_thres
            and 0 <= (closes[i - 1] - closes[i]) / closes[i - 1] <= config.diff_rate]
    sells = [i for i in bars if strength[i] > config.upper_thres
             and 0 <= (closes[i] - closes[i - 1]) / closes[i - 1] <= config.diff_rate]
    if config.rsitype == 2:
        line = memo(sma, config.sma_n).values
        buys = [i for i in buys if closes[i] < (1 - config.sma_rate) * line[i]]
        sells = [i for i in sells if closes[i] > (1 + config.sma_rate) * line[i]]
    return _alternate(buys, sells)


def aroon_signals(memo: KernelMemo, config: AroonConfig) -> list[int]:
    bars = _oscillator_bars(memo, "aroon")
    up, down, _ = memo(aroon, config.n)
    up_v, down_v = up.values, down.values
    buys, sells = _crosses(up_v, down_v, bars)
    if config.aroon_type == 2:
        # enter only while the downtrend is weak, exit only while the uptrend is
        buys = [i for i in buys if down_v[i] < config.weak_thres]
        sells = [i for i in sells if up_v[i] < config.weak_thres]
    return _alternate(buys, sells)


def macd_signals(memo: KernelMemo, config: MacdConfig) -> list[int]:
    line, signal, _ = memo(macd, config.short_n, config.long_n, config.signal_n)
    bars = _warm_bars(memo, (line, signal), "macd")
    return _alternate(*_crosses(line.values, signal.values, bars))


# The one list of the strategies: each config tag, its config class and
# its signal step. Config files name a strategy by its tag.
STRATEGIES: dict[str, tuple[type, Callable]] = {
    "two_average": (TwoAverageConfig, two_average_signals),
    "price_cross": (PriceCrossConfig, price_cross_signals),
    "keltner": (KeltnerConfig, keltner_signals),
    "rsi": (RsiConfig, rsi_signals),
    "aroon": (AroonConfig, aroon_signals),
    "bollinger": (BollingerConfig, bollinger_signals),
    "macd": (MacdConfig, macd_signals),
}
_STEPS = dict(STRATEGIES.values())


def generate_signals(
    series: OhlcvSeries, config: StrategyConfig, memo: Optional[KernelMemo] = None
) -> list[int]:
    """The bars of one strategy's signals, strictly increasing and
    alternating Buy and Sell from a Buy. Indicator series come from
    ``memo``, which must be a memo of ``series``; a fresh one when none
    is given."""
    try:
        step = _STEPS[type(config)]
    except KeyError:
        raise InvalidParams(f"unknown strategy config {type(config).__name__}") from None
    if memo is None:
        memo = KernelMemo(series)
    elif memo.series is not series:
        raise InvalidParams("the kernel memo belongs to another series")
    return step(memo, config)


def signals_to_csv(bars: Sequence[int], handle) -> None:
    """Write `bar_index,action` rows of an alternating bar list to an open text handle."""
    handle.write("bar_index,action\n")
    for k, bar in enumerate(bars):
        handle.write(f"{bar},{SELL if k % 2 else BUY}\n")
