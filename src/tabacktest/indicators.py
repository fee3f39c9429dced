"""Deterministic indicator kernels over aligned daily series.

Every kernel returns a series of exactly the input length. Leading bars
without a full window are passed through unchanged (never NaN) and
reported via ``warmup_len``. All kernels are pure functions of their
inputs, so repeated runs are bit-identical.

``sma``, ``rolling_std``, ``efficiency_ratio`` and ``ama`` matype 2 run
in O(n) on exact integer window sums, each one difference of prefix sums
(``_exact.prefix_sums``) or one step of a running integer sum; a series
builds the prefix sums of its closes once (``OhlcvSeries.close_sums``),
however many windows read them. Each SMA and adaptive mean, each
efficiency ratio and each RSI/RMI seed mean is exactly rounded, and each
sigma is the correctly rounded square root of the exactly rounded
population variance, on every interpreter. ``aroon`` finds its window
extremes with a monotonic deque of indices (Lemire 2006).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import add, mul, sub, truediv
from typing import Sequence

from ._exact import exact_ints, prefix_sums, root_of_ratio
from .errors import DomainError, InvalidParams, TooShort, ZeroPeriod
from .market_data import OhlcvSeries

# Floor for the efficiency-ratio noise denominator on flat stretches.
ER_NOISE_FLOOR = 1e-4

MA_SMA = "sma"
MA_EMA = "ema"


@dataclass(frozen=True)
class IndicatorSeries:
    """Per-bar values aligned 1:1 with the input; first warmup_len entries
    are pass-through/seed values rather than fully formed outputs.

    A kernel's values are a list; a ``KernelMemo`` hands out a read-only
    view instead, so code that reads them takes any float sequence."""

    values: Sequence[float]
    warmup_len: int

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class BandSet:
    middle: IndicatorSeries
    upper: IndicatorSeries
    lower: IndicatorSeries


@dataclass(frozen=True)
class MaSpec:
    """Plain moving average: kind is "sma" or "ema"."""

    kind: str
    period: int
    smoothing: float = 2.0

    def __post_init__(self):
        if self.kind not in (MA_SMA, MA_EMA):
            raise InvalidParams(f"unknown moving-average kind {self.kind!r}")
        if self.period < 1:
            raise InvalidParams("period must be >= 1")
        if self.smoothing <= 0:
            raise InvalidParams("smoothing factor must be > 0")


@dataclass(frozen=True)
class AmaParams:
    """Adaptive moving average parameters.

    matype 1 blends fast/slow EMA smoothing constants by trend strength;
    matype 2 re-sizes an SMA window between the short and long periods.
    """

    timeperiod_long: int
    timeperiod_short: int
    ada_win: int
    matype: int = 1

    def __post_init__(self):
        if self.timeperiod_short < 1 or self.timeperiod_long <= self.timeperiod_short:
            raise InvalidParams("need timeperiod_long > timeperiod_short >= 1")
        if self.ada_win < 1:
            raise InvalidParams("ada_win must be >= 1")
        if self.matype not in (1, 2):
            raise InvalidParams(f"matype must be 1 or 2, got {self.matype}")


MaLike = MaSpec | AmaParams


@dataclass(frozen=True)
class _Column:
    """Values with the prefix sums of their integers and the scale
    (``_exact.prefix_sums``), made once for every kernel that reads them.
    Not a tuple: ``perfbench``'s span tracer hashes a tuple argument of a
    kernel, and the sums are a list."""

    values: Sequence[float]
    sums: list[int]
    scale: int


def _values(data) -> list[float]:
    """Accept an IndicatorSeries, an OHLCV series (closes), or any sequence."""
    if isinstance(data, IndicatorSeries):
        return data.values
    if isinstance(data, OhlcvSeries):
        return list(data.closes)
    return [float(v) for v in data]


def _column(data) -> _Column:
    """The ``_Column`` of ``data``; a series' closes keep their sums, and
    a ``_Column`` is itself."""
    if isinstance(data, _Column):
        return data
    if isinstance(data, OhlcvSeries):
        return _Column(data.closes, *data.close_sums)
    x = _values(data)
    return _Column(x, *prefix_sums(x))


def _ints(p: list[int], start: int):
    """The integers whose prefix sums are ``p``, from index ``start`` on,
    streamed."""
    return map(sub, islice(p, start + 1, None), islice(p, start, None))


def sma(data, n: int) -> IndicatorSeries:
    """Simple moving average of the previous n values (window ending at i),
    exactly rounded."""
    if n < 1:
        raise ZeroPeriod("sma period must be >= 1")
    column = _column(data)
    x, p, scale = column.values, column.sums, column.scale
    if len(x) < n:
        return IndicatorSeries(list(x), len(x))
    # int / int true division rounds correctly
    means = map(truediv, map(sub, islice(p, n, None), p), repeat(n << scale))
    return IndicatorSeries([*x[: n - 1], *means], n - 1)


def _smooth(x: list[float], weights) -> list[float]:
    """x[0], then prev + w * (v - prev) for each later value v and its weight w:
    the one recurrence of ``ema`` (a fixed weight) and ``ama`` matype 1."""
    if not x:
        return []
    prev = x[0]
    out = [prev]
    append = out.append
    for v, w in zip(islice(x, 1, None), weights):
        prev = prev + w * (v - prev)
        append(prev)
    return out


def ema(data, n: int, s: float = 2.0) -> IndicatorSeries:
    """Exponential moving average with weight K = s/(n+1), seeded at input[0].

    K is capped at 1, so n=1 with the default smoothing returns the input.
    """
    if n < 1:
        raise ZeroPeriod("ema period must be >= 1")
    if s <= 0:
        raise InvalidParams("smoothing factor must be > 0")
    if not math.isfinite(s):
        raise InvalidParams("smoothing factor must be finite")
    x = _values(data)
    num, den = s.as_integer_ratio()
    k = num / (den * (n + 1))  # int / int: no period is too large for it
    if k >= 1.0:
        return IndicatorSeries(list(x), 0)
    return IndicatorSeries(_smooth(x, repeat(k)), min(1, len(x)))


def efficiency_ratio(data, m: int) -> IndicatorSeries:
    """Signed trend-strength ratio in [-1, 1].

    Net change over the last m bars divided by the sum of absolute
    per-bar changes over the same window; zero until a full window
    exists. The denominator is floored at ER_NOISE_FLOOR so flat
    stretches stay defined. Both sums are exact integers of ``_column``
    and each ratio is rounded once; the net change is never larger than
    the noise, so no ratio leaves [-1, 1].
    """
    if m < 1:
        raise ZeroPeriod("efficiency-ratio window must be >= 1")
    column = _column(data)
    p, scale = column.sums, column.scale
    del column  # the values, a copy for a plain sequence, go now
    m = min(m, len(p) - 1)  # a longer window is never full either
    num, den = ER_NOISE_FLOOR.as_integer_ratio()
    floor = num << scale

    # |a[k] - a[k-1]| of the integers a, for k from 1 on: each window's
    # noise is the last one's plus the move that enters less the one that leaves
    moves = list(map(abs, map(sub, _ints(p, 1), _ints(p, 0))))
    signals = map(sub, _ints(p, m), _ints(p, 0))
    noises = accumulate(map(sub, islice(moves, m, None), moves), initial=sum(islice(moves, m)))
    # s / (floor / den) for a noise below the floor; int / int rounds correctly
    ratios = [s / w if w * den >= floor else s * den / floor for s, w in zip(signals, noises)]
    warmup = min(m, len(p) - 1)
    ratios[:0] = repeat(0.0, warmup)  # in place: no second list of n values
    return IndicatorSeries(ratios, warmup)


def adaptive_period(er_value: float, params: AmaParams) -> int:
    """SMA-based AMA window for one efficiency-ratio value.

    Truncated to an integer and always inside [short, long], so at least
    1: ``AmaParams`` holds ``timeperiod_short >= 1``."""
    n1, n2 = params.timeperiod_long, params.timeperiod_short
    return int(n2 + abs(er_value) * (n1 - n2))


def ama(data, params: AmaParams) -> IndicatorSeries:
    """Adaptive moving average, EMA-based (matype 1) or SMA-based (matype 2).

    matype 1: AMA[i] = AMA[i-1] + ssc^2 * (input[i] - AMA[i-1]) where the
    scaled smoothing constant interpolates between the short and long EMA
    constants by |ER|.

    matype 2: the effective window length n2 + |ER|*(n1 - n2) is truncated
    to an integer p and the output is the mean of the p+1 values ending at
    i inclusive; bars before index n1 pass through.
    """
    n1, n2 = params.timeperiod_long, params.timeperiod_short
    column = _column(data)
    er = efficiency_ratio(column, params.ada_win).values
    x, p, scale = column.values, column.sums, column.scale
    if params.matype == 1:
        fast_sc = 2 / (n2 + 1)
        slow_sc = 2 / (n1 + 1)
        diff_sc = fast_sc - slow_sc
        sscs = (slow_sc + abs(e) * diff_sc for e in islice(er, 1, None))
        return IndicatorSeries(_smooth(x, (ssc * ssc for ssc in sscs)), min(1, len(x)))
    out = list(x[:n1])
    for i in range(n1, len(x)):
        period = adaptive_period(er[i], params)
        out.append((p[i + 1] - p[i - period]) / ((period + 1) << scale))
    return IndicatorSeries(out, min(n1, len(x)))


def moving_average(data, spec: MaLike) -> IndicatorSeries:
    if isinstance(spec, AmaParams):
        return ama(data, spec)
    if spec.kind == MA_SMA:
        return sma(data, spec.period)
    return ema(data, spec.period, spec.smoothing)


def ma_reference_period(spec: MaLike) -> int:
    """Nominal window of an MA spec; ties band widths (ATR, sigma) to it."""
    if isinstance(spec, AmaParams):
        return spec.timeperiod_long
    return spec.period


def true_range(series: OhlcvSeries) -> IndicatorSeries:
    """Per-bar range including the overnight gap against the prior close;
    the first bar, which an ``OhlcvSeries`` always has, is its high - low."""
    highs, lows, closes = series.highs, series.lows, series.closes
    out = [highs[0] - lows[0]]
    for i in range(1, len(series)):
        prev_close = closes[i - 1]
        out.append(max(highs[i] - lows[i], highs[i] - prev_close, prev_close - lows[i]))
    return IndicatorSeries(out, 0)


def atr(series: OhlcvSeries, n: int) -> IndicatorSeries:
    """Average true range: simple moving average of the true-range series."""
    return sma(true_range(series), n)


def typical_price(series: OhlcvSeries) -> list[float]:
    return [(h + l + c) / 3.0 for h, l, c in zip(series.highs, series.lows, series.closes)]


def check_band_factor(value: float, name: str) -> None:
    """Refuse a band multiplier or deviation ``name`` that is negative or
    not finite (``InvalidParams``)."""
    if not 0 <= value < math.inf:
        raise InvalidParams(f"{name} must be " + (">= 0" if value < 0 else "finite"))


def offset_bands(middle: IndicatorSeries, width: IndicatorSeries, mult: float) -> BandSet:
    """Bands at middle +/- mult * width, warm once both inputs are.

    A width still in its warm-up is exactly 0.0 (``rolling_std``), so for
    a finite ``mult`` those bars sit on the middle line.
    """
    m, w = middle.values, width.values
    upper = [mi + mult * wi for mi, wi in zip(m, w)]
    lower = [mi - mult * wi for mi, wi in zip(m, w)]
    warmup = max(middle.warmup_len, width.warmup_len)
    return BandSet(
        middle=middle,
        upper=IndicatorSeries(upper, warmup),
        lower=IndicatorSeries(lower, warmup),
    )


def keltner_parts(series: OhlcvSeries, ma_spec: MaLike) -> tuple[IndicatorSeries, IndicatorSeries]:
    """The middle line and the ATR width of a Keltner channel; neither
    depends on the band multiplier. The ATR period follows the MA's
    nominal window."""
    middle = moving_average(typical_price(series), ma_spec)
    return middle, atr(series, ma_reference_period(ma_spec))


def keltner(series: OhlcvSeries, ma_spec: MaLike, mult: float = 2.0) -> BandSet:
    """Volatility channel: an MA of typical price offset by mult * ATR."""
    check_band_factor(mult, "band multiplier")
    return offset_bands(*keltner_parts(series, ma_spec), mult)


def rsi(closes, n: int) -> IndicatorSeries:
    """Relative strength index in [0, 100]: ``rmi`` with a look-back of 1.

    Up/down moves come from consecutive closes. The running averages are
    seeded with the simple means of the first n moves; bars up to and
    including the seed bar report the neutral 50. A zero denominator
    also reports 50.
    """
    if n < 1:
        raise ZeroPeriod("rsi period must be >= 1")
    x = _values(closes)
    if len(x) < 2:
        raise TooShort("rsi needs at least two closes")
    return _rmi(x, n, 1)


def rmi(closes, n: int, m: int) -> IndicatorSeries:
    """Relative momentum index: like rsi but moves compare close[i] with
    close[i-m]. An m of 1 is rsi."""
    if n < 1:
        raise ZeroPeriod("rmi period must be >= 1")
    if m < 1:
        raise ZeroPeriod("rmi look-back must be >= 1")
    x = _values(closes)
    if len(x) <= m:
        raise TooShort("rmi needs more closes than its look-back")
    return _rmi(x, n, m)


def _rmi(x: list[float], n: int, m: int) -> IndicatorSeries:
    """Wilder averages of the up and down moves close[i] - close[i-m],
    seeded with the exactly rounded means of the first n moves."""
    out = [50.0] * len(x)
    if len(x) < m + n:
        return IndicatorSeries(out, len(x))
    moves = zip(islice(x, m, None), x)  # (close[i], close[i-m]) for i >= m
    # the up moves are the positive seed moves, the down moves the others negated
    seed, scale = exact_ints([v - old for v, old in islice(moves, n)])
    up = sum(filter((0).__lt__, seed))
    upavg = up / (n << scale)
    dnavg = (up - sum(seed)) / (n << scale)
    for i, (v, old) in enumerate(moves, m + n):
        if v > old:
            up, dn = v - old, 0.0
        else:
            up, dn = 0.0, old - v
        upavg = (upavg * (n - 1) + up) / n
        dnavg = (dnavg * (n - 1) + dn) / n
        total = upavg + dnavg
        out[i] = 50.0 if total == 0.0 else 100.0 * (upavg / total)
    return IndicatorSeries(out, m + n)


def aroon(series: OhlcvSeries, n: int) -> tuple[IndicatorSeries, IndicatorSeries, IndicatorSeries]:
    """Aroon Up/Down in [0, 100] plus their oscillator in [-100, 100].

    "Periods since" the extreme is counted over the trailing window of
    n+1 bars ending at i (highs for Up, lows for Down); a tied extreme
    resolves to its most recent occurrence.
    """
    if n < 1:
        raise ZeroPeriod("aroon period must be >= 1")
    if len(series) <= n:
        raise TooShort("aroon needs more bars than its period")
    best_high = _recent_argmax(series.highs, n)
    best_low = _recent_argmax([-v for v in series.lows], n)
    up = [100.0 * (n - (i - best)) / n for i, best in enumerate(best_high)]
    down = [100.0 * (n - (i - best)) / n for i, best in enumerate(best_low)]
    warmup = min(n, len(series))
    return (
        IndicatorSeries(up, warmup),
        IndicatorSeries(down, warmup),
        IndicatorSeries(list(map(sub, up, down)), warmup),
    )


def _recent_argmax(values: list[float], n: int) -> list[int]:
    """Index of the most recent maximum of each trailing window of n+1
    values, from a deque of indices whose values strictly decrease."""
    window: deque[int] = deque()
    out: list[int] = []
    for i, v in enumerate(values):
        # popping ties too lets the most recent maximum win
        while window and values[window[-1]] <= v:
            window.pop()
        window.append(i)
        if window[0] < i - n:
            window.popleft()
        out.append(window[0])
    return out


def rolling_std(data, n: int) -> IndicatorSeries:
    """Population standard deviation of the n values ending at i: the
    square root of the exactly rounded variance, or within one step of the
    true root where the variance is below the normal floats. Bars without
    a full window read 0.0."""
    if n < 1:
        raise ZeroPeriod("rolling std period must be >= 1")
    column = _column(data)
    p, scale = column.sums, column.scale
    size = len(p) - 1
    if size < n:
        return IndicatorSeries([0.0] * size, size)

    # new**2 - old**2 == (new - old) * (new + old) streams the sums of
    # squares without a list of squares.
    steps = map(mul, map(sub, _ints(p, n), _ints(p, 0)), map(add, _ints(p, n), _ints(p, 0)))
    head = list(islice(_ints(p, 0), n))
    square_sums = accumulate(steps, initial=sum(map(mul, head, head)))
    sums = map(sub, islice(p, n, None), p)
    # n * sum(x**2) - sum(x)**2 is n**2 times the variance, exact and >= 0
    scaled = map(sub, map(mul, square_sums, repeat(n)), map(pow, sums, repeat(2)))
    den = n * n << 2 * scale
    try:
        if den.bit_length() <= 1022:
            # every positive variance is at least 1 / den, a normal float
            sigma = list(map(math.sqrt, map(truediv, scaled, repeat(den))))
        else:
            sigma = [root_of_ratio(spread, den) for spread in scaled]
    except OverflowError:
        raise DomainError("a window variance exceeds the float range") from None
    return IndicatorSeries([0.0] * (n - 1) + sigma, n - 1)


def bollinger_parts(
    series: OhlcvSeries, window: int | AmaParams
) -> tuple[IndicatorSeries, IndicatorSeries]:
    """The middle line and the rolling sigma of Bollinger bands; neither
    depends on the band deviation.

    A plain integer window uses an SMA middle; AmaParams swap in the
    adaptive middle, with the deviation window tied to its long period.
    """
    if not isinstance(window, AmaParams) and window < 1:
        raise ZeroPeriod("bollinger period must be >= 1")
    tp = _column(typical_price(series))
    if isinstance(window, AmaParams):
        return ama(tp, window), rolling_std(tp, window.timeperiod_long)
    return sma(tp, window), rolling_std(tp, window)


def bollinger(series: OhlcvSeries, window: int | AmaParams, dev: float = 2.0) -> BandSet:
    """Bands around a moving average of typical price, offset by dev
    population standard deviations of typical price."""
    check_band_factor(dev, "dev")
    return offset_bands(*bollinger_parts(series, window), dev)


def macd(
    closes, short_n: int = 12, long_n: int = 26, signal_n: int = 9
) -> tuple[IndicatorSeries, IndicatorSeries, IndicatorSeries]:
    """MACD line (short EMA minus long EMA), its SMA signal line, and the
    histogram macd - signal."""
    for period in (short_n, long_n, signal_n):
        if period < 1:
            raise ZeroPeriod("macd periods must be >= 1")
    fast = ema(closes, short_n).values
    slow = ema(closes, long_n).values
    line = IndicatorSeries([f - s for f, s in zip(fast, slow)], min(1, len(fast)))
    signal = sma(line, signal_n)
    signal_warmup = max(line.warmup_len, signal.warmup_len)
    hist = [m - s for m, s in zip(line.values, signal.values)]
    return line, IndicatorSeries(signal.values, signal_warmup), IndicatorSeries(hist, signal_warmup)

