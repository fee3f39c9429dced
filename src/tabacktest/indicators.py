"""Deterministic indicator kernels over aligned daily series.

Every kernel returns a series of exactly the input length. Leading bars
without a full window are passed through unchanged (never NaN) and
reported via ``warmup_len``. All kernels are pure functions of their
inputs, so repeated runs are bit-identical.

``sma`` and ``rolling_std`` run in O(n) on exact integer window sums,
each one difference of prefix sums (``_exact.prefix_sums``); a series
builds the prefix sums of its closes once (``OhlcvSeries.close_sums``),
however many windows read them. Each SMA value is the exactly rounded
window mean, and each sigma is the correctly rounded square root of the
exactly rounded population variance, on every interpreter. ``aroon``
finds its window extremes with a monotonic deque of indices (Lemire 2006).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import add, mul, sub, truediv
from typing import Sequence

from ._exact import prefix_sums, root_of_ratio
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

    def __getitem__(self, i: int) -> float:
        return self.values[i]


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


def _values(data) -> list[float]:
    """Accept an IndicatorSeries, an OHLCV series (closes), or any sequence."""
    if isinstance(data, IndicatorSeries):
        return data.values
    if isinstance(data, OhlcvSeries):
        return list(data.closes)
    return [float(v) for v in data]


def _column(data) -> tuple[Sequence[float], list[int], int]:
    """The values of ``data`` with the prefix sums of their integers and
    the scale (``_exact.prefix_sums``); a series' closes keep theirs."""
    if isinstance(data, OhlcvSeries):
        return (data.closes, *data.close_sums)
    x = _values(data)
    return (x, *prefix_sums(x))


def _sma(x: Sequence[float], p: list[int], scale: int, n: int) -> IndicatorSeries:
    if len(x) < n:
        return IndicatorSeries(list(x), len(x))
    # int / int true division rounds correctly
    means = map(truediv, map(sub, islice(p, n, None), p), repeat(n << scale))
    return IndicatorSeries([*x[: n - 1], *means], n - 1)


def sma(data, n: int) -> IndicatorSeries:
    """Simple moving average of the previous n values (window ending at i),
    exactly rounded."""
    if n < 1:
        raise ZeroPeriod("sma period must be >= 1")
    return _sma(*_column(data), n)


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
    x = _values(data)
    k = s / (n + 1)
    if k >= 1.0:
        return IndicatorSeries(list(x), 0)
    return IndicatorSeries(_smooth(x, repeat(k)), min(1, len(x)))


def efficiency_ratio(data, m: int) -> IndicatorSeries:
    """Signed trend-strength ratio in [-1, 1].

    Net change over the last m bars divided by the sum of absolute
    per-bar changes over the same window; zero until a full window
    exists. The denominator is floored at ER_NOISE_FLOOR so flat
    stretches stay defined.
    """
    if m < 1:
        raise ZeroPeriod("efficiency-ratio window must be >= 1")
    x = _values(data)
    out = [0.0] * len(x)
    for i in range(m, len(x)):
        signal = x[i] - x[i - m]
        noise = 0.0
        for k in range(i - m + 1, i + 1):
            noise += abs(x[k] - x[k - 1])
        if noise < ER_NOISE_FLOOR:
            noise = ER_NOISE_FLOOR
        out[i] = max(-1.0, min(1.0, signal / noise))
    return IndicatorSeries(out, min(m, len(x)))


def adaptive_period(er_value: float, params: AmaParams) -> int:
    """SMA-based AMA window for one efficiency-ratio value.

    Truncated to an integer and always inside [short, long]."""
    n1, n2 = params.timeperiod_long, params.timeperiod_short
    period = int(n2 + abs(er_value) * (n1 - n2))
    return period if period >= 1 else 1


def ama(data, params: AmaParams) -> IndicatorSeries:
    """Adaptive moving average, EMA-based (matype 1) or SMA-based (matype 2).

    matype 1: AMA[i] = AMA[i-1] + ssc^2 * (input[i] - AMA[i-1]) where the
    scaled smoothing constant interpolates between the short and long EMA
    constants by |ER|.

    matype 2: the effective window length n2 + |ER|*(n1 - n2) is truncated
    to an integer p and the output is the mean of the p+1 values ending at
    i inclusive; bars before index n1 pass through.
    """
    x = _values(data)
    n1, n2 = params.timeperiod_long, params.timeperiod_short
    er = efficiency_ratio(x, params.ada_win).values
    if params.matype == 1:
        fast_sc = 2.0 / (n2 + 1)
        slow_sc = 2.0 / (n1 + 1)
        diff_sc = fast_sc - slow_sc
        sscs = (slow_sc + abs(e) * diff_sc for e in islice(er, 1, None))
        return IndicatorSeries(_smooth(x, (ssc * ssc for ssc in sscs)), min(1, len(x)))
    out: list[float] = []
    for i, v in enumerate(x):
        if i < n1:
            out.append(v)
            continue
        period = adaptive_period(er[i], params)
        window = x[i - period : i + 1]
        out.append(sum(window) / len(window))
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
    """Per-bar range including the overnight gap against the prior close."""
    if len(series) < 1:
        raise TooShort("true_range needs at least one bar")
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
    if not 0 <= mult < math.inf:
        raise InvalidParams("band multiplier must be " + (">= 0" if mult < 0 else "finite"))
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
    seeded with the simple means of the first n moves."""
    out = [50.0] * len(x)
    if len(x) < m + n:
        return IndicatorSeries(out, len(x))
    moves = zip(islice(x, m, None), x)  # (close[i], close[i-m]) for i >= m
    ups: list[float] = []
    downs: list[float] = []
    for v, old in islice(moves, n):
        if v > old:
            ups.append(v - old)
            downs.append(0.0)
        else:
            ups.append(0.0)
            downs.append(old - v)
    upavg = sum(ups) / n
    dnavg = sum(downs) / n
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


def _rolling_std(p: list[int], scale: int, n: int) -> IndicatorSeries:
    size = len(p) - 1
    if size < n:
        return IndicatorSeries([0.0] * size, size)

    def ints(start: int):
        """The integers from index ``start`` on, streamed from ``p``."""
        return map(sub, islice(p, start + 1, None), islice(p, start, None))

    # new**2 - old**2 == (new - old) * (new + old) streams the sums of
    # squares without a list of squares.
    steps = map(mul, map(sub, ints(n), ints(0)), map(add, ints(n), ints(0)))
    head = list(islice(ints(0), n))
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


def rolling_std(data, n: int) -> IndicatorSeries:
    """Population standard deviation of the n values ending at i: the
    square root of the exactly rounded variance, or within one step of the
    true root where the variance is below the normal floats. Bars without
    a full window read 0.0."""
    if n < 1:
        raise ZeroPeriod("rolling std period must be >= 1")
    _, p, scale = _column(data)
    return _rolling_std(p, scale, n)


def bollinger_parts(
    series: OhlcvSeries, window: int | AmaParams
) -> tuple[IndicatorSeries, IndicatorSeries]:
    """The middle line and the rolling sigma of Bollinger bands; neither
    depends on the band deviation.

    A plain integer window uses an SMA middle; AmaParams swap in the
    adaptive middle, with the deviation window tied to its long period.
    """
    tp = typical_price(series)
    if isinstance(window, AmaParams):
        return ama(tp, window), rolling_std(tp, window.timeperiod_long)
    if window < 1:
        raise ZeroPeriod("bollinger period must be >= 1")
    p, scale = prefix_sums(tp)
    return _sma(tp, p, scale, window), _rolling_std(p, scale, window)


def bollinger(series: OhlcvSeries, window: int | AmaParams, dev: float = 2.0) -> BandSet:
    """Bands around a moving average of typical price, offset by dev
    population standard deviations of typical price."""
    if not 0 <= dev < math.inf:
        raise InvalidParams("dev must be " + (">= 0" if dev < 0 else "finite"))
    return offset_bands(*bollinger_parts(series, window), dev)


def macd(
    closes, short_n: int = 12, long_n: int = 26, signal_n: int = 9
) -> tuple[IndicatorSeries, IndicatorSeries, IndicatorSeries]:
    """MACD line (short EMA minus long EMA), its SMA signal line, and the
    histogram macd - signal."""
    for period in (short_n, long_n, signal_n):
        if period < 1:
            raise ZeroPeriod("macd periods must be >= 1")
    x = _values(closes)
    fast = ema(x, short_n).values
    slow = ema(x, long_n).values
    line = [f - s for f, s in zip(fast, slow)]
    line_warmup = min(1, len(x))
    signal = sma(line, signal_n)
    signal_warmup = max(line_warmup, signal.warmup_len)
    hist = [m - s for m, s in zip(line, signal.values)]
    return (
        IndicatorSeries(line, line_warmup),
        IndicatorSeries(signal.values, signal_warmup),
        IndicatorSeries(hist, signal_warmup),
    )

