"""Deterministic indicator kernels over aligned daily series.

Every kernel returns a series of exactly the input length. Leading bars
without a full window are passed through unchanged (never NaN) and
reported via ``warmup_len``. All kernels are pure functions of their
inputs, so repeated runs are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidParams, TooShort, ZeroPeriod
from .market_data import OhlcvSeries

# Floor for the efficiency-ratio noise denominator on flat stretches.
ER_NOISE_FLOOR = 1e-4

MA_SMA = "sma"
MA_EMA = "ema"


@dataclass(frozen=True)
class IndicatorSeries:
    """Per-bar values aligned 1:1 with the input; first warmup_len entries
    are pass-through/seed values rather than fully formed outputs."""

    values: list[float]
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
        return data.closes
    return [float(v) for v in data]


def sma(data, n: int) -> IndicatorSeries:
    """Simple moving average of the previous n values (window ending at i)."""
    if n < 1:
        raise ZeroPeriod("sma period must be >= 1")
    x = _values(data)
    out: list[float] = []
    for i, v in enumerate(x):
        if i < n - 1:
            out.append(v)
        else:
            out.append(sum(x[i - n + 1 : i + 1]) / n)
    return IndicatorSeries(out, min(n - 1, len(x)))


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
    out: list[float] = []
    for i, v in enumerate(x):
        if i == 0:
            out.append(v)
        else:
            prev = out[i - 1]
            out.append(prev + k * (v - prev))
    return IndicatorSeries(out, min(1, len(x)))


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
    out: list[float] = []
    if params.matype == 1:
        fast_sc = 2.0 / (n2 + 1)
        slow_sc = 2.0 / (n1 + 1)
        diff_sc = fast_sc - slow_sc
        for i, v in enumerate(x):
            if i == 0:
                out.append(v)
                continue
            ssc = slow_sc + abs(er[i]) * diff_sc
            prev = out[i - 1]
            out.append(prev + (ssc * ssc) * (v - prev))
        return IndicatorSeries(out, min(1, len(x)))
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


def offset_bands(
    middle: IndicatorSeries, width: IndicatorSeries, mult: float, flat: int = 0
) -> BandSet:
    """Bands at middle +/- mult * width, warm once both inputs are.

    The first ``flat`` bars have no width yet and sit on the middle line.
    """
    m, w = middle.values, width.values
    upper = m[:flat] + [mi + mult * wi for mi, wi in zip(m[flat:], w[flat:])]
    lower = m[:flat] + [mi - mult * wi for mi, wi in zip(m[flat:], w[flat:])]
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
    if mult < 0:
        raise InvalidParams("band multiplier must be >= 0")
    return offset_bands(*keltner_parts(series, ma_spec), mult)


def rsi(closes, n: int) -> IndicatorSeries:
    """Relative strength index in [0, 100].

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
    out = [50.0] * len(x)
    if len(x) <= n:
        return IndicatorSeries(out, len(x))
    ups: list[float] = []
    downs: list[float] = []
    for i in range(1, n + 1):
        if x[i] > x[i - 1]:
            ups.append(x[i] - x[i - 1])
            downs.append(0.0)
        else:
            ups.append(0.0)
            downs.append(x[i - 1] - x[i])
    upavg = sum(ups) / n
    dnavg = sum(downs) / n
    for i in range(n + 1, len(x)):
        if x[i] > x[i - 1]:
            up, dn = x[i] - x[i - 1], 0.0
        else:
            up, dn = 0.0, x[i - 1] - x[i]
        upavg = (upavg * (n - 1) + up) / n
        dnavg = (dnavg * (n - 1) + dn) / n
        total = upavg + dnavg
        out[i] = 50.0 if total == 0.0 else 100.0 * (upavg / total)
    return IndicatorSeries(out, min(n + 1, len(x)))


def rmi(closes, n: int, m: int) -> IndicatorSeries:
    """Relative momentum index: like rsi but moves compare close[i] with
    close[i-m]. An m of 1 reproduces rsi exactly."""
    if n < 1:
        raise ZeroPeriod("rmi period must be >= 1")
    if m < 1:
        raise ZeroPeriod("rmi look-back must be >= 1")
    x = _values(closes)
    if len(x) <= m:
        raise TooShort("rmi needs more closes than its look-back")
    out = [50.0] * len(x)
    if len(x) <= m + n - 1:
        return IndicatorSeries(out, len(x))
    ups: list[float] = []
    downs: list[float] = []
    for i in range(m, m + n):
        if x[i] > x[i - m]:
            ups.append(x[i] - x[i - m])
            downs.append(0.0)
        else:
            ups.append(0.0)
            downs.append(x[i - m] - x[i])
    upavg = sum(ups) / n
    dnavg = sum(downs) / n
    for i in range(m + n, len(x)):
        if x[i] > x[i - m]:
            up, dn = x[i] - x[i - m], 0.0
        else:
            up, dn = 0.0, x[i - m] - x[i]
        upavg = (upavg * (n - 1) + up) / n
        dnavg = (dnavg * (n - 1) + dn) / n
        total = upavg + dnavg
        out[i] = 50.0 if total == 0.0 else 100.0 * (upavg / total)
    return IndicatorSeries(out, min(m + n, len(x)))


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
    highs, lows = series.highs, series.lows
    up: list[float] = []
    down: list[float] = []
    osc: list[float] = []
    for i in range(len(series)):
        lo = max(0, i - n)
        best_high = best_low = lo
        for k in range(lo, i + 1):
            if highs[k] >= highs[best_high]:
                best_high = k
            if lows[k] <= lows[best_low]:
                best_low = k
        up_i = 100.0 * (n - (i - best_high)) / n
        down_i = 100.0 * (n - (i - best_low)) / n
        up.append(up_i)
        down.append(down_i)
        osc.append(up_i - down_i)
    warmup = min(n, len(series))
    return (
        IndicatorSeries(up, warmup),
        IndicatorSeries(down, warmup),
        IndicatorSeries(osc, warmup),
    )


def _window_std(window: Sequence[float]) -> float:
    mean = sum(window) / len(window)
    var = sum((v - mean) ** 2 for v in window) / len(window)
    return var ** 0.5


def rolling_std(data, n: int) -> IndicatorSeries:
    """Population standard deviation of the n values ending at i; bars
    without a full window read 0.0."""
    if n < 1:
        raise ZeroPeriod("rolling std period must be >= 1")
    x = _values(data)
    out = [0.0] * len(x)
    for i in range(n - 1, len(x)):
        out[i] = _window_std(x[i - n + 1 : i + 1])
    return IndicatorSeries(out, min(n - 1, len(x)))


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
    return sma(tp, window), rolling_std(tp, window)


def bollinger_bands(middle: IndicatorSeries, sigma: IndicatorSeries, dev: float) -> BandSet:
    """Bollinger bands from ``bollinger_parts``: the bars before sigma's
    first full window pass through with zero width."""
    return offset_bands(middle, sigma, dev, flat=sigma.warmup_len)


def bollinger(series: OhlcvSeries, window: int | AmaParams, dev: float = 2.0) -> BandSet:
    """Bands around a moving average of typical price, offset by dev
    population standard deviations of typical price."""
    if dev < 0:
        raise InvalidParams("dev must be >= 0")
    return bollinger_bands(*bollinger_parts(series, window), dev)


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


def dump_csv(indicator: IndicatorSeries, target) -> None:
    """Write `index,value` rows for plotting."""
    from pathlib import Path as _Path

    own = isinstance(target, (str, _Path))
    handle = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        handle.write("index,value\n")
        for i, v in enumerate(indicator.values):
            handle.write(f"{i},{v!r}\n")
    finally:
        if own:
            handle.close()
