"""Naive reference implementations used to check the engine kernels.

Everything here recomputes results from the definitions with no code
shared with the package, trading speed for obviousness. The one
exception is ``reference_signals``, which reads its indicator lines from
the package's kernels so that only the per-bar signal logic is compared.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import math
import sys
from fractions import Fraction

import numpy as np


def naive_sma(x, n):
    out = []
    for i in range(len(x)):
        if i + 1 < n:
            out.append(x[i])
        else:
            window = [x[j] for j in range(i - n + 1, i + 1)]
            total = 0.0
            for v in window:
                total += v
            out.append(total / n)
    return out


def naive_ema(x, n, s=2.0):
    k = s / (n + 1)
    if k > 1.0:
        k = 1.0
    out = []
    for i, v in enumerate(x):
        if i == 0:
            out.append(v)
        else:
            out.append(k * v + (1.0 - k) * out[-1])
    return out


def naive_er(x, m, floor=1e-4):
    out = [0.0] * len(x)
    for i in range(m, len(x)):
        signal = x[i] - x[i - m]
        noise = sum(abs(x[k] - x[k - 1]) for k in range(i - m + 1, i + 1))
        denominator = noise if noise >= floor else floor
        ratio = signal / denominator
        out[i] = min(1.0, max(-1.0, ratio))
    return out


def naive_ama1(x, long_n, short_n, ada_win):
    er = naive_er(x, ada_win)
    fast_sc = 2.0 / (short_n + 1)
    slow_sc = 2.0 / (long_n + 1)
    out = []
    for i, v in enumerate(x):
        if i == 0:
            out.append(v)
            continue
        ssc = abs(er[i]) * (fast_sc - slow_sc) + slow_sc
        weight = math.pow(ssc, 2)
        out.append(out[-1] + weight * (v - out[-1]))
    return out


def naive_ama2(x, long_n, short_n, ada_win):
    er = naive_er(x, ada_win)
    out = []
    for i, v in enumerate(x):
        if i < long_n:
            out.append(v)
            continue
        period = int(short_n + abs(er[i]) * (long_n - short_n))
        if period < 1:
            period = 1
        window = [x[j] for j in range(i - period, i + 1)]
        out.append(sum(window) / len(window))
    return out


def rsi_transcription(closes, n):
    """Line-by-line port of the up/down averaging recurrence, seeded with
    simple means of the first n moves; bars through the seed report 50."""
    out = [50.0] * len(closes)
    if len(closes) <= n:
        return out
    moves = [closes[i] - closes[i - 1] for i in range(1, n + 1)]
    upavg = sum(m if m > 0 else 0.0 for m in moves) / n
    dnavg = sum(-m if m <= 0 else 0.0 for m in moves) / n
    for i in range(n + 1, len(closes)):
        if closes[i] > closes[i - 1]:
            up = closes[i] - closes[i - 1]
            dn = 0.0
        else:
            up = 0.0
            dn = closes[i - 1] - closes[i]
        upavg = (upavg * (n - 1) + up) / n
        dnavg = (dnavg * (n - 1) + dn) / n
        if upavg + dnavg == 0.0:
            out[i] = 50.0
        else:
            out[i] = 100.0 * upavg / (upavg + dnavg)
    return out


def naive_rmi(closes, n, m):
    """Relative momentum index from its definition, in exact rationals.

    The move at bar i >= m is close[i] - close[i-m]; U and D are its
    positive and negative parts. Each average starts as the mean of the
    first n of them and then steps to (avg * (n-1) + move) / n. Bars
    before m+n read 50, as does a bar whose U + D average is zero;
    every other bar reads 100 * U / (U + D). RSI is the m = 1 case.
    """
    c = [Fraction(v) for v in closes]
    moves = [c[i] - c[i - m] for i in range(m, len(c))]
    out = [50.0] * len(c)
    up = sum(max(d, 0) for d in moves[:n]) / n
    down = sum(max(-d, 0) for d in moves[:n]) / n
    for i in range(m + n, len(c)):
        d = moves[i - m]
        up = (up * (n - 1) + max(d, 0)) / n
        down = (down * (n - 1) + max(-d, 0)) / n
        if up + down != 0:
            out[i] = float(100 * up / (up + down))
    return out


def naive_aroon(highs, lows, n):
    ups, downs = [], []
    for i in range(len(highs)):
        lo = max(0, i - n)
        window_h = highs[lo : i + 1]
        window_l = lows[lo : i + 1]
        # most recent occurrence of the extreme wins
        since_high = (len(window_h) - 1) - max(
            idx for idx, v in enumerate(window_h) if v == max(window_h)
        )
        since_low = (len(window_l) - 1) - max(
            idx for idx, v in enumerate(window_l) if v == min(window_l)
        )
        ups.append(100.0 * (n - since_high) / n)
        downs.append(100.0 * (n - since_low) / n)
    return ups, downs


def naive_population_std(xs):
    mean = sum(xs) / len(xs)
    return math.sqrt(sum((v - mean) ** 2 for v in xs) / len(xs))


def exact_sma(x, n):
    """Each full window's mean in rational arithmetic, rounded once to a
    float; bars before the first full window pass through."""
    out = []
    for i in range(len(x)):
        if i + 1 < n:
            out.append(x[i])
        else:
            out.append(float(sum(Fraction(v) for v in x[i - n + 1 : i + 1]) / n))
    return out


def exact_population_std(xs):
    """Square root of the population variance, which is computed in
    rational arithmetic and rounded once to a float, the root rounded once.

    A variance that rounds below the normal floats would lose bits there,
    and its root need not: as in the kernels' contract, it is rounded to
    53 bits at the scale 2**1200 instead, where the nonzero variance of
    any window of fewer than 2**37 floats is a normal float, and its root
    is scaled back by 2**-600, which is exact.
    """
    mean = sum(Fraction(v) for v in xs) / len(xs)
    variance = sum((Fraction(v) - mean) ** 2 for v in xs) / len(xs)
    if variance and float(variance) < sys.float_info.min:
        return math.ldexp(math.sqrt(float(variance * 2**1200)), -600)
    return math.sqrt(float(variance))


def naive_bollinger(tp, n, dev):
    middle = naive_sma(tp, n)
    upper, lower = [], []
    for i in range(len(tp)):
        if i + 1 < n:
            upper.append(middle[i])
            lower.append(middle[i])
        else:
            sigma = naive_population_std(tp[i - n + 1 : i + 1])
            upper.append(middle[i] + dev * sigma)
            lower.append(middle[i] - dev * sigma)
    return middle, upper, lower


def naive_true_range(highs, lows, closes):
    out = [highs[0] - lows[0]]
    for i in range(1, len(highs)):
        out.append(max(
            highs[i] - lows[i],
            highs[i] - closes[i - 1],
            closes[i - 1] - lows[i],
        ))
    return out


def kelly_log_growth(x, p, l_gain, m_loss):
    """Expected log growth p*ln(1 + L*x) + q*ln(1 - M*x) of betting fraction x,
    where a win (probability p) gains L per unit staked and a loss costs M."""
    q = 1.0 - p
    return p * math.log1p(l_gain * x) + q * math.log1p(-m_loss * x)


def brute_force_mdd(values):
    """O(n^2) maximum of (v[i] - v[j]) / v[i] over all i < j, floored at 0."""
    v = np.asarray(values, dtype=np.float64)
    n = v.shape[0]
    if n < 2:
        return 0.0
    diffs = (v[:, None] - v[None, :]) / v[:, None]
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    worst = float(diffs[mask].max())
    return worst if worst > 0.0 else 0.0


def numpy_sharpe(returns, rf=0.0, trading_days=252):
    r = np.asarray(returns, dtype=np.float64)
    return float((np.mean(r) - rf) / np.std(r) * np.sqrt(trading_days))


def numpy_information_ratio(returns, benchmark, trading_days=252):
    diff = np.asarray(returns, dtype=np.float64) - np.asarray(benchmark, dtype=np.float64)
    return float(np.mean(diff) / np.std(diff) * np.sqrt(trading_days))


def cross_scan(fast, slow, start):
    """Brute-force strict-cross state machine; returns (index, action) pairs."""
    events = []
    holding = False
    for i in range(start, len(fast)):
        if fast[i - 1] < slow[i - 1] and fast[i] > slow[i] and not holding:
            events.append((i, "Buy"))
            holding = True
        elif fast[i - 1] > slow[i - 1] and fast[i] < slow[i] and holding:
            events.append((i, "Sell"))
            holding = False
    return events


def naive_equity(closes, signal_pairs, length):
    """Recompute the strategy curve trade by trade from close ratios.

    signal_pairs: list of (entry, exit-or-None) bar indices.
    """
    if not signal_pairs:
        return [closes[0]] * length
    initial = closes[signal_pairs[0][0]]
    values = [initial] * length
    level = initial
    for entry, exit_index in signal_pairs:
        stop = exit_index if exit_index is not None else length - 1
        for i in range(entry + 1, stop + 1):
            level = level * closes[i] / closes[i - 1]
            values[i] = level
        for i in range(stop + 1, length):
            values[i] = level
    return values


class OracleMetricError(Exception):
    """Outcome of ``naive_report`` on a failing case: the package's error
    class name (``kind``) and message."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def _naive_daily_returns(values):
    if len(values) < 2:
        raise OracleMetricError("TooShort", "need at least two values for returns")
    out = []
    for i in range(1, len(values)):
        prev, cur = values[i - 1], values[i]
        if prev <= 0 or cur <= 0 or not (math.isfinite(prev) and math.isfinite(cur)):
            raise OracleMetricError("NonPositivePrice", f"non-positive price at index {i}")
        out.append(cur / prev - 1.0)
    # every value is checked before any return
    for i, r in enumerate(out, start=1):
        if not math.isfinite(r):
            raise OracleMetricError("DomainError", f"daily return at index {i} is not finite")
    return out


def _naive_moments(xs):
    """Mean and population variance of the exact values ``xs`` in rational
    arithmetic: the mean rounded once, the standard deviation as the square
    root of the variance rounded once to 53 bits, and the exact variance.

    A variance below the normal floats is rounded to 53 bits at 2**1200
    times its size, and the root of that scaled back by 2**-600."""
    mean = sum(xs, Fraction(0)) / len(xs)
    variance = sum(((x - mean) ** 2 for x in xs), Fraction(0)) / len(xs)
    try:
        if 0 < variance < Fraction(2) ** -1022:
            return float(mean), math.ldexp(math.sqrt(float(variance * 2**1200)), -600), variance
        return float(mean), math.sqrt(float(variance)), variance
    except OverflowError:
        raise OracleMetricError("DomainError", "a variance exceeds the float range") from None


def _naive_ratio(mean, std, variance, trading_days):
    if variance == 0:
        return None
    return mean / std * math.sqrt(trading_days)


def naive_report(closes, signals, benchmark_closes, trading_days):
    """The measure block (``MetricReport.to_dict()``) of backtesting
    ``signals`` on ``closes``, by dense per-bar loops over the whole curve.

    ``signals`` is a valid alternating list of ``(bar, "Buy"|"Sell")``
    pairs. Every bar of the equity curve is materialised, flat or not, and
    every measure is a plain loop over it, the moments in rational
    arithmetic rounded once (the information ratio's over the exact
    differences ``r - b``): the reference the package's measure block and
    sweep rows must equal bit for bit. A failure raises
    ``OracleMetricError`` with the package's error kind, in the order the
    package checks them.
    """
    n = len(closes)
    bars = [bar for bar, _ in signals]
    pairs = [(bars[k], bars[k + 1] if k + 1 < len(bars) else None)
             for k in range(0, len(bars), 2)]
    if not pairs:
        initial = closes[0]
        values = [initial] * n
    else:
        exposed = [False] * n
        for entry, exit_index in pairs:
            stop = exit_index if exit_index is not None else n - 1
            for i in range(entry + 1, stop + 1):
                exposed[i] = True
        first_buy = pairs[0][0]
        initial = closes[first_buy]
        values = [initial] * n
        for i in range(first_buy + 1, n):
            if exposed[i]:
                values[i] = values[i - 1] * (closes[i] / closes[i - 1])
            else:
                values[i] = values[i - 1]
    final = values[-1]
    returns = _naive_daily_returns(values)
    benchmark_returns = _naive_daily_returns(benchmark_closes)
    rr_whole = final / initial
    years = n / trading_days
    try:
        rr_per_year = rr_whole ** (1.0 / years)
    except OverflowError:
        raise OracleMetricError("DomainError", "rr_per_year overflows") from None
    rr_by_year = []
    prev, start = initial, 0
    while start < n:
        end = min(start + trading_days, n)
        rr_by_year.append(values[end - 1] / prev)
        prev, start = values[end - 1], end
    if len(returns) < 2:
        raise OracleMetricError("TooShort", "need at least two returns")
    if len(returns) != len(benchmark_returns):
        raise OracleMetricError("LengthMismatch", "returns and benchmark returns differ in length")
    fit_mean, fit_std, fit_variance = _naive_moments([Fraction(r) for r in returns])
    # the information ratio's moments are those of the exact differences
    diff = [Fraction(r) - Fraction(b) for r, b in zip(returns, benchmark_returns)]
    diff_mean, diff_std, diff_variance = _naive_moments(diff)
    peak, mdd = values[0], 0.0
    for v in values:
        if v > peak:
            peak = v
        if (peak - v) / peak > mdd:
            mdd = (peak - v) / peak
    return {
        "initial_price": initial,
        "final_price": final,
        "rr_whole": rr_whole,
        "rr_per_year": rr_per_year,
        "rr_by_year": rr_by_year,
        "buy_count": len(pairs),
        "max_rate": max(rr_by_year),
        "min_rate": min(rr_by_year),
        "mdd": mdd,
        "sr": _naive_ratio(fit_mean, fit_std, fit_variance, trading_days),
        "ir": _naive_ratio(diff_mean, diff_std, diff_variance, trading_days),
        "vol_annual": fit_std * math.sqrt(trading_days),
        "return_fit_mean": fit_mean,
        "return_fit_std": fit_std,
    }


class OracleParseError(Exception):
    """Outcome of ``naive_parse`` on a rejected input: the package's error
    class name and the 1-based data row (None when no row is to blame)."""

    def __init__(self, kind, row=None):
        super().__init__(kind, row)
        self.kind = kind
        self.row = row


def naive_parse(text, mode, use_adjusted=False):
    """Row-by-row parse of a daily OHLCV CSV, following the rules stated in
    the ``parse_csv`` docstring one at a time.

    Returns ``(rows, warnings)`` with rows as (date, open, high, low, close,
    volume) tuples, or raises ``OracleParseError``.
    """
    records = list(csv.reader(io.StringIO(text)))
    if not records:
        raise OracleParseError("EmptySeries")
    names = [name.strip().lower() for name in records[0]]
    needed = ["date", "open", "high", "low", "close", "volume"]
    if use_adjusted:
        needed.append("adj_close")
    if any(name not in names for name in needed):
        raise OracleParseError("MissingColumn")
    close_name = "adj_close" if use_adjusted else "close"
    strict = mode == "strict"

    def cell(record, name):
        position = names.index(name)
        return record[position].strip() if position < len(record) else ""

    rows = []
    warnings = 0
    last_date = None
    for number, record in enumerate(records[1:], start=1):
        if all(not c.strip() for c in record):
            continue
        texts = [cell(record, name) for name in ("open", "high", "low", close_name)]
        try:
            if all(t == "" for t in texts):
                raise ValueError("no prices")
            date = dt.date.fromisoformat(cell(record, "date"))
            prices = [float(t) for t in texts]
            volume = float(cell(record, "volume"))
            if not all(math.isfinite(p) for p in prices):
                raise ValueError("non-finite price")
            if not math.isfinite(volume) or volume != math.floor(volume):
                raise ValueError("volume is no whole number")
        except ValueError:
            if strict:
                raise OracleParseError("UnparsableRow", number) from None
            warnings += 1
            continue
        if last_date is not None and date <= last_date:
            raise OracleParseError("NonMonotonicDates", number)
        last_date = date
        if any(p <= 0.0 for p in prices):
            if strict:
                raise OracleParseError("InvariantViolation", number)
            warnings += 1
            continue
        open_, high, low, close = prices
        volume = int(volume)
        remedies = 0
        if low > high:
            low, high = high, low
            remedies += 1
        if open_ < low or open_ > high:
            open_ = low if open_ < low else high
            remedies += 1
        if close < low or close > high:
            close = low if close < low else high
            remedies += 1
        if volume < 0:
            volume = 0
            remedies += 1
        if remedies and strict:
            raise OracleParseError("InvariantViolation", number)
        warnings += remedies
        rows.append((date, open_, high, low, close, volume))
    if not rows:
        raise OracleParseError("EmptySeries")
    return rows, warnings


def _scan(bars, enter, leave):
    """Alternating (bar, action) events; the exit test is not evaluated on a
    bar whose entry test held."""
    events, holding = [], False
    for i in bars:
        if enter(i):
            if not holding:
                events.append((i, "Buy"))
                holding = True
        elif leave(i):
            if holding:
                events.append((i, "Sell"))
                holding = False
    return events


def _line_scan(fast, slow, start):
    return _scan(range(start, len(fast)),
                 lambda i: fast[i - 1] < slow[i - 1] and fast[i] > slow[i],
                 lambda i: fast[i - 1] > slow[i - 1] and fast[i] < slow[i])


def _rsi_scan(closes, strength, line, c):
    """The RSI loop: the rate test sits inside the oversold/overbought test,
    so a bar that is oversold but falls too fast still skips the exit test."""
    events, holding = [], False
    for i in range(60, len(closes) - 1):
        if c.rsitype == 1:
            oversold_gate = overbought_gate = True
        else:
            oversold_gate = closes[i] < (1 - c.sma_rate) * line[i]
            overbought_gate = closes[i] > (1 + c.sma_rate) * line[i]
        if strength[i] < c.down_thres and oversold_gate:
            if 0 <= (closes[i - 1] - closes[i]) / closes[i - 1] <= c.diff_rate and not holding:
                events.append((i, "Buy"))
                holding = True
        elif strength[i] > c.upper_thres and overbought_gate:
            if 0 <= (closes[i] - closes[i - 1]) / closes[i - 1] <= c.diff_rate and holding:
                events.append((i, "Sell"))
                holding = False
    return events


def _aroon_scan(up, down, c):
    """The Aroon loop: being flat is part of the entry test itself."""
    events, holding = [], False
    for i in range(60, len(up) - 1):
        buy_gate = c.aroon_type == 1 or down[i] < c.weak_thres
        sell_gate = c.aroon_type == 1 or up[i] < c.weak_thres
        if up[i - 1] < down[i - 1] and up[i] > down[i] and buy_gate and not holding:
            events.append((i, "Buy"))
            holding = True
        elif up[i - 1] > down[i - 1] and up[i] < down[i] and sell_gate and holding:
            events.append((i, "Sell"))
            holding = False
    return events


def reference_signals(series, config):
    """(bar, action) signals of one strategy config, from a plain per-strategy
    loop: scan ranges, warm-ups, cross and band conventions as the engine
    documents them. Raises the engine's TooShort where the engine must."""
    from tabacktest import indicators as ind
    from tabacktest.errors import TooShort

    closes = series.closes
    kind = type(config).__name__

    def warm(start):
        if len(closes) <= start:
            raise TooShort("series shorter than the warm-up")
        return start

    if kind == "TwoAverageConfig":
        fast = ind.moving_average(closes, config.fast)
        slow = ind.moving_average(closes, config.slow)
        return _line_scan(fast.values, slow.values, warm(max(fast.warmup_len, slow.warmup_len) + 1))
    if kind == "PriceCrossConfig":
        line = ind.moving_average(closes, config.ma)
        return _line_scan(closes, line.values, warm(line.warmup_len + 1))
    if kind == "MacdConfig":
        line, signal, _ = ind.macd(closes, config.short_n, config.long_n, config.signal_n)
        return _line_scan(line.values, signal.values, warm(max(line.warmup_len, signal.warmup_len) + 1))
    if kind in ("KeltnerConfig", "BollingerConfig"):
        if kind == "KeltnerConfig":
            bands = ind.keltner(series, config.ma, config.mult)
        else:
            bands = ind.bollinger(series, config.window, config.dev)
        upper, lower = bands.upper.values, bands.lower.values
        above = lambda i: closes[i - 1] <= upper[i - 1] and closes[i] > upper[i]  # noqa: E731
        below = lambda i: closes[i - 1] >= lower[i - 1] and closes[i] < lower[i]  # noqa: E731
        bars = range(warm(bands.upper.warmup_len + 1), len(closes))
        # Keltner buys a break above the channel, Bollinger a break below
        return _scan(bars, above, below) if kind == "KeltnerConfig" else _scan(bars, below, above)
    if len(closes) < 62:
        raise TooShort("the oscillator scan starts at bar 60")
    if kind == "RsiConfig":
        strength = ind.rsi(closes, config.n).values
        line = ind.sma(closes, config.sma_n).values if config.rsitype == 2 else None
        return _rsi_scan(closes, strength, line, config)
    up, down, _ = ind.aroon(series, config.n)
    return _aroon_scan(up.values, down.values, config)
