"""Naive reference implementations used to check the engine kernels.

Everything here recomputes results from the definitions with no code
shared with the package, trading speed for obviousness.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import math
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
    rational arithmetic and rounded once to a float."""
    mean = sum(Fraction(v) for v in xs) / len(xs)
    variance = sum((Fraction(v) - mean) ** 2 for v in xs) / len(xs)
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
