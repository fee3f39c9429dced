"""Performance measures: returns, drawdown, Sharpe/information ratio,
yearly rates of return, and a Gaussian fit of the return distribution.

Standard deviations are population (N divisor) throughout. Annualization
uses a configurable trading-day count, 252 by default. Everything is
stdlib-only so outputs are bit-stable across platforms.

The measure block reads an equity curve as exposure runs: a run is an
entry bar and the equity values from that bar to its exit, and between
runs the curve holds the last value reached. A flat bar's return is
exactly 0.0, so a curve with runs costs O(bars in position) in Python
plus a few O(bars) passes in C, and gives the bits of the dense loops.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import sub, truediv
from typing import Iterable, Optional, Sequence

from .backtest import EquityCurve
from .errors import (
    DomainError,
    EngineError,
    LengthMismatch,
    NonPositivePrice,
    TooShort,
    ZeroVolatility,
)
from .market_data import slice_years

TRADING_DAYS_PER_YEAR = 252

# (entry bar, the equity values at bars entry, entry + 1, ..., exit)
Run = tuple[int, Sequence[float]]


def daily_returns(values: Sequence[float]) -> list[float]:
    """Fractional day-over-day changes; length is len(values) - 1."""
    if len(values) < 2:
        raise TooShort("need at least two values for returns")
    return _run_returns(0, values)


def _run_returns(entry: int, values: Sequence[float]) -> list[float]:
    """``values[k + 1] / values[k] - 1.0`` of a run entered at bar ``entry``.

    A value that is not positive and finite is a NonPositivePrice at the
    first bar whose return would read it.
    """
    if not all(map(math.isfinite, values)) or min(values) <= 0:
        bad = next(k for k, v in enumerate(values) if not 0 < v < math.inf)
        raise NonPositivePrice(f"non-positive price at index {max(entry + bad, 1)}")
    return list(map(sub, map(truediv, islice(values, 1, None), values), repeat(1.0)))


def max_drawdown(values: Iterable[float]) -> float:
    """Largest peak-to-trough fractional decline, single pass, floored at 0."""
    values = iter(values)
    peak = next(values, None)
    if peak is None:
        raise TooShort("need at least one value")
    worst = 0.0
    for v in chain((peak,), values):
        if v <= 0:
            raise NonPositivePrice("drawdown expects positive values")
        if v > peak:
            peak = v
        drawdown = (peak - v) / peak
        if drawdown > worst:
            worst = drawdown
    return worst


def _squares(xs: Iterable[float], mean: float):
    """``(x - mean) ** 2`` for each x, evaluated in C."""
    return map(operator.pow, map(sub, xs, repeat(mean)), repeat(2.0))


def _moments(xs: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation."""
    mean = sum(xs) / len(xs)
    return mean, math.sqrt(sum(_squares(xs, mean)) / len(xs))


def _constant(xs: Sequence[float]) -> bool:
    """``min(xs) == max(xs)``, the all-equal test. Two unequal ends settle it
    without a pass: min is at most the first item and max at least the last."""
    return not (xs[0] < xs[-1] or xs[0] > xs[-1]) and min(xs) == max(xs)


def _annualized_ratio(
    constant: bool, excess_mean: float, std: float, what: str, trading_days: int
) -> float:
    """Mean excess over std, scaled to a year: the Sharpe and information ratio."""
    # an all-equal series has zero dispersion by definition, even when the
    # rounded mean makes the computed std a denormal instead of 0.0
    if constant or std == 0.0:
        raise ZeroVolatility(f"{what} have zero standard deviation")
    return excess_mean / std * math.sqrt(trading_days)


def _require_two(returns: Sequence[float]) -> None:
    if len(returns) < 2:
        raise TooShort("need at least two returns")


def sharpe_annual(
    returns: Sequence[float],
    rf_daily: float = 0.0,
    trading_days: int = TRADING_DAYS_PER_YEAR,
) -> float:
    """Annualized excess return per unit of return volatility."""
    _require_two(returns)
    mean, std = _moments(returns)
    return _annualized_ratio(_constant(returns), mean - rf_daily, std, "returns", trading_days)


def information_ratio_annual(
    returns: Sequence[float],
    benchmark_returns: Sequence[float],
    trading_days: int = TRADING_DAYS_PER_YEAR,
) -> float:
    """Annualized mean/std of the daily difference against a benchmark."""
    if len(returns) != len(benchmark_returns):
        raise LengthMismatch(f"{len(returns)} returns vs {len(benchmark_returns)} benchmark returns")
    _require_two(returns)
    diff = [r - b for r, b in zip(returns, benchmark_returns)]
    return _annualized_ratio(_constant(diff), *_moments(diff), "excess returns", trading_days)


def _growth(initial: float, ends: list[float]) -> list[float]:
    """Each value over the one before it, the first over ``initial``."""
    return list(map(truediv, ends, chain((initial,), ends)))


def yearly_rr(equity: EquityCurve, ranges: Sequence[tuple[int, int]]) -> list[float]:
    """Per-range growth ratios; their product telescopes to final/initial."""
    return _growth(equity.initial_price, [equity.values[end - 1] for _, end in ranges])


def gaussian_fit(returns: Sequence[float]) -> tuple[float, float]:
    """Sample mean and population standard deviation of daily returns."""
    _require_two(returns)
    return _moments(returns)


@dataclass(frozen=True)
class MetricReport:
    """The full per-backtest measure block."""

    initial_price: float
    final_price: float
    rr_whole: float
    rr_per_year: float
    rr_by_year: list[float]
    buy_count: int
    max_rate: float
    min_rate: float
    mdd: float
    sr: Optional[float]
    ir: Optional[float]
    vol_annual: float
    return_fit_mean: float
    return_fit_std: float

    def to_dict(self) -> dict:
        return {
            "initial_price": self.initial_price,
            "final_price": self.final_price,
            "rr_whole": self.rr_whole,
            "rr_per_year": self.rr_per_year,
            "rr_by_year": list(self.rr_by_year),
            "buy_count": self.buy_count,
            "max_rate": self.max_rate,
            "min_rate": self.min_rate,
            "mdd": self.mdd,
            "sr": self.sr,
            "ir": self.ir,
            "vol_annual": self.vol_annual,
            "return_fit_mean": self.return_fit_mean,
            "return_fit_std": self.return_fit_std,
        }


def build_report(
    equity: EquityCurve,
    benchmark_closes: Sequence[float],
    buy_count: int,
    trading_days: int = TRADING_DAYS_PER_YEAR,
) -> MetricReport:
    """Assemble the measure block for an equity curve and its benchmark.

    Sharpe and information ratios degrade to None instead of failing
    when the relevant volatility is zero (e.g. a flat, trade-free curve).
    """
    try:
        benchmark_returns = daily_returns(benchmark_closes)
    except EngineError:
        daily_returns(equity.values)  # a fault of the curve itself is reported first
        raise
    return report_from_runs(equity.initial_price, [(0, equity.values)], len(equity.values),
                            benchmark_returns, buy_count, trading_days)


def _value_at(initial: float, runs: Sequence[Run], entries: list[int], bar: int) -> float:
    """The curve's value at ``bar``; ``entries`` are the runs' entry bars."""
    k = bisect_right(entries, bar) - 1
    if k < 0:
        return initial
    entry, values = runs[k]
    return values[min(bar - entry, len(values) - 1)]


def _spread(spans: list[tuple[int, int]], length: int, fill, pieces) -> Iterable:
    """A sequence over slots [0, length): ``pieces[k]`` over ``spans[k]``, ``fill`` elsewhere."""
    parts = []
    done = 0
    for (start, stop), piece in zip(spans, pieces):
        parts += (repeat(fill, start - done), piece)
        done = stop
    parts.append(repeat(fill, length - done))
    return chain.from_iterable(parts)


def report_from_runs(
    initial: float,
    runs: Sequence[Run],
    bars: int,
    benchmark_returns: Sequence[float],
    buy_count: int,
    trading_days: int = TRADING_DAYS_PER_YEAR,
) -> MetricReport:
    """The measure block of a ``bars``-long equity curve given as exposure runs.

    ``runs`` are ``(entry bar, values)`` pairs in bar order: a run holds
    ``values`` at bars ``entry``, ``entry + 1``, ...; the curve holds
    ``initial`` before the first run and each run's last value after it.
    One run over the whole curve is the dense case. The result, errors
    included, is that of the dense per-bar definitions on the curve.
    """
    if bars < 2:
        raise TooShort("need at least two values for returns")
    returns = [_run_returns(entry, values) for entry, values in runs]
    final = runs[-1][1][-1] if runs else initial
    rr_whole = final / initial
    years = bars / trading_days
    try:
        rr_per_year = rr_whole ** (1.0 / years)
    except OverflowError:
        raise DomainError(
            f"rr_whole {rr_whole!r} over {years!r} years overflows the yearly rate"
        ) from None
    entries = [entry for entry, _ in runs]
    rr_by_year = _growth(initial, [_value_at(initial, runs, entries, end - 1)
                                   for _, end in slice_years(bars, trading_days)])
    count = bars - 1
    if count < 2:
        raise TooShort("need at least two returns")
    # return slot i is bar i + 1's; a run's returns fill slots [entry, exit)
    spans = [(entry, entry + len(values) - 1) for entry, values in runs]
    exposed = returns[0] if len(returns) == 1 else list(chain.from_iterable(returns))
    # a flat bar's return is 0.0, which leaves a float sum unchanged
    fit_mean = sum(exposed) / count
    # but its square deviation is a term of its own, summed in bar order
    flat_square = (0.0 - fit_mean) ** 2
    fit_std = math.sqrt(sum(_spread(spans, count, flat_square,
                                    [_squares(r, fit_mean) for r in returns])) / count)
    # all returns equal: a flat bar's 0.0 takes part only if there is a flat bar
    extremes = [0.0] if len(exposed) < count else []
    if exposed:
        extremes += (min(exposed), max(exposed))
    try:  # the Sharpe ratio at a zero risk-free rate, from the fit's moments
        sr = _annualized_ratio(min(extremes) == max(extremes), fit_mean, fit_std, "returns",
                               trading_days)
    except ZeroVolatility:
        sr = None
    if count != len(benchmark_returns):
        raise LengthMismatch(f"{count} returns vs {len(benchmark_returns)} benchmark returns")
    # one C pass: a flat bar's difference is 0.0 - b, as in the dense loop
    diff = list(map(sub, _spread(spans, count, 0.0, returns), benchmark_returns))
    try:
        ir = _annualized_ratio(_constant(diff), *_moments(diff), "excess returns", trading_days)
    except ZeroVolatility:
        ir = None
    # a flat bar repeats the value before it, so it moves neither peak nor
    # drawdown; only the bars before the first run add a value, ``initial``
    held = () if runs and runs[0][0] == 0 else (initial,)
    return MetricReport(
        initial_price=initial,
        final_price=final,
        rr_whole=rr_whole,
        rr_per_year=rr_per_year,
        rr_by_year=rr_by_year,
        buy_count=buy_count,
        max_rate=max(rr_by_year),
        min_rate=min(rr_by_year),
        mdd=max_drawdown(chain(held, *(values for _, values in runs))),
        sr=sr,
        ir=ir,
        vol_annual=fit_std * math.sqrt(trading_days),
        return_fit_mean=fit_mean,
        return_fit_std=fit_std,
    )
