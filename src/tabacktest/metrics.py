"""Performance measures: returns, drawdown, Sharpe/information ratio,
yearly rates of return, and a Gaussian fit of the return distribution.

Standard deviations are population (N divisor) throughout. Annualization
uses a configurable trading-day count, 252 by default. Everything is
stdlib-only so outputs are bit-stable across platforms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .backtest import EquityCurve
from .errors import DomainError, LengthMismatch, NonPositivePrice, TooShort, ZeroVolatility
from .market_data import slice_years

TRADING_DAYS_PER_YEAR = 252


def daily_returns(values: Sequence[float]) -> list[float]:
    """Fractional day-over-day changes; length is len(values) - 1."""
    if len(values) < 2:
        raise TooShort("need at least two values for returns")
    out: list[float] = []
    for i in range(1, len(values)):
        prev, cur = values[i - 1], values[i]
        if prev <= 0 or cur <= 0 or not (math.isfinite(prev) and math.isfinite(cur)):
            raise NonPositivePrice(f"non-positive price at index {i}")
        out.append(cur / prev - 1.0)
    return out


def max_drawdown(values: Sequence[float]) -> float:
    """Largest peak-to-trough fractional decline, single pass, floored at 0."""
    if len(values) < 1:
        raise TooShort("need at least one value")
    peak = values[0]
    worst = 0.0
    for v in values:
        if v <= 0:
            raise NonPositivePrice("drawdown expects positive values")
        if v > peak:
            peak = v
        drawdown = (peak - v) / peak
        if drawdown > worst:
            worst = drawdown
    return worst


def _moments(xs: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation."""
    mean = sum(xs) / len(xs)
    return mean, math.sqrt(sum((x - mean) ** 2 for x in xs) / len(xs))


def _annualized_ratio(
    xs: Sequence[float], excess_mean: float, std: float, what: str, trading_days: int
) -> float:
    """Mean excess over std, scaled to a year: the Sharpe and information ratio."""
    # an all-equal series has zero dispersion by definition, even when the
    # rounded mean makes the computed std a denormal instead of 0.0
    if min(xs) == max(xs) or std == 0.0:
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
    return _annualized_ratio(returns, mean - rf_daily, std, "returns", trading_days)


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
    return _annualized_ratio(diff, *_moments(diff), "excess returns", trading_days)


def yearly_rr(equity: EquityCurve, ranges: Sequence[tuple[int, int]]) -> list[float]:
    """Per-range growth ratios; their product telescopes to final/initial."""
    values = equity.values
    out: list[float] = []
    prev = equity.initial_price
    for _, end in ranges:
        current = values[end - 1]
        out.append(current / prev)
        prev = current
    return out


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
    returns = daily_returns(equity.values)
    return report_from_returns(equity, returns, daily_returns(benchmark_closes), buy_count,
                               trading_days)


def report_from_returns(
    equity: EquityCurve,
    returns: Sequence[float],
    benchmark_returns: Sequence[float],
    buy_count: int,
    trading_days: int = TRADING_DAYS_PER_YEAR,
) -> MetricReport:
    """``build_report`` given the daily returns of the equity curve and of
    the benchmark, so that many curves can share one benchmark pass."""
    values = equity.values
    rr_whole = equity.final_price / equity.initial_price
    years = len(values) / trading_days
    try:
        rr_per_year = rr_whole ** (1.0 / years)
    except OverflowError:
        raise DomainError(
            f"rr_whole {rr_whole!r} over {years!r} years overflows the yearly rate"
        ) from None
    ranges = slice_years(len(values), trading_days)
    rr_by_year = yearly_rr(equity, ranges)
    _require_two(returns)
    fit_mean, fit_std = _moments(returns)
    try:  # the Sharpe ratio at a zero risk-free rate, from the fit's moments
        sr = _annualized_ratio(returns, fit_mean, fit_std, "returns", trading_days)
    except ZeroVolatility:
        sr = None
    try:
        ir = information_ratio_annual(returns, benchmark_returns, trading_days)
    except ZeroVolatility:
        ir = None
    return MetricReport(
        initial_price=equity.initial_price,
        final_price=equity.final_price,
        rr_whole=rr_whole,
        rr_per_year=rr_per_year,
        rr_by_year=rr_by_year,
        buy_count=buy_count,
        max_rate=max(rr_by_year),
        min_rate=min(rr_by_year),
        mdd=max_drawdown(values),
        sr=sr,
        ir=ir,
        vol_annual=fit_std * math.sqrt(trading_days),
        return_fit_mean=fit_mean,
        return_fit_std=fit_std,
    )
