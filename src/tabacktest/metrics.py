"""Performance measures: returns, drawdown, Sharpe/information ratio,
yearly rates of return, and a Gaussian fit of the return distribution.

Standard deviations are population (N divisor) throughout. Annualization
uses a configurable trading-day count, 252 by default. Every mean is
exactly rounded and every standard deviation is the square root of the
exactly rounded variance, from exact integer sums, so outputs are
bit-stable across platforms and interpreters.

The measure block reads an equity curve as exposure runs: a run is an
entry bar and the equity values from that bar to its exit, and between
runs the curve holds the last value reached. A flat bar's return is
exactly 0.0. A sweep sums its series' returns once, so each cell costs
O(runs + corrected bars) Python steps, and its held bars are read in C.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import accumulate, chain, compress, islice, repeat
from operator import mul, ne, sub, truediv
from typing import Iterable, NamedTuple, Optional, Sequence

from ._exact import exact_ints, moments, scaled_ints
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
    """Fractional day-over-day changes; length is len(values) - 1.

    A value that is not positive and finite is a NonPositivePrice, and then
    a return that is not finite is a DomainError.
    """
    if len(values) < 2:
        raise TooShort("need at least two values for returns")
    return _run_returns([(0, values)])[0]


def _run_returns(runs: Sequence[Run]) -> list[list[float]]:
    """``values[k + 1] / values[k] - 1.0`` of each run ``(entry, values)``.

    A value that is not positive and finite is a NonPositivePrice at the
    first bar whose return would read it; two passes in C over all the
    values show that none is before the culprit is looked for. Positive
    finite values give returns of at least -1.0, so then a ratio that
    overflows to inf is the only return that is not finite, a DomainError.
    """
    values = runs[0][1] if len(runs) == 1 else list(chain.from_iterable(v for _, v in runs))
    if values and not (min(values) > 0 and all(map(math.isfinite, values))):
        for entry, run in runs:
            bad = next((k for k, v in enumerate(run) if not 0 < v < math.inf), None)
            if bad is not None:
                raise NonPositivePrice(f"non-positive price at index {max(entry + bad, 1)}")
    returns = [[b / a - 1.0 for a, b in zip(run, islice(run, 1, None))] for _, run in runs]
    if max(map(max, filter(None, returns)), default=0.0) == math.inf:
        entry, run = next((e, r) for (e, _), r in zip(runs, returns) if math.inf in r)
        raise DomainError(f"daily return at index {entry + run.index(math.inf) + 1} is not finite")
    return returns


def max_drawdown(values: Iterable[float]) -> float:
    """Largest peak-to-trough fractional decline, single pass, floored at 0."""
    values = iter(values)
    peak = next(values, None)
    if peak is None:
        raise TooShort("need at least one value")
    worst = 0.0
    for v in chain((peak,), values):
        if not 0 < v < math.inf:
            raise NonPositivePrice("drawdown expects positive finite values")
        if v > peak:
            peak = v
        drawdown = (peak - v) / peak
        if drawdown > worst:
            worst = drawdown
    return worst


def _annualized(mean: float, std: float, trading_days: int) -> Optional[float]:
    """Mean (excess) over std, scaled to a year: the Sharpe and information
    ratio, or None when std is 0.0.

    An exact variance is 0 only if every value is equal; one too small for
    the float range rounds to 0.0 as well, and counts as no volatility.
    """
    return None if std == 0.0 else mean / std * math.sqrt(trading_days)


def _annualized_ratio(mean: float, std: float, what: str, trading_days: int) -> float:
    ratio = _annualized(mean, std, trading_days)
    if ratio is None:
        raise ZeroVolatility(f"{what} have zero standard deviation")
    return ratio


def _require_two(returns: Sequence[float]) -> None:
    if len(returns) < 2:
        raise TooShort("need at least two returns")


def sharpe_annual(
    returns: Sequence[float],
    rf_daily: float = 0.0,
    trading_days: int = TRADING_DAYS_PER_YEAR,
) -> float:
    """Annualized excess return per unit of return volatility: the
    ``gaussian_fit`` mean less ``rf_daily``, over its standard deviation."""
    mean, std = gaussian_fit(returns)
    return _annualized_ratio(mean - rf_daily, std, "returns", trading_days)


def information_ratio_annual(
    returns: Sequence[float],
    benchmark_returns: Sequence[float],
    trading_days: int = TRADING_DAYS_PER_YEAR,
) -> float:
    """Annualized mean/std of the daily difference against a benchmark: the
    moments of the exact differences ``r - b``, each rounded once."""
    n = len(returns)
    if n != len(benchmark_returns):
        raise LengthMismatch(f"{n} returns vs {len(benchmark_returns)} benchmark returns")
    _require_two(returns)
    ints, scale = exact_ints([*returns, *benchmark_returns])
    diff = list(map(sub, ints[:n], ints[n:]))
    return _annualized_ratio(*moments(n, sum(diff), sum(map(mul, diff, diff)), scale),
                             "excess returns", trading_days)


def yearly_rr(equity: Sequence[float], ranges: Sequence[tuple[int, int]]) -> list[float]:
    """Per-range growth ratios of the equity values, each range's last
    value over the one before it; their product telescopes to final/initial."""
    ends = [equity[end - 1] for _, end in ranges]
    return list(map(truediv, ends, chain((equity[0],), ends)))


def gaussian_fit(returns: Sequence[float]) -> tuple[float, float]:
    """Sample mean and population standard deviation of at least two daily
    returns: the exactly rounded mean and the square root of the exactly
    rounded population variance, from exact integer sums."""
    _require_two(returns)
    ints, scale = exact_ints(returns)
    return moments(len(ints), sum(ints), sum(map(mul, ints, ints)), scale)


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
        return asdict(self)


class Measures(NamedTuple):
    """What a sweep cell ranks and writes, and what the full block builds
    on: the ``MetricReport`` fields of the same names."""

    final_price: float
    rr_whole: float
    rr_per_year: float
    return_fit_mean: float
    return_fit_std: float
    sr: Optional[float]
    ir: Optional[float]


# Every return fl(fl(a / b) - 1.0) of positive finite a and b is a whole
# multiple of 2**-53. Each float from 0.5 up is one, so from a quotient of
# 0.5 up the exact difference is one too, and it is either exact or rounds
# to a float of magnitude 1 or more; a smaller quotient gives a difference
# that rounds into [-1, -0.5], where floats are 2**-53 apart. So returns
# and benchmark returns are integers at this one scale.
RETURN_SCALE = 53


def _growth(
    initial: float, final: float, bars: int, benchmark_count: int, trading_days: int
) -> tuple[float, float, float]:
    """``final``, ``rr_whole`` and ``rr_per_year`` of a ``bars``-long curve
    from ``initial``, after the checks that follow those of its returns, in
    order. Once both have passed, every value is positive and finite, so
    the drawdown and the yearly block cannot fail."""
    rr_whole = final / initial
    years = bars / trading_days
    try:
        rr_per_year = rr_whole ** (1.0 / years)
    except OverflowError:
        raise DomainError(
            f"rr_whole {rr_whole!r} over {years!r} years overflows the yearly rate"
        ) from None
    count = bars - 1
    if count < 2:
        raise TooShort("need at least two returns")
    if count != benchmark_count:
        raise LengthMismatch(f"{count} returns vs {benchmark_count} benchmark returns")
    return final, rr_whole, rr_per_year


def _measures(growth: tuple[float, float, float], n: int, s1: int, s2: int, d1: int, d2: int,
              trading_days: int) -> Measures:
    """The block from the sums of a curve's n returns (``s1``, ``s2``) and of
    their differences to the benchmark's (``d1``, ``d2``), at ``RETURN_SCALE``;
    a flat bar's return is 0.0."""
    fit_mean, fit_std = moments(n, s1, s2, RETURN_SCALE)
    ir_mean, ir_std = moments(n, d1, d2, RETURN_SCALE)
    # the Sharpe ratio at a zero risk-free rate, from the fit's moments
    return Measures(*growth, fit_mean, fit_std, _annualized(fit_mean, fit_std, trading_days),
                    _annualized(ir_mean, ir_std, trading_days))


class ReturnSums:
    """Sums over one series that every sweep cell on it shares: its close
    ratios (``backtest.close_ratios``) and, over the integers Q of their
    returns and the integers B of the benchmark's returns at
    ``RETURN_SCALE``, the prefix sums ``p1``, ``p2``, ``pb`` and ``pqb`` of
    Q, Q*Q, B and Q*B from 0, and the sum ``b2`` of B*B."""

    def __init__(self, ratios: Sequence[float], benchmark_returns: Sequence[float]):
        self.ratios = ratios
        returns = list(map(sub, ratios, repeat(1.0)))
        # a ratio that overflowed fails every run across it before a sum is read
        q = scaled_ints([v if v < math.inf else 0.0 for v in returns], RETURN_SCALE)
        self.p1 = list(accumulate(q, initial=0))
        self.p2 = list(accumulate(map(mul, q, q), initial=0))
        if benchmark_returns == returns:  # the series is its own benchmark: B is Q
            self.pb, self.pqb, self.b2 = self.p1, self.p2, self.p2[-1]
        else:
            b = scaled_ints(benchmark_returns, RETURN_SCALE)
            self.pb = list(accumulate(b, initial=0))
            self.pqb = list(accumulate(map(mul, q, b), initial=0))
            self.b2 = sum(map(mul, b, b))


def measures_from_sums(
    initial: float, runs: Sequence[Run], bars: int, sums: ReturnSums, trading_days: int
) -> Measures:
    """The ratios and moments of ``build_report``, bit for bit, errors
    included, of a ``bars``-long curve over the series of ``sums``,
    against its benchmark, in O(runs + corrected bars) Python steps.

    ``runs`` are the ``(entry bar, values)`` pairs of ``exposure_runs`` over
    ``sums.ratios``, in bar order: a run holds ``values`` at bars ``entry``,
    ``entry + 1``, ...; the curve holds ``initial`` before the first run
    and each run's last value after it. Each run adds the prefix-sum
    differences over its slots. A held bar whose quotient
    ``values[k + 1] / values[k]`` is its close ratio has the ratio's return;
    only the others, which compounding makes rare, are corrected (a bar
    corrected where the returns agree only adds 0).

    A ratio is positive, or 0 or inf past the float range, so a value that
    is 0, inf or NaN stays one to the end of its run: the last values are
    checked before any quotient divides by a value. Between positive
    finite values a return is finite unless its quotient overflows, and an
    inf quotient is not its finite ratio, so it is corrected. Either fault
    raises as in ``_run_returns``.
    """
    if bars < 2:
        raise TooShort("need at least two values for returns")
    last = [values[-1] for _, values in runs]
    if not (all(map(math.isfinite, last)) and min(last, default=1.0) > 0):
        _run_returns(runs)
    p1, p2, pb, pqb = sums.p1, sums.p2, sums.pb, sums.pqb
    quotients: list[float] = []
    held: list[float] = []  # the ratio of each quotient's bar
    slots = []
    s1 = s2 = 0
    for entry, values in runs:
        stop = entry + len(values) - 1
        quotients += map(truediv, islice(values, 1, None), values)
        held += sums.ratios[entry:stop]
        slots.append(range(entry, stop))
        s1 += p1[stop] - p1[entry]
        s2 += p2[stop] - p2[entry]
    differs = list(map(ne, quotients, held))
    fixed = list(map(sub, compress(quotients, differs), repeat(1.0)))
    if math.inf in fixed:
        _run_returns(runs)
    growth = _growth(initial, last[-1] if runs else initial, bars, len(pb) - 1, trading_days)
    # pqb ends where the shorter of Q and B does: read it only past the length check
    sqb = sum(pqb[slot.stop] - pqb[slot.start] for slot in slots)
    if fixed:
        fixed_bars = list(compress(chain.from_iterable(slots), differs))
        new = scaled_ints(fixed, RETURN_SCALE)
        old = [p1[k + 1] - p1[k] for k in fixed_bars]
        step = list(map(sub, new, old))
        s1 += sum(step)
        s2 += sum(map(mul, new, new)) - sum(map(mul, old, old))
        sqb += sum(map(mul, step, [pb[k + 1] - pb[k] for k in fixed_bars]))
    return _measures(growth, bars - 1, s1, s2, s1 - pb[-1], s2 - 2 * sqb + sums.b2,
                     trading_days)


def build_report(
    equity: Sequence[float],
    benchmark_closes: Sequence[float],
    buy_count: int,
    trading_days: int = TRADING_DAYS_PER_YEAR,
) -> MetricReport:
    """Assemble the measure block for the equity values of a curve, one per
    bar from its initial value ``equity[0]``, and its benchmark.

    Sharpe and information ratios degrade to None instead of failing
    when the relevant volatility is zero (e.g. a flat, trade-free curve).
    """
    try:
        benchmark_returns = daily_returns(benchmark_closes)
    except EngineError:
        daily_returns(equity)  # a fault of the curve itself is reported first
        raise
    # a report of a series against itself (``report`` with the default
    # benchmark) reads one list of returns twice
    returns = benchmark_returns if equity is benchmark_closes else daily_returns(equity)
    growth = _growth(equity[0], equity[-1], len(equity), len(benchmark_returns), trading_days)
    # a zero adds nothing to a sum, and fl(r - b) is r - b while below 1
    # in magnitude, where every multiple of 2**-53 is a float; against
    # itself every difference is a zero
    diff = ([] if returns is benchmark_returns
            else list(filter(None, map(sub, returns, benchmark_returns))))
    if -1.0 < min(diff, default=0.0) and max(diff, default=0.0) < 1.0:
        d = scaled_ints(diff, RETURN_SCALE)
    else:
        d = list(map(sub, scaled_ints(returns, RETURN_SCALE),
                     scaled_ints(benchmark_returns, RETURN_SCALE)))
    r = scaled_ints(list(filter(None, returns)), RETURN_SCALE)
    measures = _measures(growth, len(returns), sum(r), sum(map(mul, r, r)),
                         sum(d), sum(map(mul, d, d)), trading_days)
    rr_by_year = yearly_rr(equity, slice_years(len(equity), trading_days))
    return MetricReport(
        initial_price=equity[0],
        rr_by_year=rr_by_year,
        buy_count=buy_count,
        max_rate=max(rr_by_year),
        min_rate=min(rr_by_year),
        mdd=max_drawdown(equity),
        vol_annual=measures.return_fit_std * math.sqrt(trading_days),
        **measures._asdict(),
    )
