"""The measure block against ``oracles.naive_report``, a dense per-bar transcription.

``build_report(run(...))``, the measures of a sweep cell's exposure runs
and every ``run_sweep`` row must equal the oracle with ``==``, float for
float; a failing case must fail with the oracle's error kind.
"""
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import make_series, signal_pairs
from tabacktest import build_report, run
from tabacktest.backtest import close_ratios, exposure_runs
from tabacktest.config import parse_kv_text, sweep_from_dict
from tabacktest.errors import DomainError, EmptyGridAfterFilter, EngineError
from tabacktest.metrics import ReturnSums, daily_returns, measures_from_sums
from tabacktest.strategies import BUY, SELL, generate_signals
from tabacktest.sweep import run_sweep

# day-over-day close moves: 1.0 leaves a close unchanged inside a position,
# 1e150 and 1e-150 push a compounded curve past the float range
MOVES = (1.0, 1.0, 1.01, 0.99, 1.2, 0.8, 2.0, 0.5, 1e150, 1e-150)
TRADING_DAYS = (1, 2, 3, 5, 20, 252)


def _closes(start, moves):
    closes = [start]
    for move in moves:
        closes.append(min(1e300, max(1e-300, closes[-1] * move)))
    return closes


@st.composite
def _series_closes(draw, min_bars=1, max_bars=40):
    moves = draw(st.lists(st.sampled_from(MOVES), min_size=min_bars - 1, max_size=max_bars - 1))
    return _closes(draw(st.sampled_from([1.0, 100.0, 3.7])), moves)


@st.composite
def _cases(draw):
    closes = draw(_series_closes())
    bars = draw(st.lists(st.integers(0, len(closes) - 1), unique=True, max_size=8))
    signals = [(bar, BUY if k % 2 == 0 else SELL) for k, bar in enumerate(sorted(bars))]
    benchmark = draw(st.one_of(
        st.just(closes),
        st.lists(st.sampled_from(MOVES[:8]), min_size=len(closes) - 1,
                 max_size=len(closes) - 1).map(lambda moves: _closes(50.0, moves)),
    ))
    return closes, signals, benchmark, draw(st.sampled_from(TRADING_DAYS))


def _outcome(compute):
    """``compute()``, or the kind of error it raised."""
    try:
        return compute()
    except oracles.OracleMetricError as exc:
        return exc.kind
    except EngineError as exc:
        return exc.kind


def _message(compute):
    """The message of the error ``compute()`` raises, or "" for none."""
    try:
        compute()
    except (oracles.OracleMetricError, EngineError) as exc:
        return str(exc)
    return ""


def _engine_report(closes, signals, benchmark, trading_days):
    result = run(make_series(closes), [bar for bar, _ in signals])
    return build_report(result.equity, benchmark, result.buy_count, trading_days).to_dict()


UP = [100.0, 101.0, 101.0, 103.0, 99.0, 98.0, 98.0, 104.0, 105.0, 101.0]
# every return is 2**971, whose integer at scale 2**53 is past the float range
HUGE = [2.0**-1074, 2.0**-103, 2.0**868]
# a one-bar position, then one held from bar 2 to bar 6
TWO_RUNS = [(0, BUY), (1, SELL), (2, BUY), (6, SELL)]


@settings(max_examples=300, deadline=None)
@given(_cases())
@example((UP, [], UP, 252))                                         # no trades
@example((UP, [(2, BUY), (5, SELL), (7, BUY)], UP, 3))              # a position left open
@example((UP, [(3, BUY), (4, SELL), (9, BUY)], UP, 2))              # a Buy on the last bar
@example((UP, [(0, BUY), (1, SELL), (5, BUY), (6, SELL)], UP, 1))   # one-bar positions
@example((UP, [(1, BUY), (2, SELL), (5, BUY)], _closes(7.0, MOVES[:9]), 4))  # own benchmark
@example((UP[:2], [(0, BUY)], UP[:2], 252))                         # too short for two returns
@example((_closes(1.0, [1e150, 1e-150] * 3), [(k, BUY if k % 2 == 0 else SELL) for k in range(7)],
          UP[:7], 252))                                             # the curve overflows
@example((_closes(1.0, [1e150, 1.0]), [(0, BUY)], UP[:3], 252))     # rr_per_year overflows
@example(([100.0, 200.0, 150.0], [(0, BUY)], [50.0, 45.0, 45.0], 252))  # r - b near 1.1, no float
@example((HUGE, [(0, BUY)], [1.0, 1.01, 0.99], 252))           # returns past the float scaling
@example((HUGE, [(0, BUY)], HUGE, 252))
@example(([2.0**-1000, 2.0**-29, 2.0**-29], [(0, BUY)], UP[:3], 1))  # a variance past the floats
def test_build_report_equals_the_dense_oracle(case):
    closes, signals, benchmark, trading_days = case
    expected = _outcome(lambda: oracles.naive_report(closes, signals, benchmark, trading_days))
    assert _outcome(lambda: _engine_report(closes, signals, benchmark, trading_days)) == expected


# the fields of ``metrics.Measures`` and their ``naive_report`` keys
MEASURES = {"final": "final_price", "rr_whole": "rr_whole", "rr_per_year": "rr_per_year",
            "fit_mean": "return_fit_mean", "fit_std": "return_fit_std", "sr": "sr", "ir": "ir"}


@settings(max_examples=300, deadline=None)
@given(_cases())
@example((UP, [(1, BUY), (2, SELL), (4, BUY), (7, SELL), (8, BUY)], UP, 3))  # three runs
@example((HUGE, [(0, BUY)], [1.0, 1.01, 0.99], 252))
@example((HUGE, [(0, BUY)], HUGE, 252))
@example(([2.0**-1000, 2.0**-29, 2.0**-29], [(0, BUY)], UP[:3], 1))
@example((_closes(1.0, [1e150, 1e-150, 1e150, 1e150, 1.0, 1.0]), TWO_RUNS, UP[:7], 252))  # overflows
@example((_closes(1.0, [1e-150, 1e150, 1e-150, 1e-150, 1.0, 1.0]), TWO_RUNS, UP[:7], 252))  # to 0
def test_the_measure_block_of_exposure_runs_equals_the_dense_oracle(case):
    # the full block over several runs, as a sweep cell's runs reach it
    closes, signals, benchmark, trading_days = case

    def engine():
        ratios = close_ratios(closes)
        sums = ReturnSums(ratios, daily_returns(benchmark))
        initial, runs = exposure_runs(closes, [bar for bar, _ in signals], ratios)
        return measures_from_sums(initial, runs, len(closes), sums, trading_days)._asdict()

    def oracle():
        report = oracles.naive_report(closes, signals, benchmark, trading_days)
        return {name: report[key] for name, key in MEASURES.items()}

    assert _outcome(engine) == _outcome(oracle)
    message = _message(oracle)
    if message.startswith(("non-positive price", "daily return")):
        # a fault of the curve's values or returns names its bar as the oracle does
        assert _message(engine) == message


def test_a_return_past_the_float_range_between_finite_values_is_a_domain_error():
    # no close ratio of a series grows a run like this; the check stands all the same
    sums = ReturnSums([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(DomainError, match="^daily return at index 2 is not finite$"):
        measures_from_sums(1.0, [(1, [1e-300, 1e300])], 3, sums, 252)


def test_returns_past_the_float_scaling_against_another_benchmark():
    benchmark = [1.0, 1.01, 0.99]
    report = _engine_report(HUGE, [(0, BUY)], benchmark, 252)
    assert report == oracles.naive_report(HUGE, [(0, BUY)], benchmark, 252)
    assert report["return_fit_mean"] == 2.0**971 and report["return_fit_std"] == 0.0
    assert report["sr"] is None
    # the exact differences vary as the benchmark does; their float ones do not
    assert math.isfinite(report["ir"])
    assert len({2.0**971 - b for b in daily_returns(benchmark)}) == 1


SWEEPS = (
    "strategy = price_cross\nma.kind = sma,ema\nma.period = 1:4:1\n",
    "strategy = two_average\nfast.kind = sma\nfast.period = 1,2\nslow.kind = sma,ema\n"
    "slow.period = 3,5\n",
    "strategy = keltner\nma.kind = sma\nma.period = 2,3\nkeltner.mult = 0,0.5,1\n",
    "strategy = bollinger\nbollinger.n = 2,3\nbollinger.dev = 0,0.5\n",
)


# the measures a sweep row holds, beside its params
ROW_FIELDS = ("buy_count", "rr_whole", "sr", "ir")


def _expected_sweep(series, spec, benchmark, trading_days):
    """(rows as (params, row measures), dropped kinds) from the oracle, cell by cell."""
    closes = series.closes
    names = [path for path, _ in spec.axes]
    rows, dropped = [], Counter()
    grids = [[]]
    for _, values in spec.axes:
        grids = [cell + [value] for cell in grids for value in values]
    for values in grids:
        params = tuple(zip(names, values))

        def report():
            pairs = signal_pairs(generate_signals(series, spec.cell_config(params)))
            return oracles.naive_report(closes, pairs, benchmark, trading_days)

        outcome = _outcome(report)
        objective = {"sharpe_annual": "sr", "ir_annual": "ir", "rr_whole": "rr_whole"}
        if isinstance(outcome, str):
            dropped[outcome] += 1
        elif outcome[objective[spec.objective]] is None:
            dropped["ZeroVolatility"] += 1
        else:
            rows.append((params, tuple(outcome[name] for name in ROW_FIELDS)))
    return sorted(rows, key=repr), dict(sorted(dropped.items()))


@settings(max_examples=60, deadline=None)
@given(closes=_series_closes(min_bars=3, max_bars=60), sweep=st.sampled_from(SWEEPS),
       objective=st.sampled_from(["sharpe_annual", "ir_annual", "rr_whole"]),
       own_benchmark=st.booleans(), trading_days=st.sampled_from(TRADING_DAYS))
@example(closes=[5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0], sweep=SWEEPS[0],
         objective="rr_whole", own_benchmark=False, trading_days=2)  # a Buy on the last bar
def test_every_sweep_row_equals_the_dense_oracle(closes, sweep, objective, own_benchmark,
                                                  trading_days):
    series = make_series(closes)
    benchmark = [c * 1.5 + 1.0 for c in closes] if own_benchmark else closes
    spec = sweep_from_dict(parse_kv_text(sweep + f"objective = {objective}\n"))
    rows, dropped = _expected_sweep(series, spec, benchmark, trading_days)
    if not rows:
        with pytest.raises(EmptyGridAfterFilter):
            run_sweep(series, spec, benchmark, trading_days)
        return
    result = run_sweep(series, spec, benchmark, trading_days)
    got = [(row.params, tuple(getattr(row, name) for name in ROW_FIELDS)) for row in result.rows]
    assert sorted(got, key=repr) == rows
    assert result.dropped == dropped
