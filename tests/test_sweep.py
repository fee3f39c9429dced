import dataclasses
import io
import random

import pytest

from conftest import random_ohlcv
from tabacktest import _exact, errors, strategies
from tabacktest.backtest import run
from tabacktest.config import parse_kv_text, strategy_from_dict, sweep_from_dict
from tabacktest.metrics import build_report
from tabacktest.strategies import generate_signals
from tabacktest.sweep import run_sweep, sweep_to_csv

SWEEP_TEXT = """
strategy = two_average
objective = sharpe_annual
min_trades = 1
fast.kind = sma
fast.period = 2:4:1
slow.kind = sma
slow.period = 12,20
"""


@pytest.fixture(scope="module")
def series():
    return random_ohlcv(random.Random(2024), 320)


def _row_measures(row):
    """The measures a sweep row holds, in the order of ``_report_measures``."""
    return row.buy_count, row.rr_whole, row.sr, row.ir


def _report_measures(report):
    return report.buy_count, report.rr_whole, report.sr, report.ir


def test_single_cell_matches_direct_backtest(series):
    text = """
    strategy = two_average
    fast.kind = sma
    fast.period = 3
    slow.kind = sma
    slow.period = 15
    """
    spec = sweep_from_dict(parse_kv_text(text))
    assert spec.grid_size() == 1
    rows = run_sweep(series, spec).rows
    assert len(rows) == 1
    config = strategy_from_dict(parse_kv_text(text))
    result = run(series, generate_signals(series, config))
    report = build_report(result.equity, series.closes, result.buy_count, 252)
    assert _row_measures(rows[0]) == _report_measures(report)


def test_grid_rows_sorted_and_complete(series):
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    assert spec.grid_size() == 6
    rows = run_sweep(series, spec).rows
    values = [row.objective_value for row in rows]
    assert values == sorted(values, reverse=True)
    # every surviving row reproduces its own cell run exactly
    for row in rows:
        tree = parse_kv_text(SWEEP_TEXT.replace("2:4:1", str(dict(row.params)["fast.period"]))
                             .replace("12,20", str(dict(row.params)["slow.period"])))
        config = strategy_from_dict(tree)
        result = run(series, generate_signals(series, config))
        assert row.buy_count == result.buy_count


def test_min_trades_filter_can_empty_the_grid(series):
    text = SWEEP_TEXT.replace("min_trades = 1", "min_trades = 100000")
    with pytest.raises(errors.EmptyGridAfterFilter):
        run_sweep(series, sweep_from_dict(parse_kv_text(text)))


def test_csv_shape(series):
    spec = sweep_from_dict(parse_kv_text(SWEEP_TEXT))
    rows = run_sweep(series, spec).rows
    buffer = io.StringIO()
    sweep_to_csv(rows, spec, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "fast.period,slow.period,buy_count,rr_whole,sharpe_annual,ir_annual,objective"
    assert len(lines) == len(rows) + 1


DEGENERATE_TEXT = """
strategy = two_average
min_trades = 1
fast.kind = sma
fast.period = 5
slow.kind = sma
slow.period = 5,15
"""


def test_degenerate_cells_are_dropped(series):
    # slow.period == fast.period never crosses -> zero trades -> filtered
    rows = run_sweep(series, sweep_from_dict(parse_kv_text(DEGENERATE_TEXT))).rows
    assert all(dict(row.params)["slow.period"] == 15 for row in rows)


@pytest.mark.parametrize("objective, extra_slow, dropped, below_min_trades", [
    # the flat 5/5 cell has no volatility, so its Sharpe ratio is undefined
    ("sharpe_annual", "", {"ZeroVolatility": 1}, 0),
    # rr_whole is defined for it, so min_trades filters it instead
    ("rr_whole", "", {}, 1),
    # a window longer than the series drops its cell with the error's kind
    ("sharpe_annual", ",400", {"TooShort": 1, "ZeroVolatility": 1}, 0),
])
def test_drops_are_counted_by_kind(series, objective, extra_slow, dropped, below_min_trades):
    text = DEGENERATE_TEXT.replace("5,15", "5,15" + extra_slow) + f"objective = {objective}\n"
    spec = sweep_from_dict(parse_kv_text(text))
    result = run_sweep(series, spec)
    assert result.dropped == dropped
    assert result.below_min_trades == below_min_trades
    assert len(result.rows) + sum(dropped.values()) + below_min_trades == spec.grid_size()


def test_failing_benchmark_returns_drop_every_cell():
    # one bar: every cell's strategy is too short, and so are the
    # benchmark's returns; the sweep must still report an empty grid
    one_bar = random_ohlcv(random.Random(5), 1)
    with pytest.raises(errors.EmptyGridAfterFilter, match="'TooShort': 6"):
        run_sweep(one_bar, sweep_from_dict(parse_kv_text(SWEEP_TEXT)))


def test_a_benchmark_return_that_overflows_drops_every_cell(series):
    # every benchmark close is positive and finite, but 1e300 / 1e-300 is not
    benchmark = [1e-300] + [1e300] * (len(series) - 1)
    with pytest.raises(errors.EmptyGridAfterFilter, match="'DomainError': 6"):
        run_sweep(series, sweep_from_dict(parse_kv_text(SWEEP_TEXT)), benchmark)


@pytest.mark.parametrize("bars", [100, 400])
def test_a_benchmark_of_another_length_drops_every_cell(series, bars):
    # a shorter benchmark's sums end before the cells' runs do
    benchmark = random_ohlcv(random.Random(6), bars).closes
    with pytest.raises(errors.EmptyGridAfterFilter, match="'LengthMismatch': 6"):
        run_sweep(series, sweep_from_dict(parse_kv_text(SWEEP_TEXT)), benchmark)


# One small grid per strategy. rr_whole is never undefined and min_trades
# is 0, so every cell that does not raise is ranked.
STRATEGY_GRIDS = {
    "two_average": "fast.kind = sma,ema\nfast.period = 3,5\nslow.kind = sma\nslow.period = 15,25\n",
    "price_cross": "ma.matype = 1,2\nma.timeperiod_long = 21,31\nma.timeperiod_short = 3\n"
                   "ma.ada_win = 8\n",
    "keltner": "ma.kind = ema\nma.period = 10,20\nkeltner.mult = 0.5,1,2\n",
    "rsi": "rsi.n = 7,14\nrsi.down_thres = 30,45\nrsi.upper_thres = 55,70\nrsi.rsitype = 2\n"
           "rsi.sma_n = 10,20\nrsi.diff_rate = 0.02\n",
    "aroon": "aroon.n = 10,25\naroon.aroon_type = 1,2\naroon.weak_thres = 30,45\n",
    "bollinger": "bollinger.n = 10,20\nbollinger.dev = 0.5,1,2\n",
    "macd": "macd.short_n = 6,12\nmacd.long_n = 26\nmacd.signal_n = 5,9\n",
}


def _direct_report(series, spec, params, benchmark=None):
    result = run(series, generate_signals(series, spec.cell_config(params)))
    return build_report(result.equity, benchmark or series.closes, result.buy_count, 252)


@pytest.mark.parametrize("seed", [1, 4])
@pytest.mark.parametrize("strategy", sorted(STRATEGY_GRIDS))
def test_shared_work_matches_direct_backtests(strategy, seed):
    # each strategy's grid on two independently drawn price series
    series = random_ohlcv(random.Random(seed), 320)
    text = f"strategy = {strategy}\nobjective = rr_whole\nmin_trades = 0\n"
    spec = sweep_from_dict(parse_kv_text(text + STRATEGY_GRIDS[strategy]))
    result = run_sweep(series, spec)
    assert len(result.rows) == spec.grid_size()
    for row in result.rows:
        assert _row_measures(row) == _report_measures(_direct_report(series, spec, row.params))


@pytest.mark.parametrize("strategy", sorted(STRATEGY_GRIDS))
def test_shared_work_matches_direct_backtests_against_another_benchmark(strategy):
    series = random_ohlcv(random.Random(1), 320)
    benchmark = random_ohlcv(random.Random(9), 320).closes
    text = f"strategy = {strategy}\nobjective = ir_annual\nmin_trades = 0\n"
    spec = sweep_from_dict(parse_kv_text(text + STRATEGY_GRIDS[strategy]))
    result = run_sweep(series, spec, benchmark)
    assert len(result.rows) == spec.grid_size()
    for row in result.rows:
        report = _direct_report(series, spec, row.params, benchmark)
        assert _row_measures(row) == _report_measures(report)


def test_each_moving_average_is_computed_once(series, monkeypatch):
    calls = []

    def counting(data, spec):
        calls.append(spec)
        return original(data, spec)

    original = strategies.moving_average
    monkeypatch.setattr(strategies, "moving_average", counting)
    text = SWEEP_TEXT.replace("2:4:1", "2:20:2").replace("12,20", "30:120:10")
    spec = sweep_from_dict(parse_kv_text(text))
    assert spec.grid_size() == 100
    run_sweep(series, spec)
    assert len(calls) == 20
    assert len(set(calls)) == 20


def test_a_sweep_converts_its_closes_once(series, monkeypatch):
    calls = []

    def counting(x, *args):
        calls.append(x)
        return original(x, *args)

    original = _exact.exact_ints
    monkeypatch.setattr(_exact, "exact_ints", counting)
    fresh = dataclasses.replace(series)  # no close column built yet
    text = SWEEP_TEXT.replace("2:4:1", "2:20:2").replace("12,20", "30:120:10")
    run_sweep(fresh, sweep_from_dict(parse_kv_text(text)))
    assert calls == [fresh.closes]


@pytest.mark.parametrize("strategy, parts", [
    ("keltner", "keltner_parts"),
    ("bollinger", "bollinger_parts"),
])
def test_band_parts_are_shared_across_widths(series, monkeypatch, strategy, parts):
    # the grid has 2 windows x 3 band widths; the parts depend only on the window
    calls = []
    original = getattr(strategies, parts)

    def counting(data, window):
        calls.append(window)
        return original(data, window)

    monkeypatch.setattr(strategies, parts, counting)
    text = f"strategy = {strategy}\nobjective = rr_whole\nmin_trades = 0\n"
    spec = sweep_from_dict(parse_kv_text(text + STRATEGY_GRIDS[strategy]))
    assert spec.grid_size() == 6
    run_sweep(series, spec)
    assert len(calls) == 2
    assert len(set(calls)) == 2
