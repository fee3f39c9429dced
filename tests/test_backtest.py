import random

import pytest

import oracles
from conftest import make_series, random_ohlcv, signal_pairs
from tabacktest import errors
from tabacktest.backtest import close_ratios, exposure_runs, run
from tabacktest.strategies import BUY, SELL


def make_signals(indices_actions):
    """The bar list of ``(bar, action)`` pairs that alternate from a Buy."""
    bars = [i for i, _ in indices_actions]
    assert signal_pairs(bars) == list(indices_actions)
    return bars


def random_signals(rng, length, max_trades=6):
    """Random but valid alternating signal bars within [0, length)."""
    bars = []
    bar = rng.randint(0, max(0, length // 4))
    for _ in range(rng.randint(0, max_trades * 2)):
        if bar >= length:
            break
        bars.append(bar)
        bar += rng.randint(1, max(1, length // 5))
    return bars


class TestRun:
    def test_buy_and_hold(self):
        rng = random.Random(1)
        series = random_ohlcv(rng, 40)
        result = run(series, make_signals([(0, BUY)]))
        closes = series.closes
        assert result.equity[0] == closes[0]
        assert result.equity[-1] == pytest.approx(closes[-1], rel=1e-12)
        assert result.buy_count == 1
        assert result.trades == ((0, None),)  # still open

    def test_hand_multiplied_example(self):
        closes = [10.0, 10.0, 20.0, 10.0, 40.0]
        series = make_series(closes)
        result = run(series, make_signals([(1, BUY), (3, SELL)]))
        # 10 * (20/10) * (10/20), frozen afterwards
        assert result.equity == (10.0, 10.0, 20.0, 10.0, 10.0)
        assert result.trades == ((1, 3),)
        assert result.buy_count == 1

    def test_no_signals_flat(self):
        series = make_series([7.0, 8.0, 9.0])
        result = run(series, [])
        assert result.equity == (7.0, 7.0, 7.0)
        assert result.buy_count == 0
        assert result.trades == ()

    def test_equity_flat_before_first_buy(self):
        closes = [5.0, 6.0, 7.0, 8.0, 9.0]
        result = run(make_series(closes), make_signals([(2, BUY)]))
        assert result.equity[:3] == (7.0, 7.0, 7.0)

    def test_rejects_out_of_range(self):
        series = make_series([1.0, 2.0])
        with pytest.raises(errors.IndexOutOfRange):
            run(series, make_signals([(5, BUY)]))

    def test_rejects_non_alternating(self):
        series = make_series([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(errors.NonAlternatingSignals):
            run(series, make_signals([(2, BUY), (2, SELL)]))

    @pytest.mark.parametrize("bars, kind, bad", [
        ([5], errors.IndexOutOfRange, 5),
        ([-1], errors.IndexOutOfRange, -1),
        ([0, 4], errors.IndexOutOfRange, 4),
        ([1, 3, 2], errors.NonAlternatingSignals, 2),
        ([2, 2], errors.NonAlternatingSignals, 2),
        ([3, 1, 7], errors.NonAlternatingSignals, 1),  # the first offending bar
        ([0, 2, 3, -3], errors.IndexOutOfRange, -3),   # range is checked before order
    ])
    def test_bar_lists_fail_as_their_signals_do(self, bars, kind, bad):
        closes = [1.0, 2.0, 3.0, 4.0]
        if kind is errors.IndexOutOfRange:
            message = f"signal at bar {bad} outside series of length 4"
        else:
            message = f"signal indices must strictly increase at bar {bad}"
        with pytest.raises(kind) as raised:
            exposure_runs(closes, bars, close_ratios(closes))
        assert str(raised.value) == message
        with pytest.raises(kind) as raised:
            run(make_series(closes), bars)
        assert str(raised.value) == message

    def test_zero_cost_round_trip_at_same_price(self):
        closes = [10.0, 11.0, 12.0, 12.0, 13.0, 14.0]
        series = make_series(closes)
        held = run(series, make_signals([(0, BUY)]))
        churned = run(series, make_signals([(0, BUY), (2, SELL), (3, BUY)]))
        assert churned.equity[-1] == pytest.approx(held.equity[-1], rel=1e-12)


class TestEquityAlgebra:
    def test_final_price_is_product_of_trade_factors(self):
        rng = random.Random(99)
        for _ in range(200):
            length = rng.randint(8, 120)
            series = random_ohlcv(rng, length)
            signals = random_signals(rng, length)
            result = run(series, signals)
            closes = series.closes
            product = result.equity[0]
            for entry, exit_bar in result.trades:
                product *= closes[exit_bar if exit_bar is not None else -1] / closes[entry]
            assert result.equity[-1] == pytest.approx(product, rel=1e-12)

    def test_matches_naive_trade_segment_recomputation(self):
        rng = random.Random(123)
        for _ in range(50):
            length = rng.randint(8, 80)
            series = random_ohlcv(rng, length)
            signals = random_signals(rng, length)
            result = run(series, signals)
            pairs = []
            for k in range(0, len(signals), 2):
                entry = signals[k]
                exit_index = signals[k + 1] if k + 1 < len(signals) else None
                pairs.append((entry, exit_index))
            assert result.trades == tuple(pairs)
            expected = oracles.naive_equity(series.closes, pairs, length)
            for got, want in zip(result.equity, expected):
                assert got == pytest.approx(want, rel=1e-12)

    def test_flat_stretches_exactly_constant(self):
        rng = random.Random(55)
        series = random_ohlcv(rng, 60)
        signals = make_signals([(5, BUY), (20, SELL), (30, BUY), (40, SELL)])
        values = run(series, signals).equity
        for i in range(1, 6):
            assert values[i] == values[0]
        for i in range(21, 31):
            assert values[i] == values[20]
        for i in range(41, 60):
            assert values[i] == values[40]

    def test_in_position_daily_ratio(self):
        rng = random.Random(56)
        series = random_ohlcv(rng, 60)
        closes = series.closes
        values = run(series, make_signals([(5, BUY), (20, SELL)])).equity
        for i in range(6, 21):
            assert values[i] / values[i - 1] == pytest.approx(closes[i] / closes[i - 1], rel=1e-12)
