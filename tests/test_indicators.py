import math
import random
from array import array

import pytest
from hypothesis import example, given, strategies as st

import oracles
from conftest import DATA_DIR, make_series, random_ohlcv, random_walk
from tabacktest import errors, indicators
from tabacktest._exact import prefix_sums
from tabacktest.indicators import (
    AmaParams,
    IndicatorSeries,
    MaSpec,
    ama,
    aroon,
    atr,
    bollinger,
    bollinger_parts,
    efficiency_ratio,
    ema,
    keltner,
    macd,
    moving_average,
    rmi,
    rolling_std,
    rsi,
    sma,
    true_range,
)
from tabacktest.market_data import parse_csv
from tabacktest.strategies import BollingerConfig, KeltnerConfig, generate_signals


def assert_close_lists(actual, expected, tol=1e-12):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a == pytest.approx(e, abs=tol)


class TestSma:
    def test_constant(self):
        assert sma([5.0] * 4, 3).values == [5.0] * 4

    def test_window_means(self):
        assert sma([1, 2, 3, 4, 5], 3).values[-1] == 4.0
        assert sma([1, 2, 4, 8], 2).values == [1.0, 1.5, 3.0, 6.0]

    def test_warmup_pass_through(self):
        out = sma([3.0, 7.0, 11.0], 5)
        assert out.values == [3.0, 7.0, 11.0]
        assert out.warmup_len == 3

    def test_zero_period(self):
        with pytest.raises(errors.ZeroPeriod):
            sma([1.0], 0)


class TestEma:
    def test_empty_input(self):
        assert ema([], 3) == IndicatorSeries([], 0)

    def test_identity_when_weight_capped(self):
        assert ema([3.0, 1.0, 4.0], 1).values == [3.0, 1.0, 4.0]

    def test_constant(self):
        assert ema([2.5] * 6, 4).values == [2.5] * 6

    def test_hand_recurrence(self):
        assert ema([1.0, 2.0], 3).values == [1.0, 1.5]

    def test_zero_period(self):
        with pytest.raises(errors.ZeroPeriod):
            ema([1.0], 0)

    @given(n=st.integers(1, 2**53 - 2), s=st.floats(min_value=5e-324, max_value=1e308))
    def test_the_weight_is_the_float_quotient_below_2_53(self, n, s):
        k = s / (n + 1)
        assert ema([0.0, 1.0], n, s).values[1] == min(k, 1.0)

    def test_a_period_past_the_float_range(self):
        assert ema([1.0, 2.0, 4.0], 10**400).values == [1.0, 1.0, 1.0]


class TestEfficiencyRatio:
    def test_perfect_trend(self):
        assert efficiency_ratio([1, 2, 3, 4, 5], 4).values[4] == 1.0

    def test_constant_is_zero(self):
        assert efficiency_ratio([3.0] * 8, 4).values == [0.0] * 8

    def test_zigzag_cancels(self):
        assert efficiency_ratio([1, 2, 1, 2, 1], 4).values[4] == 0.0

    def test_signed(self):
        assert efficiency_ratio([5, 4, 3, 2, 1], 4).values[4] == -1.0

    def test_a_window_past_the_series_is_never_full(self):
        for m in (3, 4, 10**30):
            assert efficiency_ratio([1.0, 2.0, 4.0], m) == IndicatorSeries([0.0] * 3, 3)

    def test_noise_floor_on_flat_prefix(self):
        values = efficiency_ratio([2.0, 2.0, 2.0, 2.0, 2.0 + 1e-6], 4).values
        assert values[4] == pytest.approx(1e-6 / 1e-4)
        assert abs(values[4]) <= 1.0


class TestAma:
    def test_constant_fixed_point_both_matypes(self):
        for matype in (1, 2):
            params = AmaParams(10, 2, 5, matype)
            assert ama([7.0] * 30, params).values == [7.0] * 30

    def test_periods_past_the_float_range(self):
        x = [float(v) for v in random_walk(random.Random(5), 40)]
        for matype in (1, 2):
            assert ama(x, AmaParams(30, 2, 10**30, matype)) == ama(x, AmaParams(30, 2, 40, matype))
        assert ama(x, AmaParams(10**400, 2, 10, 1)) == ama(x, AmaParams(2**1100, 2, 10, 1))

    def test_matype1_degenerates_to_fast_weight_on_perfect_trend(self):
        # |ER| == 1 makes the scaled constant equal the fast one
        n1, n2, m = 10, 2, 3
        x = [float(i) for i in range(1, 25)]
        out = ama(x, AmaParams(n1, n2, m, 1)).values
        fast_sc = 2.0 / (n2 + 1)
        expected = [x[0]]
        for i in range(1, len(x)):
            if i < m:  # ER still 0 inside the warm-up window
                slow_sc = 2.0 / (n1 + 1)
                weight = slow_sc * slow_sc
            else:
                weight = fast_sc * fast_sc
            expected.append(expected[-1] + weight * (x[i] - expected[-1]))
        assert_close_lists(out, expected)

    def test_matype2_ramp_uses_long_window(self):
        n1, n2, m = 6, 2, 4
        x = [float(10 + i) for i in range(20)]
        out = ama(x, AmaParams(n1, n2, m, 2)).values
        for i in range(n1, len(x)):
            window = x[i - n1 : i + 1]
            assert out[i] == pytest.approx(sum(window) / len(window), abs=1e-12)

    def test_matype2_pass_through_before_long_period(self):
        x = [float(i * i % 7 + 1) for i in range(12)]
        out = ama(x, AmaParams(8, 2, 3, 2))
        assert out.values[:8] == x[:8]
        assert out.warmup_len == 8

    @pytest.mark.parametrize("matype", [1, 2])
    def test_empty_input(self, matype):
        assert ama([], AmaParams(5, 2, 3, matype)) == IndicatorSeries([], 0)

    def test_invalid_params(self):
        with pytest.raises(errors.InvalidParams):
            AmaParams(2, 5, 3, 1)
        with pytest.raises(errors.InvalidParams):
            AmaParams(5, 2, 0, 1)
        with pytest.raises(errors.InvalidParams):
            AmaParams(5, 2, 3, 7)


def test_adaptive_kernels_convert_their_values_once(monkeypatch):
    # ER, the adaptive means and the Bollinger sigma read one set of prefix sums
    series = parse_csv(DATA_DIR / "synthetic_sp500.csv").series
    params = AmaParams(30, 2, 10, 2)
    expected = ama(list(series.closes), params), bollinger(series, params)
    calls = []

    def counting(values):
        calls.append(len(values))
        return prefix_sums(values)

    monkeypatch.setattr(indicators, "prefix_sums", counting)
    assert ama(list(series.closes), params) == expected[0]
    assert len(calls) == 1
    assert bollinger(series, params) == expected[1]
    assert len(calls) == 2


class TestTrueRangeAtr:
    def test_three_way_max(self):
        series = make_series([9.0, 9.0], highs=[10.0, 10.0], lows=[8.0, 8.0])
        assert true_range(series).values[1] == 2.0

    def test_gap_down_captured(self):
        series = make_series([11.0, 9.0], highs=[12.0, 10.0], lows=[10.5, 8.0])
        # prev close 11: max(2, -1, 3) = 3
        assert true_range(series).values[1] == 3.0

    def test_first_bar_range(self):
        series = make_series([5.0], highs=[5.0], lows=[5.0])
        assert true_range(series).values == [0.0]

    def test_atr_is_sma_of_tr(self):
        rng = random.Random(3)
        series = random_ohlcv(rng, 30)
        tr = true_range(series).values
        assert atr(series, 5).values == sma(tr, 5).values
        assert atr(series, 1).values == tr

    def test_constant_tr(self):
        series = make_series([5.0] * 6, highs=[6.0] * 6, lows=[4.0] * 6)
        assert atr(series, 3).values == [2.0] * 6


class TestKeltner:
    def test_zero_mult_collapses(self):
        rng = random.Random(5)
        series = random_ohlcv(rng, 40)
        bands = keltner(series, MaSpec("sma", 5), mult=0.0)
        assert bands.upper.values == bands.middle.values == bands.lower.values

    def test_flat_series_collapses(self):
        series = make_series([8.0] * 10, highs=[8.0] * 10, lows=[8.0] * 10)
        bands = keltner(series, MaSpec("sma", 3), mult=2.0)
        assert bands.middle.values == [8.0] * 10
        assert bands.upper.values == [8.0] * 10
        assert bands.lower.values == [8.0] * 10

    def test_hand_computed_five_bars(self):
        highs = [11.0, 12.0, 13.0, 12.0, 14.0]
        lows = [9.0, 10.0, 11.0, 10.0, 11.0]
        closes = [10.0, 11.0, 12.0, 11.0, 13.0]
        series = make_series(closes, highs=highs, lows=lows)
        tp = [(h + l + c) / 3 for h, l, c in zip(highs, lows, closes)]
        tr = oracles.naive_true_range(highs, lows, closes)
        middle = oracles.naive_sma(tp, 2)
        width = oracles.naive_sma(tr, 2)
        bands = keltner(series, MaSpec("sma", 2), mult=2.0)
        assert_close_lists(bands.middle.values, middle)
        assert_close_lists(bands.upper.values, [m + 2 * w for m, w in zip(middle, width)])
        assert_close_lists(bands.lower.values, [m - 2 * w for m, w in zip(middle, width)])


class TestRsiRmi:
    def test_long_uptrend_saturates(self):
        closes = [float(i) for i in range(1, 120)]
        values = rsi(closes, 5).values
        assert values[-1] > 99.0
        assert all(0.0 <= v <= 100.0 for v in values)

    def test_constant_is_neutral(self):
        assert rsi([4.0] * 30, 3).values == [50.0] * 30

    def test_matches_transcribed_recurrence(self, rng):
        closes = random_walk(rng, 40)
        assert_close_lists(rsi(closes, 3).values, oracles.rsi_transcription(closes, 3))

    def test_too_short(self):
        with pytest.raises(errors.TooShort):
            rsi([1.0], 3)
        with pytest.raises(errors.TooShort):
            rmi([1.0, 2.0], 3, 2)

    def test_rmi_lookback_one_equals_rsi(self, rng):
        closes = random_walk(rng, 60)
        assert rmi(closes, 4, 1).values == rsi(closes, 4).values

    def test_rmi_period_two_oscillation_is_neutral(self):
        closes = [10.0, 12.0] * 20
        # close[i] == close[i-2] identically: up = dn = 0
        assert rmi(closes, 3, 2).values == [50.0] * 40


class TestAroon:
    def test_monotone_up(self):
        closes = [float(i) for i in range(1, 20)]
        series = make_series(closes, highs=[c + 0.5 for c in closes], lows=[c - 0.5 for c in closes])
        up, down, osc = aroon(series, 5)
        assert up.values[-1] == 100.0
        assert down.values[-1] == 0.0
        assert osc.values[-1] == 100.0

    def test_monotone_down(self):
        closes = [float(i) for i in range(20, 1, -1)]
        series = make_series(closes, highs=[c + 0.5 for c in closes], lows=[c - 0.5 for c in closes])
        up, down, osc = aroon(series, 5)
        assert up.values[-1] == 0.0
        assert down.values[-1] == 100.0
        assert osc.values[-1] == -100.0

    def test_interior_max_three_back(self):
        highs = [1.0, 2.0, 3.0, 4.0, 9.0, 6.0, 5.0, 4.5]
        lows = [0.5 * h for h in highs]
        series = make_series([0.9 * h for h in highs], highs=highs, lows=lows)
        up, _, _ = aroon(series, 5)
        assert up.values[-1] == pytest.approx(100.0 * (5 - 3) / 5)

    def test_matches_brute_force(self, rng):
        series = random_ohlcv(rng, 50)
        up, down, _ = aroon(series, 7)
        expected_up, expected_down = oracles.naive_aroon(series.highs, series.lows, 7)
        assert_close_lists(up.values, expected_up)
        assert_close_lists(down.values, expected_down)

    def test_too_short(self):
        series = make_series([1.0, 2.0, 3.0])
        with pytest.raises(errors.TooShort):
            aroon(series, 3)


class TestBollinger:
    def test_zero_dev_collapses(self):
        rng = random.Random(11)
        series = random_ohlcv(rng, 30)
        bands = bollinger(series, 5, dev=0.0)
        assert bands.upper.values == bands.middle.values == bands.lower.values

    def test_constant_series_zero_sigma(self):
        series = make_series([6.0] * 12, highs=[6.0] * 12, lows=[6.0] * 12)
        bands = bollinger(series, 4, dev=2.0)
        assert bands.upper.values == [6.0] * 12
        assert bands.lower.values == [6.0] * 12

    def test_population_sigma_window(self):
        # typical prices [1, 2, 3]: middle 2, sigma sqrt(2/3)
        series = make_series([1.0, 2.0, 3.0], highs=[1.0, 2.0, 3.0], lows=[1.0, 2.0, 3.0])
        bands = bollinger(series, 3, dev=1.0)
        assert bands.middle.values[-1] == pytest.approx(2.0)
        assert bands.upper.values[-1] == pytest.approx(2.0 + math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_matches_naive_recomputation(self, rng):
        series = random_ohlcv(rng, 60)
        tp = [(h + l + c) / 3 for h, l, c in zip(series.highs, series.lows, series.closes)]
        middle, upper, lower = oracles.naive_bollinger(tp, 6, 1.5)
        bands = bollinger(series, 6, dev=1.5)
        assert_close_lists(bands.middle.values, middle)
        assert_close_lists(bands.upper.values, upper)
        assert_close_lists(bands.lower.values, lower)


@pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan])
def test_a_band_factor_must_be_finite(factor):
    # an infinite factor times a warm-up width of 0.0 would put NaN in the bands
    series = random_ohlcv(random.Random(5), 40)
    with pytest.raises(errors.InvalidParams):
        keltner(series, MaSpec("sma", 5), factor)
    with pytest.raises(errors.InvalidParams):
        bollinger(series, 5, factor)


def test_an_overflowing_band_is_infinite_and_never_nan():
    # a finite factor times a finite width can pass the float range: that
    # bar's bands are +/-inf, which no close breaks out of
    series = parse_csv(DATA_DIR / "synthetic_sp500.csv").series
    cases = [(keltner(series, MaSpec("sma", 5), 1e308), 2769),
             (bollinger(series, 5, 1e307), 544)]
    for bands, infinite in cases:
        upper, lower = bands.upper.values, bands.lower.values
        assert not any(map(math.isnan, upper + lower))
        assert [u == math.inf for u in upper] == [low == -math.inf for low in lower]
        assert sum(map(math.isinf, upper)) == infinite
    assert generate_signals(series, KeltnerConfig(MaSpec("sma", 5), 1e308)) == []
    assert generate_signals(series, BollingerConfig(5, 1e307)) == []


class TestMacd:
    def test_equal_periods_cancel(self):
        closes = random_walk(random.Random(2), 50)
        line, signal, hist = macd(closes, 5, 5, 3)
        assert line.values == [0.0] * 50
        assert signal.values == [0.0] * 50
        assert hist.values == [0.0] * 50

    def test_constant_series_is_zero(self):
        line, _, _ = macd([4.0] * 40)
        assert line.values == [0.0] * 40

    def test_hist_identity_on_ramp(self):
        closes = [float(100 + i) for i in range(30)]
        line, signal, hist = macd(closes, 12, 26, 9)
        for m, s, h in zip(line.values, signal.values, hist.values):
            assert h == m - s

    def test_lines_match_naive_recomputation(self, rng):
        closes = random_walk(rng, 80)
        line, signal, _ = macd(closes, 4, 9, 5)
        fast = oracles.naive_ema(closes, 4)
        slow = oracles.naive_ema(closes, 9)
        expected_line = [f - s for f, s in zip(fast, slow)]
        assert_close_lists(line.values, expected_line)
        assert_close_lists(signal.values, oracles.naive_sma(expected_line, 5))


class TestOracleEquivalence:
    """Each kernel against its naive recomputation on many random series."""

    def test_kernels_match_naive_on_random_series(self):
        rng = random.Random(4242)
        for trial in range(100):
            n = rng.randint(8, 64)
            closes = random_walk(rng, n, start=rng.uniform(20.0, 200.0))
            period = rng.randint(1, 10)
            assert_close_lists(sma(closes, period).values, oracles.naive_sma(closes, period))
            assert_close_lists(ema(closes, period).values, oracles.naive_ema(closes, period))
            m = rng.randint(1, 7)
            # exactly rounded, so bit for bit
            assert efficiency_ratio(closes, m).values == oracles.naive_er(closes, m)
            short_n = rng.randint(1, 5)
            long_n = short_n + rng.randint(1, 10)
            assert_close_lists(
                ama(closes, AmaParams(long_n, short_n, m, 1)).values,
                oracles.naive_ama1(closes, long_n, short_n, m),
            )
            assert ama(closes, AmaParams(long_n, short_n, m, 2)).values == oracles.naive_ama2(
                closes, long_n, short_n, m
            )
            if n > period + 1:
                assert_close_lists(
                    rsi(closes, period).values, oracles.rsi_transcription(closes, period)
                )

    def test_moving_average_dispatch(self):
        closes = [1.0, 2.0, 3.0, 4.0]
        assert moving_average(closes, MaSpec("sma", 2)).values == sma(closes, 2).values
        assert moving_average(closes, MaSpec("ema", 2)).values == ema(closes, 2).values
        params = AmaParams(3, 1, 2, 1)
        assert moving_average(closes, params).values == ama(closes, params).values



def exact_rolling_std(x, n):
    head = [0.0] * min(n - 1, len(x))
    return head + [oracles.exact_population_std(x[i - n + 1 : i + 1]) for i in range(n - 1, len(x))]


def _bits(line):
    """The float64 bytes and the warm-up of an indicator line."""
    return array("d", line.values).tobytes(), line.warmup_len


def typical_prices(series):
    return [(h + l + c) / 3.0 for h, l, c in zip(series.highs, series.lows, series.closes)]


def assert_exact_windowed_kernels(series, n):
    """sma, rolling_std, atr and the Bollinger parts equal the rational
    oracles bit for bit."""
    closes = series.closes
    assert sma(closes, n).values == oracles.exact_sma(closes, n)
    assert rolling_std(closes, n).values == exact_rolling_std(closes, n)
    tr = oracles.naive_true_range(series.highs, series.lows, closes)
    assert atr(series, n).values == oracles.exact_sma(tr, n)
    tp = typical_prices(series)
    middle, sigma = bollinger_parts(series, n)
    assert middle.values == oracles.exact_sma(tp, n)
    assert sigma.values == exact_rolling_std(tp, n)


# Signed values from 1e-9 to 1e9 and zeros, mixed in one series.
wide_floats = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda digits, exponent, sign: sign * digits * 10.0 ** exponent,
        st.floats(1.0, 9.999), st.integers(-9, 8), st.sampled_from([1.0, -1.0]),
    ),
)


def assert_exact_adaptive_kernels(x, m, short_n, long_n):
    """The efficiency ratio and the SMA-based adaptive average equal the
    rational oracles bit for bit."""
    assert efficiency_ratio(x, m).values == oracles.naive_er(x, m)
    params = AmaParams(long_n, short_n, m, 2)
    assert ama(x, params).values == oracles.naive_ama2(x, long_n, short_n, m)


class TestExactContract:
    """sma, rolling_std, the efficiency ratio and ama matype 2 are exactly
    rounded; aroon equals its oracle."""

    @pytest.mark.parametrize("name", ["synthetic_sp500", "v_fixture", "regime_fixture"])
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_fixtures(self, name, n):
        series = parse_csv(DATA_DIR / f"{name}.csv").series
        assert_exact_windowed_kernels(series, n)
        assert_exact_adaptive_kernels(series.closes, n, n, 5 * n)
        up, down, osc = aroon(series, n)
        expected_up, expected_down = oracles.naive_aroon(series.highs, series.lows, n)
        assert up.values == expected_up
        assert down.values == expected_down
        assert osc.values == [u - d for u, d in zip(expected_up, expected_down)]

    @given(x=st.lists(wide_floats, min_size=1, max_size=40), n=st.integers(1, 45))
    @example(x=[1e-9, -3.5, 0.0, 1e9, 2.25e-7, 7e8, -0.0, 1e-9], n=3)
    # window variances below the normal floats, whose roots are normal
    @example(x=[0.0, 1e-200], n=2)
    @example(x=[0.0, 3e-160, 1e-160], n=3)
    def test_sma_and_std_on_wide_values(self, x, n):
        assert sma(x, n).values == oracles.exact_sma(x, n)
        assert rolling_std(x, n).values == exact_rolling_std(x, n)

    @given(x=st.lists(wide_floats, max_size=40), m=st.integers(1, 45),
           short_n=st.integers(1, 5), extra=st.integers(1, 10))
    # a noise below the floor, and a long window of the suite's shape
    @example(x=[1.0, 1.00001, 1.00002, 1.0], m=3, short_n=1, extra=1)
    @example(x=[float(v % 7) for v in range(40)], m=30, short_n=5, extra=10)
    def test_er_and_adaptive_mean_on_wide_values(self, x, m, short_n, extra):
        assert_exact_adaptive_kernels(x, m, short_n, short_n + extra)

    @given(closes=st.lists(wide_floats.map(abs).filter(bool), min_size=1, max_size=40),
           n=st.integers(1, 45))
    def test_atr_and_bollinger_on_wide_prices(self, closes, n):
        series = make_series(closes, highs=[c * 1.5 for c in closes],
                             lows=[c * 0.75 for c in closes])
        assert_exact_windowed_kernels(series, n)

    @given(data=st.data(), n=st.integers(1, 12))
    def test_aroon_with_tied_extremes(self, data, n):
        # few distinct levels make plateaus of tied highs and lows
        length = data.draw(st.integers(n + 1, 60))
        lows = data.draw(st.lists(st.integers(1, 3), min_size=length, max_size=length))
        highs = data.draw(st.lists(st.integers(4, 6), min_size=length, max_size=length))
        series = make_series(lows, highs=highs, lows=lows)
        up, down, osc = aroon(series, n)
        expected_up, expected_down = oracles.naive_aroon(series.highs, series.lows, n)
        assert up.values == expected_up
        assert down.values == expected_down
        assert osc.values == [u - d for u, d in zip(expected_up, expected_down)]

    def test_a_series_sma_is_the_sma_of_its_closes(self):
        # every window, and one past the series, over the series' one close column
        series = parse_csv(DATA_DIR / "synthetic_sp500.csv").series
        closes = list(series.closes)
        for n in range(1, len(series) + 2):
            assert _bits(sma(series, n)) == _bits(sma(closes, n))

    @given(closes=st.lists(wide_floats.map(abs).filter(bool), min_size=1, max_size=40))
    def test_a_series_sma_and_std_are_those_of_its_closes(self, closes):
        series = make_series(closes)
        closes = list(series.closes)
        for n in range(1, len(series) + 2):
            assert _bits(sma(series, n)) == _bits(sma(closes, n))
            assert _bits(rolling_std(series, n)) == _bits(rolling_std(closes, n))

    def test_non_finite_input_is_domain_error(self):
        for bad in (math.inf, -math.inf, math.nan):
            for kernel in (sma, rolling_std, efficiency_ratio):
                with pytest.raises(errors.DomainError):
                    kernel([1.0, bad, 2.0], 2)
                with pytest.raises(errors.DomainError):
                    kernel([bad], 5)

    def test_magnitudes_wider_than_one_float_exponent(self):
        # 5e-324 * 2**scale is whole only for a scale that overflows 1e300
        x = [5e-324, 1e300, 2.5, 5e-324, -1e300]
        assert sma(x, 2).values == oracles.exact_sma(x, 2)
        y = [5e-324, 1e150, 2.5, 5e-324, -1e150]
        assert rolling_std(y, 2).values == exact_rolling_std(y, 2)

    def test_variance_past_the_float_range_is_domain_error(self):
        with pytest.raises(errors.DomainError):
            rolling_std([1e200, -1e200], 2)

    def test_a_window_variance_below_the_float_range_keeps_its_root(self):
        # the exact variances 2.5e-401 and about 1.6e-320 lose their bits as floats,
        # their roots do not; these are the true roots, rounded once
        assert rolling_std([0.0, 1e-200], 2).values == [0.0, 5e-201]
        assert rolling_std([0.0, 3e-160, 1e-160], 3).values == [0.0, 0.0, 1.2472191289246472e-160]
        assert exact_rolling_std([0.0, 1e-200], 2) == [0.0, 5e-201]
        assert exact_rolling_std([0.0, 3e-160, 1e-160], 3) == [0.0, 0.0, 1.2472191289246472e-160]


@pytest.mark.parametrize("call, kind, message", [
    (lambda x, s: efficiency_ratio(x, 0), errors.ZeroPeriod, "efficiency-ratio window must be >= 1"),
    (lambda x, s: rsi(x, 0), errors.ZeroPeriod, "rsi period must be >= 1"),
    (lambda x, s: rmi(x, 0, 1), errors.ZeroPeriod, "rmi period must be >= 1"),
    (lambda x, s: rmi(x, 5, 0), errors.ZeroPeriod, "rmi look-back must be >= 1"),
    (lambda x, s: aroon(s, 0), errors.ZeroPeriod, "aroon period must be >= 1"),
    (lambda x, s: rolling_std(x, 0), errors.ZeroPeriod, "rolling std period must be >= 1"),
    (lambda x, s: bollinger(s, 0), errors.ZeroPeriod, "bollinger period must be >= 1"),
    (lambda x, s: macd(x, 12, 26, 0), errors.ZeroPeriod, "macd periods must be >= 1"),
    (lambda x, s: ema(x, 5, 0.0), errors.InvalidParams, "smoothing factor must be > 0"),
    (lambda x, s: ema(x, 5, math.inf), errors.InvalidParams, "smoothing factor must be finite"),
], ids=["efficiency_ratio", "rsi", "rmi period", "rmi look-back", "aroon", "rolling_std",
        "bollinger", "macd", "ema smoothing", "ema infinite smoothing"])
def test_a_bad_period_is_refused_with_its_message(call, kind, message):
    closes = [float(c) for c in range(1, 41)]
    with pytest.raises(kind) as raised:
        call(closes, make_series(closes))
    assert type(raised.value) is kind and str(raised.value) == message
