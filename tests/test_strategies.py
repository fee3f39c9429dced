import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_series, random_ohlcv, random_walk, signal_pairs
from tabacktest import errors
from tabacktest.config import parse_kv_text, sweep_from_dict
from tabacktest.indicators import (
    AmaParams,
    MaSpec,
    bollinger,
    bollinger_parts,
    keltner,
    keltner_parts,
    macd,
    offset_bands,
    rsi,
    sma,
)
from tabacktest.strategies import (
    BUY,
    SELL,
    AroonConfig,
    BollingerConfig,
    KeltnerConfig,
    KernelMemo,
    MacdConfig,
    PriceCrossConfig,
    RsiConfig,
    TwoAverageConfig,
    _breaks,
    _crosses,
    generate_signals,
)
from test_sweep import STRATEGY_GRIDS


def assert_valid_signal_sequence(events):
    expected = BUY
    prev = -1
    for event in events:
        assert event.bar_index > prev
        assert event.action == expected
        prev = event.bar_index
        expected = SELL if expected == BUY else BUY


def v_shape_series(down=40, up=40, start=100.0):
    closes = [start - i for i in range(down)]
    trough = closes[-1]
    closes += [trough + (i + 1) for i in range(up)]
    return make_series(closes)


def lambda_shape_series(dip=20, up=40, down=40, start=100.0):
    # a dip first so the golden cross lands after the warm-up scan start
    closes = [start - i for i in range(dip)]
    closes += [closes[-1] + (i + 1) for i in range(up)]
    closes += [closes[-1] - (i + 1) for i in range(down)]
    return make_series(closes)


class TestTwoAverage:
    CONFIG = TwoAverageConfig(fast=MaSpec("sma", 2), slow=MaSpec("sma", 5))

    def test_identical_specs_emit_nothing(self):
        rng = random.Random(9)
        series = random_ohlcv(rng, 80)
        config = TwoAverageConfig(fast=MaSpec("sma", 4), slow=MaSpec("sma", 4))
        assert generate_signals(series, config) == []

    def test_v_shape_single_buy_matches_cross_oracle(self):
        series = v_shape_series()
        events = signal_pairs(generate_signals(series, self.CONFIG))
        closes = series.closes
        fast = oracles.naive_sma(closes, 2)
        slow = oracles.naive_sma(closes, 5)
        expected = oracles.cross_scan(fast, slow, start=5)
        assert [(e.bar_index, e.action) for e in events] == expected
        buys = [e for e in events if e.action == BUY]
        assert len(buys) == 1
        assert buys[0].bar_index > 40  # strictly after the trough

    def test_lambda_shape_single_sell(self):
        series = lambda_shape_series()
        events = signal_pairs(generate_signals(series, self.CONFIG))
        closes = series.closes
        expected = oracles.cross_scan(
            oracles.naive_sma(closes, 2), oracles.naive_sma(closes, 5), start=5
        )
        assert [(e.bar_index, e.action) for e in events] == expected
        sells = [e for e in events if e.action == SELL]
        assert len(sells) == 1
        assert sells[0].bar_index > 60  # strictly after the peak at bar 59

    def test_too_short(self):
        with pytest.raises(errors.TooShort):
            generate_signals(make_series([1.0, 2.0, 3.0]), self.CONFIG)


class TestPriceCross:
    def test_price_crossing_slow_ma(self):
        series = v_shape_series()
        config = PriceCrossConfig(ma=MaSpec("sma", 5))
        events = signal_pairs(generate_signals(series, config))
        closes = series.closes
        expected = oracles.cross_scan(closes, oracles.naive_sma(closes, 5), start=5)
        assert [(e.bar_index, e.action) for e in events] == expected
        assert events and events[0].action == BUY

    def test_adaptive_ma_accepted(self):
        rng = random.Random(12)
        series = random_ohlcv(rng, 150)
        config = PriceCrossConfig(ma=AmaParams(20, 4, 8, 2))
        events = signal_pairs(generate_signals(series, config))
        assert_valid_signal_sequence(events)


class TestKeltner:
    def test_inside_bands_forever_no_signals(self):
        series = make_series([50.0] * 90)
        config = KeltnerConfig(ma=MaSpec("sma", 5), mult=2.0)
        assert generate_signals(series, config) == []

    def test_breakout_emits_buy_at_breakout_bar(self):
        closes = [10.0] * 30 + [30.0] + [30.0] * 9
        series = make_series(closes, highs=[c + 0.1 for c in closes], lows=[c - 0.1 for c in closes])
        config = KeltnerConfig(ma=MaSpec("sma", 5), mult=2.0)
        events = signal_pairs(generate_signals(series, config))
        assert events[0] == (30, BUY)
        bands = keltner(series, MaSpec("sma", 5), 2.0)
        assert closes[30] > bands.upper.values[30]
        assert closes[29] <= bands.upper.values[29]

    def test_breakout_then_crash_alternates(self):
        closes = [10.0] * 30 + [30.0] * 10 + [2.0] + [2.0] * 9
        series = make_series(closes, highs=[c + 0.1 for c in closes], lows=[c - 0.1 for c in closes])
        config = KeltnerConfig(ma=MaSpec("sma", 5), mult=2.0)
        events = signal_pairs(generate_signals(series, config))
        assert [e.action for e in events[:2]] == [BUY, SELL]
        assert_valid_signal_sequence(events)


class TestBollinger:
    def test_wide_bands_no_signals(self):
        rng = random.Random(21)
        series = random_ohlcv(rng, 100)
        config = BollingerConfig(window=5, dev=50.0)
        assert generate_signals(series, config) == []

    # gentle 0.1-step wiggle stays inside the 1-sigma bands until the plunge
    QUIET = [20.0, 20.1, 20.2, 20.1, 20.2, 20.1, 20.2, 20.1]

    def test_plunge_through_lower_buys(self):
        closes = self.QUIET + [5.0, 5.0]
        series = make_series(closes, highs=[c + 0.05 for c in closes], lows=[c - 0.05 for c in closes])
        config = BollingerConfig(window=3, dev=1.0)
        events = signal_pairs(generate_signals(series, config))
        assert events == [(8, BUY)]
        bands = bollinger(series, 3, 1.0)
        assert closes[8] < bands.lower.values[8]
        assert closes[7] >= bands.lower.values[7]

    def test_plunge_then_spike_buy_sell(self):
        closes = self.QUIET + [5.0, 5.0, 5.1, 4.9, 5.0, 40.0, 40.0]
        series = make_series(closes, highs=[c + 0.05 for c in closes], lows=[c - 0.05 for c in closes])
        config = BollingerConfig(window=3, dev=1.0)
        events = signal_pairs(generate_signals(series, config))
        assert [e.action for e in events[:2]] == [BUY, SELL]
        assert_valid_signal_sequence(events)

    def test_opposite_of_keltner_on_band_exit(self):
        # flat-only fixture: an upward exit is a keltner entry but can never
        # open a bollinger long
        closes = [10.0] * 30 + [30.0] + [30.0] * 9
        series = make_series(closes, highs=[c + 0.1 for c in closes], lows=[c - 0.1 for c in closes])
        keltner_events = signal_pairs(
            generate_signals(series, KeltnerConfig(ma=MaSpec("sma", 5), mult=1.0)))
        assert keltner_events and keltner_events[0].action == BUY
        boll_events = signal_pairs(generate_signals(series, BollingerConfig(window=5, dev=1.0)))
        assert boll_events == []

    def test_same_upper_exit_keltner_buys_bollinger_sells(self):
        # plunge first so the bollinger leg is long, then a spike above both
        # upper bands on the same bar
        closes = self.QUIET + [5.0, 5.0, 5.1, 4.9, 5.0, 40.0, 40.0]
        series = make_series(closes, highs=[c + 0.05 for c in closes], lows=[c - 0.05 for c in closes])
        spike = 13
        boll_events = signal_pairs(generate_signals(series, BollingerConfig(window=3, dev=1.0)))
        assert (spike, SELL) in boll_events
        keltner_events = signal_pairs(
            generate_signals(series, KeltnerConfig(ma=MaSpec("sma", 3), mult=1.0)))
        keltner_buys = [e.bar_index for e in keltner_events if e.action == BUY]
        assert spike in keltner_buys


@pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan])
def test_a_band_config_factor_must_be_finite(factor):
    with pytest.raises(errors.InvalidParams):
        KeltnerConfig(ma=MaSpec("sma", 5), mult=factor)
    with pytest.raises(errors.InvalidParams):
        BollingerConfig(window=5, dev=factor)


@pytest.mark.parametrize("factor, rule", [(-1.0, ">= 0"), (math.inf, "finite"), (math.nan, "finite")])
def test_each_band_factor_names_itself(factor, rule):
    # the kernels and the configs share one check, each under its own name
    series = random_ohlcv(random.Random(5), 40)
    for name, make in [
        ("band multiplier", lambda: keltner(series, MaSpec("sma", 5), factor)),
        ("dev", lambda: bollinger(series, 5, factor)),
        ("mult", lambda: KeltnerConfig(ma=MaSpec("sma", 5), mult=factor)),
        ("dev", lambda: BollingerConfig(window=5, dev=factor)),
    ]:
        with pytest.raises(errors.InvalidParams) as raised:
            make()
        assert str(raised.value) == f"{name} must be {rule}"


class TestRsiStrategy:
    def make_oversold_plateau(self):
        # long drift down to force RSI under the threshold, then a flat pair
        closes = [200.0 - 1.5 * i for i in range(70)]
        closes += [closes[-1]] * 4  # plateau: downrate == 0
        closes += [closes[-1] + 0.5 * i for i in range(1, 30)]
        return make_series(closes)

    def test_diff_rate_zero_monotone_never_buys(self):
        closes = [200.0 - 1.0 * i for i in range(80)]
        series = make_series(closes)
        config = RsiConfig(n=6, diff_rate=0.0)
        assert generate_signals(series, config) == []

    def test_oversold_plateau_buys(self):
        series = self.make_oversold_plateau()
        config = RsiConfig(n=6, diff_rate=0.0)
        events = signal_pairs(generate_signals(series, config))
        assert events and events[0].action == BUY
        strength = rsi(series.closes, 6).values
        i = events[0].bar_index
        assert strength[i] < 30.0
        assert series.closes[i] == series.closes[i - 1]

    def test_constraint_gate_blocks_buy(self):
        series = self.make_oversold_plateau()
        plain = RsiConfig(n=6, diff_rate=0.0)
        buy_bar = generate_signals(series, plain)[0]
        # with a huge negative band the close never sits far enough below the SMA
        gated = RsiConfig(n=6, diff_rate=0.0, rsitype=2, sma_n=3, sma_rate=0.02)
        gated_events = signal_pairs(generate_signals(series, gated))
        ma_line = sma(series.closes, 3).values
        assert series.closes[buy_bar] >= (1 - 0.02) * ma_line[buy_bar]
        assert all(e.bar_index != buy_bar for e in gated_events)

    def test_scan_window_matches_listing(self):
        # signals can never appear before bar 60 nor at the final bar
        series = self.make_oversold_plateau()
        config = RsiConfig(n=6, diff_rate=1.0, upper_thres=50.1, down_thres=49.9)
        events = signal_pairs(generate_signals(series, config))
        for event in events:
            assert 60 <= event.bar_index < len(series) - 1

    def test_too_short(self):
        with pytest.raises(errors.TooShort):
            generate_signals(make_series([1.0] * 61), RsiConfig(n=6))

    def test_invalid_thresholds(self):
        with pytest.raises(errors.InvalidParams):
            RsiConfig(n=6, down_thres=80.0, upper_thres=70.0)
        with pytest.raises(errors.InvalidParams):
            RsiConfig(n=6, rsitype=2)  # sma_n missing


class TestAroonStrategy:
    def trough_series(self):
        closes = [150.0 - 1.0 * i for i in range(75)]
        closes += [closes[-1] + 1.0 * (i + 1) for i in range(40)]
        return make_series(closes, highs=[c + 0.2 for c in closes], lows=[c - 0.2 for c in closes])

    def test_monotone_up_from_start_no_signals(self):
        closes = [10.0 + i for i in range(90)]
        series = make_series(closes, highs=[c + 0.2 for c in closes], lows=[c - 0.2 for c in closes])
        assert generate_signals(series, AroonConfig(n=10)) == []

    def test_trough_type1_buys_at_cross(self):
        from tabacktest.indicators import aroon as aroon_indicator

        series = self.trough_series()
        events = signal_pairs(generate_signals(series, AroonConfig(n=10)))
        assert events and events[0].action == BUY
        up, down, _ = aroon_indicator(series, 10)
        i = events[0].bar_index
        assert up.values[i - 1] < down.values[i - 1]
        assert up.values[i] > down.values[i]
        expected_up, expected_down = oracles.naive_aroon(series.highs, series.lows, 10)
        expected = [
            (i, action)
            for i, action in oracles.cross_scan(expected_up, expected_down, 60)
            if i < len(series) - 1
        ]
        assert (events[0].bar_index, events[0].action) == expected[0]

    def test_type2_gate_suppresses_buy(self):
        series = self.trough_series()
        type1 = signal_pairs(generate_signals(series, AroonConfig(n=10, aroon_type=1)))
        buy_bar = type1[0].bar_index
        from tabacktest.indicators import aroon as aroon_indicator

        _, down, _ = aroon_indicator(series, 10)
        assert down.values[buy_bar] > 45.0  # fresh trough: down line still strong
        type2 = signal_pairs(
            generate_signals(series, AroonConfig(n=10, aroon_type=2, weak_thres=45.0)))
        assert all(e.bar_index != buy_bar for e in type2)


class TestMacdStrategy:
    def test_equal_periods_no_signals(self):
        rng = random.Random(31)
        series = random_ohlcv(rng, 120)
        assert generate_signals(series, MacdConfig(5, 5, 3)) == []

    def test_constant_series_no_signals(self):
        series = make_series([25.0] * 100)
        assert generate_signals(series, MacdConfig(4, 10, 3)) == []

    def test_sinusoid_alternates_and_matches_cross_oracle(self):
        import math

        closes = [100.0 + 10.0 * math.sin(2 * math.pi * i / 20.0) for i in range(120)]
        series = make_series(closes)
        events = signal_pairs(generate_signals(series, MacdConfig(4, 10, 3)))
        assert len(events) >= 6
        assert_valid_signal_sequence(events)
        fast = oracles.naive_ema(closes, 4)
        slow = oracles.naive_ema(closes, 10)
        line = [f - s for f, s in zip(fast, slow)]
        signal = oracles.naive_sma(line, 3)
        expected = oracles.cross_scan(line, signal, start=3)
        assert [(e.bar_index, e.action) for e in events] == expected


class TestSignalInvariants:
    @pytest.mark.parametrize("config", [
        TwoAverageConfig(fast=MaSpec("sma", 3), slow=MaSpec("sma", 11)),
        TwoAverageConfig(fast=AmaParams(12, 3, 6, 2), slow=MaSpec("sma", 20)),
        PriceCrossConfig(ma=AmaParams(15, 4, 8, 1)),
        KeltnerConfig(ma=MaSpec("ema", 6), mult=1.0),
        RsiConfig(n=4, diff_rate=0.01),
        RsiConfig(n=4, diff_rate=0.01, rsitype=2, sma_n=10, sma_rate=0.001),
        AroonConfig(n=8),
        AroonConfig(n=8, aroon_type=2),
        BollingerConfig(window=6, dev=1.2),
        BollingerConfig(window=AmaParams(14, 4, 6, 1), dev=1.2),
        MacdConfig(4, 12, 5),
    ])
    def test_alternation_and_scan_start_on_random_series(self, config):
        rng = random.Random(hash(str(config)) % (2**31))
        for _ in range(5):
            series = random_ohlcv(rng, rng.randint(80, 200))
            events = signal_pairs(generate_signals(series, config))
            assert_valid_signal_sequence(events)

    def test_purity(self):
        rng = random.Random(77)
        series = random_ohlcv(rng, 150)
        config = TwoAverageConfig(fast=MaSpec("sma", 3), slow=MaSpec("sma", 9))
        first = generate_signals(series, config)
        second = generate_signals(series, config)
        assert first == second

    def test_constant_series_all_strategies_silent(self):
        series = make_series([42.0] * 150, highs=[42.0] * 150, lows=[42.0] * 150)
        configs = [
            TwoAverageConfig(fast=MaSpec("sma", 3), slow=MaSpec("sma", 11)),
            PriceCrossConfig(ma=MaSpec("ema", 7)),
            KeltnerConfig(ma=MaSpec("sma", 5)),
            RsiConfig(n=5),
            AroonConfig(n=9),
            BollingerConfig(window=5),
            MacdConfig(),
        ]
        for config in configs:
            assert generate_signals(series, config) == []


# -- equivalence with the per-strategy loops ----------------------------------

TICK = 0.25  # prices on a binary grid, so plateaus make averages equal closes exactly


@st.composite
def walks(draw):
    """OHLC bars of a random walk on a 0.25 grid with many flat steps, and
    bars whose high and low equal the close, so ties and exact band
    touches are common. Drifting stretches push the oscillators to their
    extremes. 62+ bars reach past the oscillator scan start. The steps
    come from a drawn seed: uniform steps find more ties than the small
    values hypothesis favours."""
    n = draw(st.integers(min_value=62, max_value=140))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    closes, drift = [200.0], 0
    for _ in range(n - 1):
        if rng.random() < 0.04:
            drift = rng.choice((-1, 0, 1))
        closes.append(closes[-1] + (drift + rng.choice((-2, -1, 0, 0, 0, 1, 2))) * TICK)
    spreads = [rng.choice((0, 0, 1, 2)) * TICK for _ in closes]
    return make_series(closes, highs=[c + s for c, s in zip(closes, spreads)],
                       lows=[c - s for c, s in zip(closes, spreads)])


# sampled_from draws evenly, where integers() favours the small bounds
periods = st.sampled_from(range(1, 31))
adaptive = st.builds(
    lambda short, extra, win, matype: AmaParams(short + extra, short, win, matype),
    st.integers(1, 10), st.integers(1, 20), st.integers(1, 15), st.sampled_from([1, 2]))
lines = st.one_of(st.builds(MaSpec, st.sampled_from(["sma", "ema"]), periods), adaptive)
widths = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5])
STRATEGY_CONFIGS = {
    "two_average": st.builds(TwoAverageConfig, lines, lines),
    "price_cross": st.builds(PriceCrossConfig, lines),
    "keltner": st.builds(KeltnerConfig, lines, widths),
    "rsi": st.builds(
        lambda n, thresholds, rate, rsitype, sma_n, sma_rate: RsiConfig(
            n, *thresholds, diff_rate=rate, rsitype=rsitype, sma_n=sma_n, sma_rate=sma_rate),
        st.sampled_from(range(1, 21)), st.sampled_from([(30.0, 70.0), (45.0, 55.0)]),
        # short SMA gates, so plateaus make the close equal its SMA
        st.sampled_from([0.0, 0.0024, 0.01, 0.05]), st.sampled_from([1, 2]),
        st.sampled_from([1, 2, 3, 5, 10, 20]), st.sampled_from([0.0, 0.001])),
    # weak thresholds the Aroon lines can equal exactly, so the type-2 gate meets ties
    "aroon": st.sampled_from(range(2, 13)).flatmap(lambda n: st.builds(
        AroonConfig, st.just(n), st.sampled_from([1, 2]),
        st.sampled_from([100.0 * (n - k) / n for k in range(1, n)]))),
    "bollinger": st.builds(BollingerConfig, st.one_of(periods, adaptive), widths),
    "macd": st.builds(MacdConfig, st.integers(1, 20), st.integers(1, 30), st.integers(1, 12)),
}


def _outcome(signals):
    try:
        return signals()
    except errors.EngineError as exc:
        return type(exc)


@pytest.mark.parametrize("strategy", sorted(STRATEGY_CONFIGS))
@settings(max_examples=150, deadline=None)
@given(series=walks(), data=st.data())
def test_signals_match_the_per_strategy_loops(strategy, series, data):
    config = data.draw(STRATEGY_CONFIGS[strategy])
    engine = _outcome(lambda: signal_pairs(generate_signals(series, config)))
    assert engine == _outcome(lambda: oracles.reference_signals(series, config))


# ties, signed zeros, infinities and NaN: every case a comparison can meet
EDGE_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, math.inf, -math.inf, math.nan])


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(st.tuples(EDGE_VALUES, EDGE_VALUES, EDGE_VALUES), min_size=1, max_size=12),
       data=st.data())
def test_cross_and_break_scans_equal_their_per_bar_definitions(lines, data):
    a, b, c = (list(line) for line in zip(*lines))
    start = data.draw(st.integers(1, len(a)))
    bars = range(start, data.draw(st.integers(start, len(a))))
    assert _crosses(a, b, bars) == (
        [i for i in bars if a[i - 1] < b[i - 1] and a[i] > b[i]],
        [i for i in bars if a[i - 1] > b[i - 1] and a[i] < b[i]])
    assert _breaks(a, b, c, bars) == (
        [i for i in bars if a[i - 1] <= b[i - 1] and a[i] > b[i]],
        [i for i in bars if a[i - 1] >= c[i - 1] and a[i] < c[i]])


# -- the kernel memo and the bar-list signal path -----------------------------------

def test_a_memo_hit_equals_a_fresh_kernel_call():
    series = make_series(random_walk(random.Random(3), 120))
    memo = KernelMemo(series)
    fresh = sma(series.closes, 7)
    for served in (memo(sma, 7), memo(sma, 7)):  # a miss, then a hit
        assert served.warmup_len == fresh.warmup_len
        assert list(served.values) == fresh.values
    parts = memo(macd, 3, 9, 4)
    assert ([list(part.values) for part in parts]
            == [part.values for part in macd(series.closes, 3, 9, 4)])


def test_a_memo_hit_is_read_only():
    series = make_series(random_walk(random.Random(3), 50))
    memo = KernelMemo(series)
    first = memo(sma, 5)
    with pytest.raises(TypeError):
        first.values[10] = -1.0
    hit = memo(sma, 5)
    with pytest.raises(TypeError):
        hit.values[10] = -1.0
    unchanged = memo(sma, 5)
    assert list(unchanged.values) == sma(series.closes, 5).values


def test_a_repeated_call_does_not_run_the_kernel_again():
    calls = []

    def counted(data, n):
        calls.append(n)
        return sma(data, n)

    series = make_series(random_walk(random.Random(5), 60))
    memo = KernelMemo(series)
    for n in (5, 5, 6, 5, 6):
        assert list(memo(counted, n).values) == sma(series.closes, n).values
    assert calls == [5, 6]
    # a hit hands out the stored entry itself, not a new series or view
    assert memo(counted, 5) is memo(counted, 5)


def test_the_kernel_is_part_of_the_key():
    series = make_series(random_walk(random.Random(6), 80))
    memo = KernelMemo(series)
    averaged, strength = memo(sma, 5), memo(rsi, 5)
    assert list(averaged.values) == sma(series.closes, 5).values
    assert list(strength.values) == rsi(series.closes, 5).values
    assert list(averaged.values) != list(strength.values)
    assert list(memo(sma, 5).values) == list(averaged.values)


def test_a_memo_of_another_series_is_refused():
    rng = random.Random(8)
    series, other = random_ohlcv(rng, 120), random_ohlcv(rng, 120)
    config = TwoAverageConfig(fast=MaSpec("sma", 3), slow=MaSpec("sma", 9))
    memo = KernelMemo(other)
    with pytest.raises(errors.InvalidParams):
        generate_signals(series, config, memo)
    assert generate_signals(other, config, memo) == generate_signals(other, config)


def test_an_unknown_config_object_is_refused():
    series = random_ohlcv(random.Random(9), 80)
    with pytest.raises(errors.InvalidParams) as raised:
        generate_signals(series, object())
    assert type(raised.value) is errors.InvalidParams
    assert str(raised.value) == "unknown strategy config object"


def _band_values(bands):
    return [list(line.values) for line in (bands.middle, bands.upper, bands.lower)]


@pytest.mark.parametrize("ma", [MaSpec("ema", 10), AmaParams(21, 3, 8, 2)])
def test_band_parts_from_the_memo_give_fresh_bands(ma):
    series = random_ohlcv(random.Random(7), 200)
    memo = KernelMemo(series)
    for _ in range(2):  # a miss, then a hit
        parts = memo(keltner_parts, ma)
        for mult in (0.0, 0.5, 2.0):
            assert (_band_values(offset_bands(*parts, mult))
                    == _band_values(keltner(series, ma, mult)))
    window = 20 if isinstance(ma, MaSpec) else ma
    for _ in range(2):
        parts = memo(bollinger_parts, window)
        for dev in (0.0, 0.5, 2.0):
            assert (_band_values(offset_bands(*parts, dev))
                    == _band_values(bollinger(series, window, dev)))


@pytest.mark.parametrize("seed", [1, 4])
@pytest.mark.parametrize("strategy", sorted(STRATEGY_GRIDS))
def test_signal_bars_are_the_bars_of_the_signals(strategy, seed):
    # every cell of the strategy's sweep grid: the bars from one shared memo
    # are those from a fresh memo per cell
    series = random_ohlcv(random.Random(seed), 320)
    spec = sweep_from_dict(parse_kv_text(f"strategy = {strategy}\n" + STRATEGY_GRIDS[strategy]))
    names = [path for path, _ in spec.axes]
    memo = KernelMemo(series)
    for values in itertools.product(*(values for _, values in spec.axes)):
        config = spec.cell_config(zip(names, values))
        bars = generate_signals(series, config)
        assert_valid_signal_sequence(signal_pairs(bars))
        assert generate_signals(series, config, memo) == bars
