"""Property-based invariants: bounds, alignment, fixed points, ordering."""
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_series, signal_pairs
from tabacktest.backtest import run
from tabacktest.indicators import (
    AmaParams,
    MaSpec,
    ama,
    aroon,
    bollinger,
    bollinger_parts,
    efficiency_ratio,
    ema,
    keltner,
    macd,
    rmi,
    rsi,
    sma,
)
from tabacktest.metrics import max_drawdown
from tabacktest.strategies import BUY, SELL, generate_signals, MacdConfig

prices = st.floats(min_value=0.5, max_value=5000.0, allow_nan=False, allow_infinity=False)
price_lists = st.lists(prices, min_size=2, max_size=64)
# exact window sums make sma, ama matype 2 and the band widths hold any
# positive finite constant bitwise
positive_constant = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def ohlcv_from_closes(closes):
    return make_series(
        closes,
        highs=[c * 1.02 for c in closes],
        lows=[c * 0.98 for c in closes],
    )


@given(closes=price_lists, n=st.integers(1, 20))
def test_alignment_sma_ema(closes, n):
    assert len(sma(closes, n)) == len(closes)
    assert len(ema(closes, n)) == len(closes)


@given(closes=price_lists, m=st.integers(1, 20))
def test_er_bounded_and_aligned(closes, m):
    out = efficiency_ratio(closes, m)
    assert len(out) == len(closes)
    assert all(-1.0 <= v <= 1.0 for v in out.values)
    assert all(math.isfinite(v) for v in out.values)


@given(
    closes=price_lists,
    short_n=st.integers(1, 6),
    spread=st.integers(1, 20),
    m=st.integers(1, 10),
    matype=st.sampled_from([1, 2]),
)
def test_ama_aligned_finite(closes, short_n, spread, m, matype):
    params = AmaParams(short_n + spread, short_n, m, matype)
    out = ama(closes, params)
    assert len(out) == len(closes)
    assert all(math.isfinite(v) for v in out.values)
    if matype == 2:
        lo, hi = min(closes), max(closes)
        for v in out.values[params.timeperiod_long:]:
            assert lo - 1e-9 <= v <= hi + 1e-9


@given(
    er=st.floats(-1.0, 1.0, allow_nan=False),
    short_n=st.integers(1, 30),
    spread=st.integers(1, 60),
)
def test_adaptive_period_stays_inside_bounds(er, short_n, spread):
    from tabacktest.indicators import adaptive_period

    params = AmaParams(short_n + spread, short_n, 5, 2)
    period = adaptive_period(er, params)
    assert params.timeperiod_short <= period <= params.timeperiod_long


@given(constant=positive_constant, length=st.integers(2, 48), n=st.integers(1, 12))
def test_constant_fixed_point_all_ma_variants(constant, length, n):
    closes = [constant] * length
    assert sma(closes, n).values == closes
    assert ema(closes, n).values == closes
    short_n = max(1, n // 2)
    long_n = short_n + max(1, n)
    assert ama(closes, AmaParams(long_n, short_n, 5, 1)).values == closes


@given(constant=positive_constant, length=st.integers(2, 48), n=st.integers(1, 12))
def test_constant_fixed_point_sum_based_ama(constant, length, n):
    closes = [constant] * length
    short_n = max(1, n // 2)
    long_n = short_n + max(1, n)
    assert ama(closes, AmaParams(long_n, short_n, 5, 2)).values == closes


# below a quarter of the float range, so the typical price's sum h + l + c
# stays finite
@given(constant=st.floats(min_value=0.0, max_value=sys.float_info.max / 4, exclude_min=True),
       length=st.integers(5, 48), n=st.integers(1, 10))
def test_constant_fixed_point_bands_and_macd(constant, length, n):
    closes = [constant] * length
    series = make_series(closes, highs=closes, lows=closes)
    # (c + c + c) / 3 need not round back to c
    typical = [(constant + constant + constant) / 3.0] * length
    assert bollinger_parts(series, n)[1].values == [0.0] * length
    bands = bollinger(series, n, 2.0)
    assert bands.middle.values == typical
    assert bands.upper.values == typical
    assert bands.lower.values == typical
    channel = keltner(series, MaSpec("sma", n), 2.0)
    assert channel.middle.values == typical
    assert channel.upper.values == typical
    line, signal, hist = macd(closes, 3, 7, 3)
    assert line.values == [0.0] * length
    assert signal.values == [0.0] * length
    assert hist.values == [0.0] * length


@given(closes=st.lists(prices, min_size=4, max_size=64), n=st.integers(1, 12))
def test_sma_range_containment(closes, n):
    out = sma(closes, n).values
    for i in range(n - 1, len(closes)):
        window = closes[i - n + 1 : i + 1]
        assert min(window) - 1e-9 <= out[i] <= max(window) + 1e-9


@given(closes=st.lists(prices, min_size=4, max_size=64), n=st.integers(1, 10))
def test_rsi_bounds(closes, n):
    out = rsi(closes, n)
    assert len(out) == len(closes)
    assert all(0.0 <= v <= 100.0 for v in out.values)


@given(
    closes=st.lists(prices, min_size=8, max_size=64),
    n=st.integers(1, 8),
    m=st.integers(1, 6),
)
def test_rmi_bounds_and_identity(closes, n, m):
    if len(closes) > m:
        out = rmi(closes, n, m)
        assert all(0.0 <= v <= 100.0 for v in out.values)
    assert rmi(closes, n, 1).values == rsi(closes, n).values


@given(
    closes=st.lists(prices, min_size=2, max_size=64),
    n=st.integers(1, 12),
    m=st.integers(1, 4),
)
def test_rsi_and_rmi_match_the_definition(closes, n, m):
    # short series (fewer bars than m + n, or than m) are included
    expected = oracles.naive_rmi(closes, n, m)
    if len(closes) > m:
        out = rmi(closes, n, m)
        assert out.values == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert out.warmup_len == min(m + n, len(closes))
    if m == 1:
        assert rsi(closes, n).values == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert oracles.rsi_transcription(closes, n) == pytest.approx(expected, rel=1e-12,
                                                                      abs=1e-12)


@given(closes=st.lists(prices, min_size=10, max_size=64), n=st.integers(1, 8))
def test_aroon_bounds(closes, n):
    series = ohlcv_from_closes(closes)
    up, down, osc = aroon(series, n)
    assert all(0.0 <= v <= 100.0 for v in up.values)
    assert all(0.0 <= v <= 100.0 for v in down.values)
    assert all(-100.0 <= v <= 100.0 for v in osc.values)


@given(closes=st.lists(prices, min_size=6, max_size=64), n=st.integers(1, 8),
       dev=st.floats(0.0, 4.0))
def test_band_ordering(closes, n, dev):
    series = ohlcv_from_closes(closes)
    bands = bollinger(series, n, dev)
    for lo, mid, hi in zip(bands.lower.values, bands.middle.values, bands.upper.values):
        assert lo <= mid <= hi
    channel = keltner(series, MaSpec("sma", n), dev)
    for lo, mid, hi in zip(channel.lower.values, channel.middle.values, channel.upper.values):
        assert lo <= mid <= hi


@given(values=st.lists(prices, min_size=1, max_size=120))
def test_mdd_single_pass_equals_brute_force(values):
    assert max_drawdown(values) == oracles.brute_force_mdd(values)


@given(closes=st.lists(prices, min_size=30, max_size=90),
       short_n=st.integers(1, 6), spread=st.integers(1, 10), signal_n=st.integers(1, 6))
def test_macd_signals_always_valid(closes, short_n, spread, signal_n):
    series = ohlcv_from_closes(closes)
    events = signal_pairs(generate_signals(series, MacdConfig(short_n, short_n + spread, signal_n)))
    expected = BUY
    prev = -1
    for event in events:
        assert event.bar_index > prev
        assert event.action == expected
        prev = event.bar_index
        expected = SELL if expected == BUY else BUY


@given(closes=st.lists(prices, min_size=3, max_size=80), data=st.data())
@settings(max_examples=60)
def test_backtest_multiplicativity(closes, data):
    series = ohlcv_from_closes(closes)
    length = len(closes)
    indices = data.draw(
        st.lists(st.integers(0, length - 1), unique=True, max_size=min(8, length))
    )
    result = run(series, sorted(indices))
    product = result.equity[0]
    for entry, exit_bar in result.trades:
        product *= closes[exit_bar if exit_bar is not None else -1] / closes[entry]
    assert math.isclose(result.equity[-1], product, rel_tol=1e-12)
