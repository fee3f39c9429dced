"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 checks how much of the optimal expected log growth
f(x) = p*ln(1 + L*x) + q*ln(1 - M*x) a half-Kelly bet keeps. For the
blackjack bet (p=0.9, L=1.1, M=1) direct evaluation gives
f(x*/2)/f(x*) = 0.6861. The rule that half the bet keeps three quarters
of the growth is exact only for the second-order expansion
f2(x) = mu*x - s2*x**2/2 (mu = pL - qM, s2 = pL**2 + qM**2), whose ratio
is 3/4 for every bet; the exact ratio tends to 3/4 as the edge shrinks,
falls below it for a large edge like this one and rises above it for
long shots. What holds for any interior optimum, by strict concavity and
f(0) = 0, is 1/2 < f(x*/2)/f(x*) < 1.
"""
import functools
import json
import random
import time

import numpy as np
import pytest

import oracles
from conftest import DATA_DIR, make_series, random_ohlcv, random_walk, signal_pairs
from tabacktest.backtest import run
from tabacktest.cli import main
from tabacktest.indicators import (
    AmaParams,
    MaSpec,
    ama,
    aroon,
    bollinger,
    efficiency_ratio,
    ema,
    keltner,
    macd,
    rmi,
    rsi,
    sma,
)
from tabacktest.kelly import KellyParams, expected_log_return, kelly_curve, optimal_fraction
from tabacktest.market_data import parse_csv, slice_years
from tabacktest.metrics import (
    build_report,
    daily_returns,
    information_ratio_annual,
    max_drawdown,
    sharpe_annual,
    yearly_rr,
)
from tabacktest.strategies import (
    SELL,
    AroonConfig,
    BollingerConfig,
    KeltnerConfig,
    MacdConfig,
    PriceCrossConfig,
    RsiConfig,
    TwoAverageConfig,
    generate_signals,
)

BLACKJACK = KellyParams(p=0.9, l_gain=1.1, m_loss=1.0)


def checked(number, name):
    """Print the criterion verdict whether the body passes or raises."""

    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number:02d} {name}: PASS")

        return wrapper

    return decorator


@checked(1, "kelly optimum closed form, grid argmax, rounding, runtime")
def test_criterion_01_kelly_optimum():
    started = time.monotonic()
    best = optimal_fraction(BLACKJACK)
    assert abs(best - 0.8090909090909091) < 1e-9
    curve = kelly_curve(BLACKJACK, grid_points=1001)
    step = curve[1][0] - curve[0][0]
    grid_best = max(curve, key=lambda point: point[1])[0]
    assert abs(grid_best - best) <= step
    assert round(best, 2) == 0.81
    assert time.monotonic() - started < 1.0


def _half_kelly_share(params):
    best = optimal_fraction(params)
    return expected_log_return(best / 2.0, params) / expected_log_return(best, params)


@checked(2, "half-Kelly bet keeps 0.686 of the optimal log return; 3/4 only in the quadratic limit")
def test_criterion_02_half_kelly_claim():
    best = optimal_fraction(BLACKJACK)
    full_value = expected_log_return(best, BLACKJACK)
    half_value = expected_log_return(best / 2.0, BLACKJACK)
    # oracle at the closed-form optimum (pL - qM)/(LM) = 0.89/1.1
    x_star = 0.89 / 1.1
    expected_full = oracles.kelly_log_growth(x_star, 0.9, 1.1, 1.0)
    expected_half = oracles.kelly_log_growth(x_star / 2.0, 0.9, 1.1, 1.0)
    assert full_value == pytest.approx(expected_full, rel=1e-12)
    assert half_value == pytest.approx(expected_half, rel=1e-12)
    share = half_value / full_value
    assert round(share, 3) == 0.686
    # strict concavity and f(0) = 0 bound the share for any interior optimum
    assert 0.5 < share < 1.0

    # the 3/4 rule is exact for the quadratic expansion of f ...
    p, q, l_gain, m_loss = BLACKJACK.p, BLACKJACK.q, BLACKJACK.l_gain, BLACKJACK.m_loss
    mu = p * l_gain - q * m_loss
    s2 = p * l_gain**2 + q * m_loss**2

    def quadratic(x):
        return mu * x - 0.5 * s2 * x * x

    quad_best = mu / s2
    assert abs(quadratic(quad_best / 2.0) / quadratic(quad_best) - 0.75) <= 1e-12
    # ... and the small-edge limit of the exact curve
    assert abs(_half_kelly_share(KellyParams(p=0.501, l_gain=1.0, m_loss=1.0)) - 0.75) < 1e-6
    # but it is no ceiling: a 20-to-1 long shot keeps more
    assert 0.75 < _half_kelly_share(KellyParams(p=0.1, l_gain=20.0, m_loss=1.0)) < 1.0


@checked(3, "streaming max drawdown equals O(n^2) brute force on 1000 series")
def test_criterion_03_mdd_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(1000):
        n = int(rng.integers(1, 2001))
        values = rng.uniform(0.5, 500.0, size=n)
        series = [float(v) for v in values]
        assert max_drawdown(series) == oracles.brute_force_mdd(series)
    assert time.monotonic() - started < 30.0


@checked(4, "rmi with look-back 1 equals rsi elementwise on 100 walks")
def test_criterion_04_rmi_rsi_identity():
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randint(2, 12)
        closes = random_walk(rng, rng.randint(n + 2, 150))
        assert rmi(closes, n, 1).values == rsi(closes, n).values


@checked(5, "indicator bounds hold on 500 random series with zero violations")
def test_criterion_05_indicator_bounds():
    rng = random.Random(505)
    for _ in range(500):
        length = rng.randint(10, 60)
        series = random_ohlcv(rng, length)
        closes = series.closes
        n = rng.randint(1, 8)
        for v in rsi(closes, n).values:
            assert 0.0 <= v <= 100.0
        m = rng.randint(1, min(6, length - 1))
        for v in rmi(closes, n, m).values:
            assert 0.0 <= v <= 100.0
        if length > n:
            up, down, osc = aroon(series, n)
            for v in up.values + down.values:
                assert 0.0 <= v <= 100.0
            for v in osc.values:
                assert -100.0 <= v <= 100.0
        for v in efficiency_ratio(closes, m).values:
            assert abs(v) <= 1.0
        dev = rng.uniform(0.0, 3.0)
        bands = bollinger(series, n, dev)
        for lo, mid, hi in zip(bands.lower.values, bands.middle.values, bands.upper.values):
            assert lo <= mid <= hi
        channel = keltner(series, MaSpec("sma", n), dev)
        for lo, mid, hi in zip(channel.lower.values, channel.middle.values, channel.upper.values):
            assert lo <= mid <= hi


@checked(6, "constant series: MA fixed points, zero MACD, silent strategies")
def test_criterion_06_constant_series_fixed_points():
    for constant in (5.0, 42.0, 1308.0):
        closes = [constant] * 150
        series = make_series(closes, highs=closes, lows=closes)
        assert sma(closes, 7).values == closes
        assert ema(closes, 7).values == closes
        assert ama(closes, AmaParams(20, 4, 8, 1)).values == closes
        assert ama(closes, AmaParams(20, 4, 8, 2)).values == closes
        bands = bollinger(series, 6, 2.0)
        assert bands.middle.values == closes
        assert bands.upper.values == closes
        assert bands.lower.values == closes
        channel = keltner(series, MaSpec("sma", 6), 2.0)
        assert channel.middle.values == closes
        line, signal, hist = macd(closes, 12, 26, 9)
        assert line.values == [0.0] * 150
        assert signal.values == [0.0] * 150
        assert hist.values == [0.0] * 150
        configs = [
            TwoAverageConfig(fast=MaSpec("sma", 3), slow=MaSpec("sma", 11)),
            PriceCrossConfig(ma=MaSpec("ema", 7)),
            KeltnerConfig(ma=MaSpec("sma", 5), mult=2.0),
            RsiConfig(n=6),
            RsiConfig(n=6, rsitype=2, sma_n=10),
            AroonConfig(n=9),
            AroonConfig(n=9, aroon_type=2),
            BollingerConfig(window=5, dev=2.0),
            MacdConfig(),
        ]
        for config in configs:
            assert generate_signals(series, config) == []


@checked(7, "sharpe and information ratio match independent recomputation")
def test_criterion_07_metric_formula_oracles():
    rng = random.Random(707)
    for _ in range(100):
        n = rng.randint(20, 400)
        returns = [rng.gauss(0.0005, 0.012) for _ in range(n)]
        benchmark = [rng.gauss(0.0003, 0.010) for _ in range(n)]
        assert sharpe_annual(returns, 0.0, 252) == pytest.approx(
            oracles.numpy_sharpe(returns), abs=1e-12
        )
        assert information_ratio_annual(returns, benchmark, 252) == pytest.approx(
            oracles.numpy_information_ratio(returns, benchmark), abs=1e-12
        )
        zeros = [0.0] * n
        assert sharpe_annual(returns, 0.0, 252) == information_ratio_annual(returns, zeros, 252)


@checked(8, "backtest algebra: trade products and yearly telescoping")
def test_criterion_08_backtest_algebra():
    rng = random.Random(808)
    for _ in range(200):
        length = rng.randint(10, 400)
        series = random_ohlcv(rng, length)
        bars = []
        bar = rng.randint(0, length // 3)
        while bar < length and len(bars) < 12:
            bars.append(bar)
            bar += rng.randint(1, max(1, length // 6))
            if rng.random() < 0.2:
                break
        result = run(series, bars)
        product = result.equity.initial_price
        for trade in result.trades:
            product *= trade.return_factor
        assert result.equity.final_price == pytest.approx(product, rel=1e-12)
        ranges = slice_years(length, 252)
        rr_product = 1.0
        for rr in yearly_rr(result.equity, ranges):
            rr_product *= rr
        rr_whole = result.equity.final_price / result.equity.initial_price
        assert rr_product == pytest.approx(rr_whole, rel=1e-12)


@checked(9, "regime fixture: golden signals, one down-leg sell, smaller MDD")
def test_criterion_09_regime_fixture():
    series = parse_csv(DATA_DIR / "regime_fixture.csv").series
    golden = json.loads((DATA_DIR / "regime_golden.json").read_text())
    config = TwoAverageConfig(fast=MaSpec("sma", 5), slow=MaSpec("sma", 30))
    bars = generate_signals(series, config)
    signals = signal_pairs(bars)
    assert [[e.bar_index, e.action] for e in signals] == golden["signals"]
    # re-derive the golden indices from the brute-force cross oracle
    fast = oracles.naive_sma(series.closes, 5)
    slow = oracles.naive_sma(series.closes, 30)
    assert [list(pair) for pair in oracles.cross_scan(fast, slow, 30)] == golden["signals"]
    down_start = golden["down_start"]
    sells = [e for e in signals if e.action == SELL]
    assert len([e for e in sells if e.bar_index >= down_start]) == 1
    strategy_mdd = max_drawdown(run(series, bars).equity.values)
    hold_mdd = max_drawdown(run(series, [0]).equity.values)
    assert strategy_mdd < hold_mdd


@checked(10, "full pipeline smoke run with adaptive crossover parameters")
def test_criterion_10_pipeline_smoke(tmp_path):
    config = tmp_path / "strategy.cfg"
    config.write_text(
        "strategy = price_cross\n"
        "ma.matype = 2\n"
        "ma.timeperiod_long = 51\n"
        "ma.timeperiod_short = 5\n"
        "ma.ada_win = 12\n"
    )
    code = main([
        "backtest",
        "--data", str(DATA_DIR / "synthetic_sp500.csv"),
        "--config", str(config),
        "--benchmark", "self",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for key in (
        "initial_price", "final_price", "rr_whole", "rr_per_year", "rr_by_year",
        "buy_count", "max_rate", "min_rate", "mdd", "sr", "ir",
    ):
        assert key in report
    assert len(report["rr_by_year"]) == 11
    assert isinstance(report["buy_count"], int)
    assert 50 <= report["buy_count"] <= 300
    assert report["max_rate"] == max(report["rr_by_year"])
    assert report["min_rate"] == min(report["rr_by_year"])
    assert 0.0 <= report["mdd"] <= 1.0
    assert (tmp_path / "equity.csv").exists()
    assert (tmp_path / "signals.csv").exists()


@checked(11, "every CLI command run twice is byte-identical")
def test_criterion_11_cli_determinism(tmp_path, capsys):
    data = DATA_DIR / "regime_fixture.csv"
    strategy_cfg = tmp_path / "strategy.cfg"
    strategy_cfg.write_text(
        "strategy = two_average\nfast.kind = sma\nfast.period = 5\n"
        "slow.kind = sma\nslow.period = 30\n"
    )
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        "strategy = two_average\nmin_trades = 0\n"
        "fast.kind = sma\nfast.period = 4,5,6\n"
        "slow.kind = sma\nslow.period = 30\n"
    )
    indicator_cfg = tmp_path / "ind.cfg"
    indicator_cfg.write_text("indicator.sma50 = sma 50\nindicator.kama = ama 51 5 12 2\n")
    commands = [
        ["ingest", "--data", str(data)],
        ["indicators", "--data", str(data), "--config", str(indicator_cfg)],
        ["backtest", "--data", str(data), "--config", str(strategy_cfg)],
        ["sweep", "--data", str(data), "--config", str(sweep_cfg)],
        ["kelly", "--p", "0.9", "--l-gain", "1.1", "--m-loss", "1.0"],
        ["report", "--data", str(data)],
    ]
    for argv in commands:
        out_a = tmp_path / f"a_{argv[0]}"
        out_b = tmp_path / f"b_{argv[0]}"
        code_a = main(argv + ["--out-dir", str(out_a)])
        stdout_a = capsys.readouterr().out
        code_b = main(argv + ["--out-dir", str(out_b)])
        stdout_b = capsys.readouterr().out
        assert code_a == code_b == 0
        assert stdout_a == stdout_b
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b and names_a
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
