import math
import random
from fractions import Fraction

import pytest

import oracles
from tabacktest import errors
from tabacktest.market_data import slice_years
from tabacktest.metrics import (
    build_report,
    daily_returns,
    gaussian_fit,
    information_ratio_annual,
    max_drawdown,
    sharpe_annual,
    yearly_rr,
)


class TestDailyReturns:
    def test_definitional(self):
        assert daily_returns([100.0, 110.0]) == [pytest.approx(0.10)]
        assert daily_returns([10.0, 20.0, 10.0]) == [pytest.approx(1.0), pytest.approx(-0.5)]

    def test_constant_is_zero(self):
        assert daily_returns([5.0] * 6) == [0.0] * 5

    def test_errors(self):
        with pytest.raises(errors.TooShort):
            daily_returns([1.0])
        with pytest.raises(errors.NonPositivePrice):
            daily_returns([1.0, -2.0])

    def test_a_return_that_overflows_is_a_domain_error(self):
        # every value is positive and finite, but 1e300 / 1e-300 is not
        with pytest.raises(errors.DomainError, match="at index 1 is not finite"):
            daily_returns([1e-300, 1e300, 1e300])
        # a bad value is reported before a bad return, wherever it is
        with pytest.raises(errors.NonPositivePrice, match="at index 3"):
            daily_returns([1e-300, 1e300, 1e300, 0.0])
        benchmark = [1e-300] + [1e300] * 5
        with pytest.raises(errors.DomainError):
            build_report((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), benchmark, 0)
        assert oracles._naive_daily_returns([1.0, 2.0]) == daily_returns([1.0, 2.0])
        with pytest.raises(oracles.OracleMetricError) as raised:
            oracles._naive_daily_returns(benchmark)
        assert raised.value.kind == "DomainError"


class TestMaxDrawdown:
    def test_monotone_increasing_is_zero(self):
        assert max_drawdown([1.0, 2.0, 3.0]) == 0.0

    def test_spec_examples(self):
        assert max_drawdown([3.0, 1.0, 2.0]) == pytest.approx(2.0 / 3.0)
        assert max_drawdown([1.0, 3.0, 2.0, 4.0, 1.0]) == pytest.approx(0.75)

    def test_equals_brute_force_exactly(self):
        rng = random.Random(40)
        for _ in range(100):
            n = rng.randint(1, 200)
            values = [rng.uniform(1.0, 50.0) for _ in range(n)]
            assert max_drawdown(values) == oracles.brute_force_mdd(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_a_value_outside_the_positive_finite_range_raises(self, bad, where):
        values = [1.0, 2.0, 0.5]
        values[where] = bad
        with pytest.raises(errors.NonPositivePrice):
            max_drawdown(values)


class TestSharpe:
    def test_symmetric_returns_zero(self):
        assert sharpe_annual([0.01, -0.01, 0.01, -0.01]) == 0.0

    def test_constant_returns_zero_volatility(self):
        with pytest.raises(errors.ZeroVolatility):
            sharpe_annual([0.02] * 10)

    def test_matches_numpy_oracle(self):
        rng = random.Random(41)
        returns = [rng.gauss(0.0005, 0.01) for _ in range(252)]
        got = sharpe_annual(returns, 0.0, 252)
        assert got == pytest.approx(oracles.numpy_sharpe(returns), abs=1e-12)

    def test_nonzero_risk_free(self):
        rng = random.Random(42)
        returns = [rng.gauss(0.001, 0.02) for _ in range(100)]
        rf = 0.0002
        expected = oracles.numpy_sharpe(returns, rf)
        assert sharpe_annual(returns, rf) == pytest.approx(expected, abs=1e-12)


class TestInformationRatio:
    def test_constant_excess_is_zero_volatility(self):
        # benchmark + constant per day: the difference series never varies
        returns = [0.5, 0.75, 1.0]
        benchmark = [0.25, 0.5, 0.75]
        with pytest.raises(errors.ZeroVolatility):
            information_ratio_annual(returns, benchmark)

    def test_zero_benchmark_equals_sharpe_exactly(self):
        rng = random.Random(43)
        returns = [rng.gauss(0.0, 0.01) for _ in range(300)]
        zeros = [0.0] * len(returns)
        assert information_ratio_annual(returns, zeros) == sharpe_annual(returns, 0.0)

    def test_matches_numpy_oracle(self):
        rng = random.Random(44)
        returns = [rng.gauss(0.0004, 0.012) for _ in range(252)]
        benchmark = [rng.gauss(0.0003, 0.010) for _ in range(252)]
        got = information_ratio_annual(returns, benchmark, 252)
        assert got == pytest.approx(oracles.numpy_information_ratio(returns, benchmark), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(errors.LengthMismatch):
            information_ratio_annual([0.1, 0.2], [0.1])


def _exact_moments(xs):
    """The oracle's mean and standard deviation of the exact values ``xs``."""
    return oracles._naive_moments([Fraction(x) for x in xs])[:2]


class TestExactMoments:
    """The public ratios and fit against rational arithmetic, bit for bit:
    the mean rounded once and the square root of the variance rounded once."""

    MIXED = [1e-300, 1e3, -2.5, 5e-324, 0.1, 1e-300, 3.0, 0.7, -1e3]
    BENCHMARK = [0.5, -1e-300, 2.0, 1e3, 5e-324, 0.25, -7.0, 1e-3, 0.0]

    def test_mixed_magnitudes(self):
        mean, std = _exact_moments(self.MIXED)
        # a float sum loses 1e-300 beside 1e3, and its mean is off in the 14th digit
        assert sum(self.MIXED) / len(self.MIXED) != mean
        assert gaussian_fit(self.MIXED) == (mean, std)
        assert sharpe_annual(self.MIXED, 0.0, 252) == mean / std * math.sqrt(252)
        assert sharpe_annual(self.MIXED, 0.01, 252) == (mean - 0.01) / std * math.sqrt(252)
        mean, std = _exact_moments([Fraction(r) - Fraction(b)
                                    for r, b in zip(self.MIXED, self.BENCHMARK)])
        assert information_ratio_annual(self.MIXED, self.BENCHMARK, 252) == (
            mean / std * math.sqrt(252))

    def test_an_all_equal_list_has_no_volatility(self):
        # a float mean of three 0.1s is 0.10000000000000002, so a float
        # standard deviation would be 1.4e-17, not 0
        values = [0.1] * 3
        assert gaussian_fit(values) == (0.1, 0.0)
        with pytest.raises(errors.ZeroVolatility):
            sharpe_annual(values)
        with pytest.raises(errors.ZeroVolatility):
            information_ratio_annual([v + 1.0 for v in values], [1.0] * 3)

    def test_a_variance_in_the_denormal_range(self):
        values = [0.0, 3e-160, 1e-160]
        mean, std = _exact_moments(values)
        assert 0.0 < std * std < 2.2250738585072014e-308
        assert gaussian_fit(values) == (mean, std)
        assert sharpe_annual(values, 0.0, 252) == mean / std * math.sqrt(252)

    def test_a_variance_below_the_float_range_keeps_its_root(self):
        # the exact variances 2.5e-401 and 2.5e-621 round to 0.0, their roots do not
        assert gaussian_fit([0.0, 1e-200]) == (5e-201, 5e-201)
        assert sharpe_annual([0.0, 1e-200]) == math.sqrt(252)
        mean, std = gaussian_fit([0.0, 1e-310])
        assert mean == 5e-311
        assert abs(std - 5e-311) <= 5e-324  # one subnormal step
        assert gaussian_fit([1e-310] * 3) == (1e-310, 0.0)
        with pytest.raises(errors.ZeroVolatility):
            sharpe_annual([1e-310] * 3)

    def test_the_information_ratio_is_that_of_the_exact_differences(self):
        # both float differences round to 1 + 2**-52, but the exact ones differ by 2**-60
        returns, benchmark = [1.0 + 2.0**-52] * 2, [2.0**-60, 0.0]
        assert len({r - b for r, b in zip(returns, benchmark)}) == 1
        mean, std = _exact_moments([Fraction(r) - Fraction(b) for r, b in zip(returns, benchmark)])
        assert information_ratio_annual(returns, benchmark, 252) == mean / std * math.sqrt(252)

    def test_a_variance_past_the_float_range_is_a_domain_error(self):
        with pytest.raises(errors.DomainError, match="variance"):
            gaussian_fit([1e300, -1e300])


class TestYearlyRr:
    def test_flat_equity_all_ones(self):
        curve = tuple([10.0] * 500)
        assert yearly_rr(curve, slice_years(500, 252)) == [1.0, 1.0]

    def test_doubling_in_year_two(self):
        values = [10.0] * 252 + [20.0] * 252 + [20.0] * 100
        curve = tuple(values)
        assert yearly_rr(curve, slice_years(len(values), 252)) == [1.0, 2.0, 1.0]

    def test_product_telescopes_to_whole_period(self):
        rng = random.Random(45)
        values = [100.0]
        for _ in range(1000):
            values.append(max(1.0, values[-1] * (1.0 + rng.gauss(0.0003, 0.01))))
        curve = tuple(values)
        rrs = yearly_rr(curve, slice_years(len(values), 252))
        product = 1.0
        for rr in rrs:
            product *= rr
        assert product == pytest.approx(values[-1] / values[0], rel=1e-12)


class TestGaussianFit:
    def test_zeros(self):
        assert gaussian_fit([0.0] * 10) == (0.0, 0.0)

    def test_symmetric_pair(self):
        mean, std = gaussian_fit([0.03, -0.03])
        assert mean == 0.0
        assert std == pytest.approx(0.03)

    def test_recovers_generator_parameters(self):
        rng = random.Random(46)
        mu, sigma, n = 5.3e-4, 1.08e-2, 20000
        draws = [rng.gauss(mu, sigma) for _ in range(n)]
        mean, std = gaussian_fit(draws)
        assert abs(mean - mu) < 3 * sigma / math.sqrt(n)
        assert abs(std - sigma) < 3 * sigma / math.sqrt(n)


class TestScaleInvariance:
    def test_sharpe_ir_mdd_invariant_under_price_scaling(self):
        rng = random.Random(47)
        values = [50.0]
        for _ in range(400):
            values.append(max(1.0, values[-1] * (1.0 + rng.gauss(0.0, 0.01))))
        bench_values = [40.0]
        for _ in range(400):
            bench_values.append(max(1.0, bench_values[-1] * (1.0 + rng.gauss(0.0, 0.008))))
        bench_returns = daily_returns(bench_values)
        for scale in (3.0, 0.25, 1e4):
            scaled = [v * scale for v in values]
            assert max_drawdown(scaled) == pytest.approx(max_drawdown(values), rel=1e-12)
            r1, r2 = daily_returns(values), daily_returns(scaled)
            assert sharpe_annual(r2) == pytest.approx(sharpe_annual(r1), rel=1e-9)
            assert information_ratio_annual(r2, bench_returns) == pytest.approx(
                information_ratio_annual(r1, bench_returns), rel=1e-9
            )


class TestBuildReport:
    def test_report_fields_consistent(self):
        rng = random.Random(48)
        values = [100.0]
        for _ in range(700):
            values.append(max(1.0, values[-1] * (1.0 + rng.gauss(0.0005, 0.01))))
        curve = tuple(values)
        benchmark = values  # self benchmark: ir degrades to None
        report = build_report(curve, benchmark, buy_count=3)
        assert report.rr_whole == pytest.approx(values[-1] / values[0], rel=1e-12)
        assert report.rr_per_year == pytest.approx(
            report.rr_whole ** (252.0 / len(values)), rel=1e-12
        )
        assert report.max_rate == max(report.rr_by_year)
        assert report.min_rate == min(report.rr_by_year)
        assert report.ir is None
        assert report.sr is not None
        assert 0.0 <= report.mdd <= 1.0
        assert report.buy_count == 3
        product = report.initial_price
        for rr in report.rr_by_year:
            product *= rr
        assert product == pytest.approx(report.final_price, rel=1e-12)

    def test_flat_curve_degrades_gracefully(self):
        curve = tuple([10.0] * 300)
        report = build_report(curve, [10.0] * 300, buy_count=0)
        assert report.sr is None
        assert report.ir is None
        assert report.mdd == 0.0
        assert report.rr_whole == 1.0

    def test_json_keys_mirror_printed_block(self):
        curve = (10.0, 11.0, 12.0)
        payload = build_report(curve, [10.0, 10.5, 11.0], buy_count=1).to_dict()
        for key in (
            "initial_price", "final_price", "rr_whole", "rr_per_year", "rr_by_year",
            "buy_count", "max_rate", "min_rate", "mdd", "sr", "ir",
        ):
            assert key in payload

    @pytest.mark.parametrize("curve", [(), (10.0,)])
    def test_a_curve_under_two_values_is_too_short(self, curve):
        with pytest.raises(errors.TooShort):
            build_report(curve, [10.0, 10.5, 11.0], buy_count=0)
        with pytest.raises(errors.TooShort):
            build_report(curve, [10.0], buy_count=0)  # and when the benchmark fails too
