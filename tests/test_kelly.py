import math
import random

import pytest

from tabacktest import errors
from tabacktest.config import MAX_GRID
from tabacktest.kelly import KellyParams, expected_log_return, kelly_curve, optimal_fraction

BLACKJACK = KellyParams(p=0.9, l_gain=1.1, m_loss=1.0)


class TestExpectedLogReturn:
    def test_zero_fraction_is_zero(self):
        for params in (BLACKJACK, KellyParams(0.3, 2.0, 0.5)):
            assert expected_log_return(0.0, params) == 0.0

    def test_sure_win_single_term(self):
        params = KellyParams(p=1.0, l_gain=1.0, m_loss=1.0)
        assert expected_log_return(0.5, params) == pytest.approx(math.log(1.5), abs=1e-15)

    def test_direct_evaluation_and_shape(self):
        x = 0.81
        value = expected_log_return(x, BLACKJACK)
        expected = 0.9 * math.log(1 + 1.1 * x) + 0.1 * math.log(1 - x)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value > expected_log_return(0.5, BLACKJACK)
        assert value > expected_log_return(0.95, BLACKJACK)

    def test_domain_errors(self):
        with pytest.raises(errors.DomainError):
            expected_log_return(1.0, BLACKJACK)
        with pytest.raises(errors.DomainError):
            expected_log_return(-0.1, BLACKJACK)


class TestOptimalFraction:
    def test_blackjack_example(self):
        assert optimal_fraction(BLACKJACK) == pytest.approx(0.89 / 1.1, abs=1e-15)
        assert round(optimal_fraction(BLACKJACK), 2) == 0.81

    def test_fair_coin_no_edge(self):
        assert optimal_fraction(KellyParams(0.5, 1.0, 1.0)) == 0.0

    def test_two_to_one_odds(self):
        assert optimal_fraction(KellyParams(0.5, 2.0, 1.0)) == pytest.approx(0.25)

    def test_negative_edge_clamps_to_zero(self):
        assert optimal_fraction(KellyParams(0.1, 1.0, 1.0)) == 0.0

    def test_param_validation(self):
        with pytest.raises(errors.InvalidParams):
            KellyParams(1.5, 1.0, 1.0)
        with pytest.raises(errors.InvalidParams):
            KellyParams(0.5, -1.0, 1.0)
        with pytest.raises(errors.InvalidParams):
            KellyParams(0.5, 1.0, 0.0)


class TestKellyCurve:
    def test_grid_argmax_near_closed_form(self):
        curve = kelly_curve(BLACKJACK, grid_points=1001)
        xs = [x for x, _ in curve]
        step = xs[1] - xs[0]
        best_x = max(curve, key=lambda point: point[1])[0]
        assert abs(best_x - optimal_fraction(BLACKJACK)) <= step

    def test_pure_loss_curve_decreases(self):
        params = KellyParams(0.0, 1.0, 0.5)
        curve = kelly_curve(params, grid_points=200)
        values = [v for _, v in curve]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_grid_points_are_bounded(self):
        for points in (1, MAX_GRID + 1):
            with pytest.raises(errors.InvalidParams):
                kelly_curve(BLACKJACK, grid_points=points)
        assert len(kelly_curve(BLACKJACK, grid_points=MAX_GRID)) == MAX_GRID

    def test_grid_spans_domain(self):
        curve = kelly_curve(BLACKJACK, grid_points=11)
        assert curve[0][0] == 0.0
        assert curve[-1][0] < 1.0


class TestShapeProperties:
    def test_gradient_zero_at_interior_optimum(self):
        for params in (BLACKJACK, KellyParams(0.6, 1.0, 0.8), KellyParams(0.7, 0.5, 0.6)):
            x_star = optimal_fraction(params)
            if not 0.0 < x_star < 1.0:
                continue
            h = 1e-7
            derivative = (
                expected_log_return(x_star + h, params)
                - expected_log_return(x_star - h, params)
            ) / (2 * h)
            assert abs(derivative) < 1e-6

    def test_concavity_on_fine_grid(self):
        rng = random.Random(50)
        for _ in range(20):
            params = KellyParams(
                p=rng.uniform(0.0, 1.0),
                l_gain=rng.uniform(0.1, 3.0),
                m_loss=rng.uniform(0.1, 1.0),
            )
            curve = kelly_curve(params, grid_points=300)
            values = [v for _, v in curve]
            for a, b, c in zip(values, values[1:], values[2:]):
                assert (a - 2 * b + c) <= 1e-9

    @staticmethod
    def golden_section_argmax(params, lo, hi):
        """Golden-section bracketing plus one parabolic vertex step; the
        refinement recovers the precision a flat quadratic maximum denies
        to pure value comparisons."""
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        while b - a > 1e-5:
            c = b - phi * (b - a)
            d = a + phi * (b - a)
            if expected_log_return(c, params) > expected_log_return(d, params):
                b = d
            else:
                a = c
        m = (a + b) / 2.0
        fa, fm, fb = (expected_log_return(x, params) for x in (a, m, b))
        denom = (m - a) * (fm - fb) - (m - b) * (fm - fa)
        if denom == 0.0:
            return m
        vertex = m - ((m - a) ** 2 * (fm - fb) - (m - b) ** 2 * (fm - fa)) / (2.0 * denom)
        return min(max(vertex, lo), hi)

    def test_closed_form_matches_golden_section_search(self):
        rng = random.Random(51)
        for _ in range(100):
            params = KellyParams(
                p=rng.uniform(0.05, 0.95),
                l_gain=rng.uniform(0.2, 3.0),
                m_loss=rng.uniform(0.2, 1.0),
            )
            hi = min(1.0, 1.0 / params.m_loss) * (1.0 - 1e-9)
            numeric = min(1.0, max(0.0, self.golden_section_argmax(params, 0.0, hi)))
            assert abs(numeric - optimal_fraction(params)) < 1e-8
