"""Kelly criterion: optimal bet fraction and the expected log-return curve."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParams


@dataclass(frozen=True)
class KellyParams:
    """One bet: win probability p pays l_gain per unit, losing costs m_loss."""

    p: float
    l_gain: float
    m_loss: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InvalidParams("p must be in [0, 1]")
        if not 0.0 < self.l_gain < math.inf:
            raise InvalidParams("l_gain must be finite and > 0")
        if not 0.0 < self.m_loss <= 1.0:
            raise InvalidParams("m_loss must be in (0, 1]")
        if self.l_gain * self.m_loss == 0.0:
            # the closed-form optimum divides by this product
            raise InvalidParams("l_gain * m_loss underflows to 0")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def b(self) -> float:
        """Odds: proportion of the stake gained on a win."""
        return self.l_gain / self.m_loss


def expected_log_return(x: float, params: KellyParams) -> float:
    """p*ln(1 + L*x) + q*ln(1 - M*x), natural log, for a bet fraction x."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"bet fraction {x} outside [0, 1)")
    loss_side = 1.0 - params.m_loss * x
    if loss_side <= 0.0:
        raise DomainError(f"bet fraction {x} risks total ruin (1 - M*x <= 0)")
    return params.p * math.log(1.0 + params.l_gain * x) + params.q * math.log(loss_side)


def optimal_fraction(params: KellyParams) -> float:
    """Closed-form log-wealth optimum (L*p - M*q)/(L*M), clamped to [0, 1]."""
    raw = (params.l_gain * params.p - params.m_loss * params.q) / (params.l_gain * params.m_loss)
    return min(1.0, max(0.0, raw))


def kelly_curve(params: KellyParams, grid_points: int = 101) -> list[tuple[float, float]]:
    """Uniform (x, expected log return) grid on [0, x_max].

    x_max stops just short of the domain boundary min(1, 1/M).
    """
    if grid_points < 2:
        raise InvalidParams("grid_points must be >= 2")
    boundary = min(1.0, 1.0 / params.m_loss)
    x_max = boundary * (1.0 - 1e-9)
    step = x_max / (grid_points - 1)
    return [(i * step, expected_log_return(i * step, params)) for i in range(grid_points)]


def curve_to_csv(curve: list[tuple[float, float]], handle) -> None:
    """Write `x,expected_log_return` rows to an open text handle."""
    handle.write("x,expected_log_return\n")
    for x, value in curve:
        handle.write(f"{x!r},{value!r}\n")
