"""Exact sums of floats: a finite float is a whole multiple of a power of
two, so floats scaled by one power of two are integers, whose sums never
round, on every interpreter."""
from __future__ import annotations

import math
from itertools import accumulate, islice, repeat
from operator import mul, sub
from typing import Sequence

from .errors import DomainError


def scaled_ints(x: Sequence[float], scale: int) -> list[int]:
    """``x[i] * 2**scale`` as integers, for values that are whole multiples
    of ``2**-scale``. A non-finite value raises ``DomainError``.

    A product with ``2.0**scale`` is exact until it passes the float range
    (from ``2**(1024 - scale)`` on, say a return of 2**971 or more at
    scale 53, or any value once ``scale`` is past the float exponents);
    then each exact ratio, whose denominator is a power of two, is
    shifted instead.
    """
    try:
        return list(map(int, map(mul, x, repeat(2.0 ** scale))))
    except (OverflowError, ValueError):
        if not all(map(math.isfinite, x)):
            raise DomainError("exact sums need finite values") from None
    return [num << (scale - den.bit_length() + 1)
            for num, den in (v.as_integer_ratio() for v in x)]


def exact_ints(x: Sequence[float]) -> tuple[list[int], int]:
    """Integers m and one scale with x[i] == m[i] / 2**scale exactly."""
    smallest = min(filter(None, map(abs, x)), default=1.0)
    # f * 2**e with 0.5 <= |f| < 1 is a whole multiple of 2**(e - 53), and
    # every nonzero |value| >= smallest has an exponent e no lower.
    scale = max(0, 53 - math.frexp(smallest)[1])
    return scaled_ints(x, scale), scale


def window_sums(ints: list[int], n: int):
    """The exact sum of every full window of n values, in order, streamed;
    needs len(ints) >= n."""
    return accumulate(map(sub, islice(ints, n, None), ints), initial=sum(ints[:n]))


def moments(n: int, s1: int, s2: int, scale: int) -> tuple[float, float]:
    """Mean and population standard deviation of n values given as the sum
    ``s1`` and the sum of squares ``s2`` of their integers at ``scale``.

    The mean is exactly rounded and the deviation is the square root of
    the exactly rounded variance, so it is 0.0 when every value is equal.
    A variance past the float range raises ``DomainError``.
    """
    try:
        variance = (n * s2 - s1 * s1) / (n * n << 2 * scale)
    except OverflowError:
        raise DomainError("a variance exceeds the float range") from None
    return s1 / (n << scale), math.sqrt(variance)
