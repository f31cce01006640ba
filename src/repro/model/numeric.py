"""Exact-arithmetic helpers shared by the whole library.

Feasibility verdicts hinge on razor-thin comparisons such as
``dbf(I) <= I`` at utilizations approaching 1.  To keep every verdict
deterministic, analysis code runs on *exact* numbers: Python ``int`` when
possible and :class:`fractions.Fraction` otherwise.  Floats are accepted at
the API boundary and converted once, exactly (every IEEE-754 double is a
rational), so results never depend on floating-point rounding.

The helpers here are deliberately tiny and allocation-light; they sit on
the hot path of every test in :mod:`repro.core` and :mod:`repro.analysis`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Tuple, Union

#: Any value accepted as a time quantity at the public API boundary.
Time = Union[int, float, Fraction]

#: Exact time representation used internally by all analysis code.
ExactTime = Union[int, Fraction]

__all__ = [
    "Time",
    "ExactTime",
    "to_exact",
    "is_exact",
    "ceil_div",
    "floor_div",
    "frac_part",
    "exact_lcm",
    "exact_gcd",
    "rate_sum",
    "as_float",
]


def to_exact(value: Time) -> ExactTime:
    """Convert *value* to an exact number (``int`` or ``Fraction``).

    Integers pass through untouched.  Fractions are normalised to ``int``
    when they are integral, which keeps later arithmetic on the fast
    integer path.  Floats convert via ``Fraction(value)``, i.e. to the
    exact rational the IEEE-754 double denotes — conversion is lossless
    and deterministic.

    Raises:
        TypeError: if *value* is not ``int``, ``float`` or ``Fraction``.
        ValueError: if *value* is a non-finite float (NaN or infinity).
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"time values must be finite, got {value!r}")
        exact = Fraction(value)
        if exact.denominator == 1:
            return exact.numerator
        return exact
    if isinstance(value, int):  # bool and int subclasses
        return int(value)
    raise TypeError(
        f"time values must be int, float or Fraction, got {type(value).__name__}"
    )


def is_exact(value: object) -> bool:
    """Return ``True`` if *value* is already an exact number."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def floor_div(a: ExactTime, b: ExactTime) -> int:
    """Exact ``floor(a / b)`` for ints and Fractions (``b > 0``)."""
    return int(a // b)


def ceil_div(a: ExactTime, b: ExactTime) -> int:
    """Exact ``ceil(a / b)`` for ints and Fractions (``b > 0``)."""
    return -int((-a) // b)


def frac_part(x: ExactTime) -> ExactTime:
    """Exact fractional part ``x - floor(x)`` (always in ``[0, 1)``)."""
    return x - (x // 1)


def exact_gcd(a: ExactTime, b: ExactTime) -> ExactTime:
    """Greatest common divisor extended to positive rationals.

    For Fractions ``p1/q1`` and ``p2/q2`` the gcd is
    ``gcd(p1, p2) / lcm(q1, q2)`` — the largest rational dividing both.
    """
    fa, fb = Fraction(a), Fraction(b)
    num = math.gcd(fa.numerator, fb.numerator)
    den = math.lcm(fa.denominator, fb.denominator)
    result = Fraction(num, den)
    return result.numerator if result.denominator == 1 else result


def exact_lcm(a: ExactTime, b: ExactTime) -> ExactTime:
    """Least common multiple extended to positive rationals.

    For Fractions the lcm is ``lcm(p1, p2) / gcd(q1, q2)`` — the smallest
    rational that both divide.  Used for hyperperiods of rational periods.
    """
    fa, fb = Fraction(a), Fraction(b)
    num = math.lcm(fa.numerator, fb.numerator)
    den = math.gcd(fa.denominator, fb.denominator)
    result = Fraction(num, den)
    return result.numerator if result.denominator == 1 else result


def rate_sum(pairs: Iterable[Tuple[ExactTime, ExactTime]]) -> ExactTime:
    """Exact ``Σ c / t`` over ``(c, t)`` pairs (an ``int`` when integral).

    Integer pairs sum as ``Σ c · (H // t)`` over ``H = lcm(t)`` in machine
    ``int`` with one `Fraction` at the end; a rational parameter anywhere
    falls back to a `Fraction` sum.  The terms are as wide as ``H`` (7,000
    bits for a thousand random periods), so they are summed one at a time,
    never held in a list.
    """
    pairs = list(pairs)
    if all(type(c) is int and type(t) is int for c, t in pairs):
        hyper = math.lcm(*[t for _, t in pairs])
        total = Fraction(sum(c * (hyper // t) for c, t in pairs), hyper)
    else:
        total = Fraction(0)
        for c, t in pairs:
            total += Fraction(c) / Fraction(t)
    return total.numerator if total.denominator == 1 else total


def as_float(value: Time) -> float:
    """Best-effort float view of a time value, for reporting only."""
    return float(value)
