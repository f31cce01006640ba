"""Feasibility bounds (paper Sections 3.3 and 4.3).

A *feasibility bound* is a value ``B`` such that any demand overflow
(``dbf(I) > I``), if one exists at all, first occurs at some ``I <= B``.
Testing the demand staircase on ``(0, B]`` is then exact.  This module
implements every bound the paper discusses, generalised from sporadic
tasks to demand components so the event-stream extension inherits them:

* ``BARUAH`` — Baruah et al. [3]: ``U/(1-U) * max(T_i - D_i)``.
* ``GEORGE`` — George et al. [10]:
  ``sum_{D_i <= T_i} (1 - D_i/T_i) C_i / (1 - U)``.
* ``SUPERPOSITION`` — the paper's new bound (Section 4.3):
  ``max(D_max, sum_i (1 - D_i/T_i) C_i / (1 - U))`` where the sum now
  ranges over *all* components, letting ``D > T`` slack reduce the bound.
  The paper proves it coincides with George's bound when all ``D <= T``
  and is lower otherwise.  (The ``D_max`` floor makes the region where
  the negative-slack derivation does not apply explicitly covered; the
  All-Approximated test checks this bound implicitly.)
* ``BUSY_PERIOD`` — first synchronous busy period; the only finite bound
  at ``U = 1``.
* ``BEST`` — minimum of the applicable closed-form bounds, falling back
  to the busy period at ``U = 1``.

One-shot components (bursty event streams) contribute their full cost to
every numerator and nothing to ``U``; see the derivation notes in
DESIGN.md.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Dict, List, Optional

from ..model.components import DemandSource, as_components, total_utilization
from ..model.numeric import ExactTime
from .busy_period import busy_period_of_components

__all__ = [
    "BoundMethod",
    "baruah_bound",
    "george_bound",
    "superposition_bound",
    "feasibility_bound",
    "compare_bounds",
]


class BoundMethod(enum.Enum):
    """Selectable feasibility-bound policy for the exact tests."""

    BARUAH = "baruah"
    GEORGE = "george"
    SUPERPOSITION = "superposition"
    BUSY_PERIOD = "busy-period"
    BEST = "best"


def _exact(value: Fraction) -> ExactTime:
    return value.numerator if value.denominator == 1 else value


def baruah_bound(source: DemandSource) -> Optional[ExactTime]:
    """Baruah et al. bound, or ``None`` when inapplicable (``U >= 1``).

    Component generalisation:
    ``(U * max_gap + sum_oneshot C) / (1 - U)`` with
    ``max_gap = max(0, max_i (T_i - d0_i))``.  A result of 0 means no
    interval needs checking (demand can never overflow when ``U <= 1``).
    """
    components = as_components(source)
    u = Fraction(total_utilization(components))
    if u >= 1:
        return None
    max_gap = Fraction(0)
    one_shot = Fraction(0)
    for c in components:
        if c.is_recurrent:
            gap = Fraction(c.period) - Fraction(c.first_deadline)
            if gap > max_gap:
                max_gap = gap
        else:
            one_shot += Fraction(c.wcet)
    value = (u * max_gap + one_shot) / (1 - u)
    return _exact(value)


def george_bound(source: DemandSource) -> Optional[ExactTime]:
    """George et al. bound, or ``None`` when inapplicable (``U >= 1``).

    Component generalisation:
    ``(sum_{recurrent, d0 <= T} (1 - d0/T) C + sum_oneshot C) / (1 - U)``.
    """
    components = as_components(source)
    u = Fraction(total_utilization(components))
    if u >= 1:
        return None
    numerator = Fraction(0)
    for c in components:
        if c.is_recurrent:
            d0 = Fraction(c.first_deadline)
            t = Fraction(c.period)
            if d0 <= t:
                numerator += (1 - d0 / t) * Fraction(c.wcet)
        else:
            numerator += Fraction(c.wcet)
    value = numerator / (1 - u)
    return _exact(value)


def superposition_bound(source: DemandSource) -> Optional[ExactTime]:
    """The paper's superposition bound (Section 4.3), or ``None`` at ``U >= 1``.

    ``max(D_max, (sum_all_recurrent (1 - d0/T) C + sum_oneshot C) / (1 - U))``
    — the sum keeps the *negative* slack of ``d0 > T`` components, which
    is what makes this bound no larger than George's, while the ``D_max``
    floor covers the prefix where that derivation does not apply.
    """
    components = as_components(source)
    u = Fraction(total_utilization(components))
    if u >= 1:
        return None
    if not components:
        return 0
    numerator = Fraction(0)
    for c in components:
        if c.is_recurrent:
            d0 = Fraction(c.first_deadline)
            t = Fraction(c.period)
            numerator += (1 - d0 / t) * Fraction(c.wcet)
        else:
            numerator += Fraction(c.wcet)
    linear = numerator / (1 - u)
    d_max = Fraction(max(c.first_deadline for c in components))
    return _exact(max(d_max, linear))


def feasibility_bound(
    source: DemandSource, method: BoundMethod = BoundMethod.BEST
) -> Optional[ExactTime]:
    """Compute the feasibility bound for *source* under *method*.

    Returns ``None`` only when no finite bound exists, i.e. ``U > 1``
    (where every test short-circuits to INFEASIBLE anyway).  ``BEST``
    takes the minimum of the closed-form bounds when ``U < 1`` and falls
    back to the busy period at ``U = 1``.
    """
    components = as_components(source)
    u = total_utilization(components)
    if u > 1:
        return None
    if method is BoundMethod.BARUAH:
        bound = baruah_bound(components)
    elif method is BoundMethod.GEORGE:
        bound = george_bound(components)
    elif method is BoundMethod.SUPERPOSITION:
        bound = superposition_bound(components)
    elif method is BoundMethod.BUSY_PERIOD:
        return busy_period_of_components(components)
    elif method is BoundMethod.BEST:
        candidates: List[ExactTime] = []
        for fn in (baruah_bound, george_bound, superposition_bound):
            value = fn(components)
            if value is not None:
                candidates.append(value)
        if candidates:
            return min(candidates)
        return busy_period_of_components(components)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown bound method {method!r}")
    if bound is None:
        # Closed-form bound inapplicable at U == 1: use the busy period.
        return busy_period_of_components(components)
    return bound


def compare_bounds(source: DemandSource) -> Dict[str, Optional[ExactTime]]:
    """All feasibility bounds of *source* side by side (``repro bounds``).

    ``None`` marks an inapplicable bound: ``U >= 1`` for the closed
    forms, ``U > 1`` for the busy period.
    """
    components = as_components(source)
    return {
        "baruah": baruah_bound(components),
        "george": george_bound(components),
        "superposition": superposition_bound(components),
        "busy_period": busy_period_of_components(components),
    }
