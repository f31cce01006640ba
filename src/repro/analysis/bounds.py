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

The three closed forms come from one pass over a compiled
:class:`~repro.kernel.DemandKernel` (:func:`closed_form_bounds`): with
the kernel's envelope weights ``w_i / H = C_i / T_i`` every numerator
and ``1 - U`` are integers on the kernel grid, and one `Fraction` is
built per bound at the end.  ``AnalysisContext.bound`` and the public
functions below both use it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Dict, Optional

from ..kernel import DemandKernel
from ..model.components import DemandSource, as_components, total_utilization
from ..model.numeric import ExactTime
from .busy_period import busy_period_of_components

__all__ = [
    "BoundMethod",
    "baruah_bound",
    "george_bound",
    "superposition_bound",
    "closed_form_bounds",
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


_CLOSED_FORMS = (BoundMethod.BARUAH, BoundMethod.GEORGE, BoundMethod.SUPERPOSITION)


def _exact(numerator: ExactTime, denominator: ExactTime) -> ExactTime:
    value = Fraction(numerator, denominator)
    return value.numerator if value.denominator == 1 else value


def closed_form_bounds(
    kernel: DemandKernel,
) -> Dict[BoundMethod, Optional[ExactTime]]:
    """Baruah, George and superposition bounds of a compiled system.

    One pass over the kernel's grid arrays and envelope weights ``(H,
    w)`` (``w_i / H = C_i / T_i``): with ``W = Σ w``, ``1 - U = (H - W) /
    H``, so every bound is an integer numerator over ``scale · (H - W)``
    and one `Fraction` is built per bound, at the end.  Values equal the
    module docstring's formulas exactly, normalized to ``int`` when
    integral.  All three are ``None`` when ``U >= 1``.
    """
    hyper, weights = kernel.envelope_weights()
    free = hyper - sum(weights)  # H · (1 - U)
    if free <= 0:
        return dict.fromkeys(_CLOSED_FORMS)
    if not kernel.n:
        return dict.fromkeys(_CLOSED_FORMS, 0)
    max_gap: ExactTime = 0
    one_shot: ExactTime = 0
    george: ExactTime = 0  # Σ (T - d0)·w over recurrent d0 <= T
    slack: ExactTime = 0  # Σ (T - d0)·w over every recurrent component
    for d0, p, c, w in zip(kernel.d0s, kernel.periods, kernel.wcets, weights):
        if p:
            gap = p - d0
            term = gap * w
            slack += term
            if gap >= 0:
                george += term
                if gap > max_gap:
                    max_gap = gap
        else:
            one_shot += c
    # Every numerator below is over scale · H · (1 - U).
    scale = kernel.scale or 1
    denominator = scale * free
    one_shot *= hyper
    linear = slack + one_shot
    d_max = max(kernel.d0s)
    return {
        BoundMethod.BARUAH: _exact((hyper - free) * max_gap + one_shot, denominator),
        BoundMethod.GEORGE: _exact(george + one_shot, denominator),
        BoundMethod.SUPERPOSITION: (
            _exact(d_max, scale)
            if d_max * free >= linear
            else _exact(linear, denominator)
        ),
    }


def _closed_forms(source: DemandSource) -> Dict[BoundMethod, Optional[ExactTime]]:
    return closed_form_bounds(DemandKernel(as_components(source)))


def baruah_bound(source: DemandSource) -> Optional[ExactTime]:
    """Baruah et al. bound, or ``None`` when inapplicable (``U >= 1``).

    Component generalisation:
    ``(U * max_gap + sum_oneshot C) / (1 - U)`` with
    ``max_gap = max(0, max_i (T_i - d0_i))``.  A result of 0 means no
    interval needs checking (demand can never overflow when ``U <= 1``).
    """
    return _closed_forms(source)[BoundMethod.BARUAH]


def george_bound(source: DemandSource) -> Optional[ExactTime]:
    """George et al. bound, or ``None`` when inapplicable (``U >= 1``).

    Component generalisation:
    ``(sum_{recurrent, d0 <= T} (1 - d0/T) C + sum_oneshot C) / (1 - U)``.
    """
    return _closed_forms(source)[BoundMethod.GEORGE]


def superposition_bound(source: DemandSource) -> Optional[ExactTime]:
    """The paper's superposition bound (Section 4.3), or ``None`` at ``U >= 1``.

    ``max(D_max, (sum_all_recurrent (1 - d0/T) C + sum_oneshot C) / (1 - U))``
    — the sum keeps the *negative* slack of ``d0 > T`` components, which
    is what makes this bound no larger than George's, while the ``D_max``
    floor covers the prefix where that derivation does not apply.
    """
    return _closed_forms(source)[BoundMethod.SUPERPOSITION]


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
    if method is BoundMethod.BUSY_PERIOD or u == 1:
        # Closed-form bounds are inapplicable at U == 1: busy period.
        return busy_period_of_components(components)
    closed = closed_form_bounds(DemandKernel(components))
    return min(closed.values()) if method is BoundMethod.BEST else closed[method]


def compare_bounds(source: DemandSource) -> Dict[str, Optional[ExactTime]]:
    """All feasibility bounds of *source* side by side (``repro bounds``).

    ``None`` marks an inapplicable bound: ``U >= 1`` for the closed
    forms, ``U > 1`` for the busy period.
    """
    components = as_components(source)
    closed = closed_form_bounds(DemandKernel(components))
    return {
        "baruah": closed[BoundMethod.BARUAH],
        "george": closed[BoundMethod.GEORGE],
        "superposition": closed[BoundMethod.SUPERPOSITION],
        "busy_period": busy_period_of_components(components),
    }
