"""Superposition approximation ``SuperPos(x)`` (paper Section 3.4, [1]).

The approximated task demand bound function (paper Def. 4) follows the
exact staircase of a component up to a selectable maximum test interval
``Im`` — the deadline of the ``x``-th job — and continues as the straight
line of slope ``C/T`` from there::

    dbf'(I, tau) = dbf(I, tau)                        for I <= Im(tau)
                 = dbf(Im, tau) + C/T * (I - Im)      for I >  Im(tau)

Because ``Im`` is a staircase corner, the continuation line is the same
line for every level ``x`` — the *linear envelope* through the corners
(this observation underlies the paper's Lemma 6 and is what allows the
Dynamic test to reuse work across levels).

``SuperPos(x)`` (paper Def. 6 / Lemma 1) checks
``dbf'(I, Gamma) <= I`` at every change point of ``dbf'`` up to a
feasibility bound.  It is sufficient: acceptance proves feasibility, and
raising ``x`` strictly widens the accepted region until it reaches the
exact processor demand test.  ``SuperPos(1)`` equals Devi's test on
constrained-deadline systems (paper Lemma 2).

The check walk is the kernel's :class:`~repro.kernel.kernel.EnvelopeWalk`
with the simplest failure policy, stop at the first failed check.  The
exact Dynamic Error and All-Approximated tests (:mod:`repro.core.dynamic`,
:mod:`repro.core.all_approx`) are the same walk with policies that
revise approximations instead (paper Lemmas 5 and 6).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, List

from ..engine.context import preflight
from ..model.components import DemandSource, as_components
from ..model.numeric import ExactTime, Time, to_exact
from ..result import FailureWitness, FeasibilityResult, Verdict
from ..analysis.bounds import BoundMethod

__all__ = [
    "max_test_interval",
    "approximated_component_dbf",
    "approximated_dbf",
    "envelope_batch",
    "superposition_test",
]


def max_test_interval(component, level: int) -> ExactTime:
    """``Im(tau)`` at *level*: the deadline of the level-th job (Def. 4).

    One-shot components have a single deadline; their ``Im`` is that
    deadline at every level.
    """
    if level < 1:
        raise ValueError(f"superposition level must be >= 1, got {level}")
    if component.period is None:
        return component.first_deadline
    return component.first_deadline + (level - 1) * component.period


def approximated_component_dbf(component, interval: Time, level: int) -> ExactTime:
    """``dbf'(I, tau)`` at the given approximation *level* (paper Def. 4)."""
    t = to_exact(interval)
    im = max_test_interval(component, level)
    if t <= im:
        return component.dbf(t)
    # Beyond Im: the linear envelope through the staircase corners.
    return component.linear_envelope(t)


def approximated_dbf(source: DemandSource, interval: Time, level: int) -> ExactTime:
    """``dbf'(I, Gamma)``: superposition of the per-component
    approximations (paper Def. 5)."""
    t = to_exact(interval)
    return sum(
        (approximated_component_dbf(c, t, level) for c in as_components(source)), 0
    )


def envelope_batch(
    source: DemandSource, intervals: Iterable[Time]
) -> List[ExactTime]:
    """System linear envelope ``Σ linear_envelope(I)`` at many intervals.

    The bulk screening primitive: the envelope is a sum of per-component
    lines that switch on at their first deadlines, so three prefix sums
    over the by-first-deadline order (``Σ C``, ``Σ C/T``, ``Σ (C/T)·d0``)
    answer every probe with one bisect plus one exact linear evaluation —
    ``O((n + m) log)`` instead of the ``O(n · m)`` per-point component
    loop.  Values are exact (`Fraction` arithmetic, normalized to `int`
    when integral), identical to summing
    :meth:`~repro.model.components.DemandComponent.linear_envelope`.
    """
    comps = sorted(as_components(source), key=lambda c: to_exact(c.first_deadline))
    d0s: List[ExactTime] = []
    cum_c: List[Fraction] = [Fraction(0)]
    cum_rate: List[Fraction] = [Fraction(0)]
    cum_rate_d0: List[Fraction] = [Fraction(0)]
    for c in comps:
        d0 = to_exact(c.first_deadline)
        rate = (
            Fraction(to_exact(c.wcet)) / Fraction(to_exact(c.period))
            if c.period is not None
            else Fraction(0)
        )
        d0s.append(d0)
        cum_c.append(cum_c[-1] + Fraction(to_exact(c.wcet)))
        cum_rate.append(cum_rate[-1] + rate)
        cum_rate_d0.append(cum_rate_d0[-1] + rate * Fraction(d0))
    out: List[ExactTime] = []
    for interval in intervals:
        t = to_exact(interval)
        at = bisect_right(d0s, t)
        value = cum_c[at] + cum_rate[at] * Fraction(t) - cum_rate_d0[at]
        out.append(_normalize(value))
    return out


def superposition_test(
    source: DemandSource,
    level: int,
    bound_method: BoundMethod = BoundMethod.SUPERPOSITION,
) -> FeasibilityResult:
    """``SuperPos(level)``: the sufficient test of paper Def. 6 / Lemma 1.

    The implementation walks the *exact* deadlines of each component up to
    its ``Im`` (at most *level* per component) in globally ascending
    order, maintaining the total demand as

    ``dbf'(I) = exact_jobs + U_ready * I - approx_base``

    where ``U_ready`` sums the rates of components already past their
    ``Im`` and ``approx_base`` anchors their envelopes.  Each popped
    deadline costs one comparison; between and beyond the popped points
    the approximation has slope ``U_ready <= U <= 1`` and cannot newly
    cross the capacity line (paper Lemma 3/4), so these checks suffice.

    The walk is :meth:`repro.kernel.DemandKernel.superpos_scan`: the
    kernel's :class:`~repro.kernel.kernel.EnvelopeWalk` stopping at its
    first failed check, the loop the Dynamic and All-Approximated tests
    run with their revision policies.  It runs on the
    compiled kernel's flat arrays with integer envelope sums, and pops
    coincident deadlines in the component-based implementation's FIFO
    order, so iteration counts and witnesses are bit-exact.

    Verdicts: FEASIBLE on acceptance, INFEASIBLE only when ``U > 1``,
    UNKNOWN otherwise (a failed sufficient test proves nothing).

    The default bound is the paper's superposition bound, which keeps
    ``SuperPos(1)``'s effort aligned with Devi's test (one comparison
    per component on accepted sets — Lemma 2); ``BEST`` may prove
    feasibility with fewer checks.
    """
    if level < 1:
        raise ValueError(f"superposition level must be >= 1, got {level}")
    name = f"superpos({level})"
    ctx, early = preflight(source, name, overload_max_level=level)
    if early is not None:
        return early
    u = ctx.utilization
    bound = ctx.bound(bound_method)
    if bound is None:  # pragma: no cover - U > 1 handled above
        raise AssertionError("no finite bound despite U <= 1")

    interval, demand, iterations, intervals = ctx.kernel().superpos_scan(
        level, bound
    )
    if interval is not None:
        return FeasibilityResult(
            verdict=Verdict.UNKNOWN,
            test_name=name,
            iterations=iterations,
            intervals_checked=intervals,
            max_level=level,
            bound=bound,
            witness=FailureWitness(interval=interval, demand=demand, exact=False),
            details={"utilization": u},
        )
    return FeasibilityResult(
        verdict=Verdict.FEASIBLE,
        test_name=name,
        iterations=iterations,
        intervals_checked=intervals,
        max_level=level,
        bound=bound,
        details={"utilization": u},
    )


def _normalize(value) -> ExactTime:
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value
