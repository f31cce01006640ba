"""Exact system load: ``LOAD = sup over I of dbf(I) / I``.

The load generalises utilization to constrained deadlines: a sporadic
system is EDF-feasible on a speed-``s`` processor iff ``LOAD <= s``, so
``LOAD`` is exactly the minimum processor speed that makes the system
feasible.

Computing it exactly is subtle — the ratio's peak routinely lies
*beyond* every feasibility bound (a single task ``(C=4, D=13, T=19)``
peaks at ``4/13`` at its first deadline while the George bound is
``1.6``) — but the linear demand envelope gives a usable horizon:
``dbf(I) <= I*U + P`` with ``P = sum_{rec, d0<=T} (1-d0/T)C + sum_os C``,
so any window achieving ratio ``r > U`` satisfies ``I <= P/(r - U)``.

Algorithm (exact; staircase scans run on the compiled demand kernel of
:mod:`repro.kernel`, with ratio comparisons by cross-multiplication):

1. Scan the demand steps up to the largest first deadline; call the best
   ratio found ``r`` (it includes every component's first step).
2. While ``r > U`` and the horizon ``P/(r - U)`` extends beyond what was
   scanned, rescan up to it.  ``r`` only grows, the horizon only
   shrinks, and all candidate ratios live in a fixed finite set of
   demand steps — the loop terminates with the true supremum whenever
   any window at all beats ``U``.
3. If step 1 found nothing above ``U``, a ratio above ``U`` may still
   hide arbitrarily far out (the envelope horizon diverges as
   ``r -> U``).  The classical busy-period argument decides it: the
   system scaled to speed ``U`` has utilization exactly 1, and it
   overflows somewhere iff it overflows within its synchronous busy
   period.  That window can be astronomically long (it is bounded only
   by the hyperperiod), so this step is guarded by
   ``exact_decision_limit`` and raises rather than silently running for
   hours; systems that hit it are the rare ones whose every window ratio
   creeps toward ``U`` from below.

The test suite verifies the threshold semantics exactly: feasible at
speed ``LOAD``, infeasible a hair below it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from ..kernel import DemandKernel
from ..model.components import (
    DemandComponent,
    DemandSource,
    as_components,
    total_utilization,
)
from ..model.numeric import ExactTime, Time, to_exact

__all__ = ["system_load", "minimum_processor_speed", "scaled_wcets"]


def system_load(
    source: DemandSource, exact_decision_limit: int = 2_000_000
) -> ExactTime:
    """Exact ``sup_I dbf(I)/I`` of *source* (see module docs).

    Raises:
        ValueError: when deciding ``LOAD > U`` would require scanning
            more than *exact_decision_limit* demand steps (pathological
            hyperperiod-scale windows; see step 3 above).
    """
    components = as_components(source)
    if not components:
        return 0
    u = Fraction(total_utilization(components))
    envelope_offset = _envelope_offset(components)
    # All staircase scans below run on one compiled kernel (flat-array
    # walks, ratio comparisons by cross-multiplication on the grid —
    # the grid scale cancels out of every dbf(I)/I ratio).
    kernel = DemandKernel(components)

    if u == 0:
        # One-shot components only: finitely many demand steps.
        horizon = max(c.first_deadline for c in components)
        best = kernel.best_ratio(horizon, Fraction(0))
        return _norm(best)

    # Steps 1 + 2: iterative scan with the envelope horizon.  Every
    # rescan is guarded: a razor-thin margin over U can push the
    # envelope horizon to hyperperiod scale.
    scanned = max(c.first_deadline for c in components)
    best = kernel.best_ratio(scanned, u)
    while best > u:
        horizon = envelope_offset / (best - u)
        if horizon <= scanned:
            return _norm(best)
        _guard_scan(kernel, horizon, exact_decision_limit)
        improved = kernel.best_ratio(horizon, best)
        scanned = horizon
        if improved == best:
            return _norm(best)
        best = improved

    # Step 3: nothing above U within the first deadlines — decide via
    # the busy period of the speed-U-scaled system (utilization 1).
    achiever = _ratio_above_u_exists(
        components, kernel, u, exact_decision_limit
    )
    if achiever is None:
        return _norm(u)
    r1 = achiever
    scanned = Fraction(0)
    best = r1
    while True:
        horizon = envelope_offset / (best - u)
        if horizon <= scanned:
            return _norm(best)
        _guard_scan(kernel, horizon, exact_decision_limit)
        improved = kernel.best_ratio(horizon, best)
        scanned = horizon
        if improved == best:
            return _norm(best)
        best = improved


def minimum_processor_speed(source: DemandSource) -> ExactTime:
    """Smallest speed ``s`` with ``dbf(I) <= s * I`` for all ``I``.

    Identical to :func:`system_load`; named for the resource-augmentation
    reading ("how much faster must the processor be?").
    """
    return system_load(source)


def scaled_wcets(source: DemandSource, speed: Time) -> List[DemandComponent]:
    """Component view of *source* on a processor of the given *speed*.

    Feasibility on a speed-``s`` processor is equivalent to feasibility
    of the system with every WCET divided by ``s`` on a unit-speed
    processor; this helper performs that transformation exactly, so any
    test in the library answers speed-scaled questions.
    """
    s = Fraction(to_exact(speed))
    if s <= 0:
        raise ValueError(f"processor speed must be > 0, got {speed!r}")
    scaled = []
    for c in as_components(source):
        wcet = Fraction(c.wcet) / s
        scaled.append(
            DemandComponent(
                wcet=_norm(wcet),
                first_deadline=c.first_deadline,
                period=c.period,
                source=c.source,
            )
        )
    return scaled


def _guard_scan(kernel: DemandKernel, horizon, limit: int) -> None:
    """Refuse scans whose demand-step count exceeds *limit*."""
    estimate = kernel.count_steps(horizon)
    if estimate > limit:
        raise ValueError(
            f"exact load scan needs ~{estimate} demand steps "
            f"(> limit {limit}); pass a larger exact_decision_limit"
        )


def _ratio_above_u_exists(
    components, kernel: DemandKernel, u: Fraction, limit: int
) -> Optional[Fraction]:
    """Return a ratio strictly above ``u`` if any window achieves one.

    Scans the speed-``u``-scaled system (utilization exactly 1) up to
    its synchronous busy period; by the classical result an overflow —
    i.e. a window with ``dbf(I) > u*I`` — exists iff one exists there.
    The busy-period iteration itself can crawl toward a
    hyperperiod-scale fixed point, so both the iteration and the scan
    respect *limit* (measured in demand steps of the original system).
    """

    def guard(window) -> None:
        estimate = kernel.count_steps(window)
        if estimate > limit:
            raise ValueError(
                "deciding LOAD > U needs a busy-period window of "
                f"~{estimate}+ demand steps (> limit {limit}); "
                "pass a larger exact_decision_limit to force it"
            )

    # Bounded busy-period iteration on the speed-u-scaled demand:
    # L_{k+1} = sum ceil(L_k / T) * (C / u)  (+ one-shot costs).  The
    # iteration count is capped as well: a fixed point that needs tens
    # of thousands of refinement rounds sits at hyperperiod scale and is
    # exactly the pathology the limit exists for.
    one_shot = sum((Fraction(c.wcet) for c in components if not c.is_recurrent),
                   Fraction(0)) / u
    recurrent = [c for c in components if c.is_recurrent]
    busy = one_shot + sum((Fraction(c.wcet) for c in recurrent), Fraction(0)) / u
    for _round in range(10_000):
        guard(busy)
        demand = one_shot
        for c in recurrent:
            demand += -(-busy // Fraction(c.period)) * Fraction(c.wcet) / u
        if demand == busy:
            break
        busy = demand
    else:
        raise ValueError(
            "deciding LOAD > U: the speed-U busy-period iteration did not "
            "converge within 10,000 rounds (hyperperiod-scale window); "
            "pass a larger exact_decision_limit to force the scan"
        )

    # One bulk ratio scan over the busy window (on the kernel);
    # any ratio above u proves existence, and the scan's maximum also
    # gives the caller's refinement loop its best possible start.
    best = kernel.best_ratio(busy, u)
    return best if best > u else None


def _envelope_offset(components) -> Fraction:
    """``P`` with ``dbf(I) <= I * U + P`` for all ``I`` (envelope bound)."""
    p = Fraction(0)
    for c in components:
        if c.is_recurrent:
            d0 = Fraction(c.first_deadline)
            t = Fraction(c.period)
            if d0 <= t:
                p += (1 - d0 / t) * Fraction(c.wcet)
        else:
            p += Fraction(c.wcet)
    return p


def _norm(value: Fraction) -> ExactTime:
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value
