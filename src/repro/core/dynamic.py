"""The Dynamic Error test (paper Section 4.1, Figure 5).

An *exact* EDF feasibility test that runs the superposition approximation
at an adaptive level.  It starts at ``SuperPos(1)`` — every component is
approximated right after its first job, which makes the pass over a
Devi-acceptable task set cost exactly one comparison per task.  Whenever
the approximated demand ``dbf'`` exceeds the capacity at a test interval,
the test cannot tell overload from approximation error; it then *raises
the level* (doubling it, which bounds the number of switches by
``log2(n_max)``) and revises, in place, the approximation of exactly
those components whose new maximum test interval lies beyond the failing
interval (the set ``Gamma_rev``):

* their envelope contribution is replaced by the exact demand — by the
  paper's Lemma 6 the correction is ``app(I, tau) = frac((I-d0)/T) * C``,
  independent of the level at which the component had been approximated;
* their next exact deadline after the failing interval, ``NextInt``
  (Lemma 5), re-enters the test list.

All demand accumulated so far is reused — nothing is recomputed from
scratch.  The test interval at which a check fails with *no* component
approximated carries the true ``dbf``, so rejection comes with an exact
counterexample.  Acceptance terminates at the minimum feasibility bound
(Section 4.3) or when the test list drains, whichever is earlier.

An optional ``max_level`` cap yields the paper's "strictly limited
worst-case run-time" variant: the verdict degrades to UNKNOWN when the
cap prevents the required revisions.

The walk runs on the compiled kernel's grid (see :mod:`repro.kernel`),
like All-Approximated: a heap of grid deadlines whose push sequence
numbers keep coincident deadlines in FIFO order, and envelope sums kept
as exact integers over the kernel's envelope weights
(:meth:`~repro.kernel.DemandKernel.envelope_weights`), so no check
builds a `Fraction`.  Only the level-cap UNKNOWN witness, an
approximated demand, is one.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import List, Optional

from ..analysis.bounds import BoundMethod
from ..engine.context import preflight
from ..model.components import DemandSource
from ..model.numeric import ExactTime
from ..result import FailureWitness, FeasibilityResult, Verdict

__all__ = ["dynamic_test", "LevelSchedule"]


class LevelSchedule:
    """How the Dynamic test raises its approximation level.

    ``DOUBLE`` is the paper's choice (Section 4.1): at most
    ``log2(n_max)`` switches.  ``INCREMENT`` raises by one per switch and
    exists for the ablation benchmark.
    """

    DOUBLE = "double"
    INCREMENT = "increment"


def dynamic_test(
    source: DemandSource,
    bound_method: BoundMethod = BoundMethod.SUPERPOSITION,
    max_level: Optional[int] = None,
    level_schedule: str = LevelSchedule.DOUBLE,
) -> FeasibilityResult:
    """Run the Dynamic Error test on *source*.

    Args:
        source: task set, event-stream tasks, or demand components.
        bound_method: feasibility bound limiting the search (the paper's
            ``Imax``).  The default is the paper's own superposition
            bound (Section 4.3) — the bound the All-Approximated sibling
            checks implicitly — which keeps the two tests' effort
            directly comparable; ``BEST`` may terminate earlier.
        max_level: optional cap on the approximation level.  With a cap
            the test keeps its exactness whenever it terminates within
            the cap and returns UNKNOWN otherwise.
        level_schedule: ``"double"`` (paper) or ``"increment"``
            (ablation).

    Returns:
        An exact :class:`FeasibilityResult` (or UNKNOWN under a level
        cap), carrying iterations, revisions and the final level.
    """
    if level_schedule not in (LevelSchedule.DOUBLE, LevelSchedule.INCREMENT):
        raise ValueError(f"unknown level schedule {level_schedule!r}")
    if max_level is not None and max_level < 1:
        raise ValueError(f"max_level must be >= 1, got {max_level}")
    name = "dynamic"
    ctx, early = preflight(source, name, overload_max_level=1)
    if early is not None:
        return early
    u = ctx.utilization
    bound = ctx.bound(bound_method)
    if bound is None:  # pragma: no cover - U > 1 handled above
        raise AssertionError("no finite bound despite U <= 1")

    # Heap entries ``(deadline, seq, index)``: seeds are keyed by index,
    # later pushes by a running sequence number, so coincident deadlines
    # pop in push order (FIFO).  ``slope = Σ w`` and ``base = Σ w·anchor``
    # over the approximated components are ``hyper`` times the rate sum
    # and the envelope base.
    kernel = ctx.kernel()
    n = kernel.n
    d0s, periods, wcets = kernel.d0s, kernel.periods, kernel.wcets
    hyper, weights = kernel.envelope_weights()
    bound_s = kernel.inclusive_scaled(bound)
    heap = [(d0s[idx], idx, idx) for idx in range(n) if d0s[idx] <= bound_s]
    heapify(heap)
    seq = n
    jobs_counted: List[int] = [0] * n
    approx_at: List[Optional[ExactTime]] = [None] * n  # Im of each approx comp

    level = 1
    exact_demand: ExactTime = 0
    slope: ExactTime = 0
    base: ExactTime = 0
    iterations = 0
    intervals = 0
    revisions = 0
    last_interval: Optional[ExactTime] = None

    while heap:
        interval, _, idx = heappop(heap)
        if interval > bound_s:
            break  # Lemma 3 + bound: everything beyond is covered.
        exact_demand += wcets[idx]
        jobs_counted[idx] += 1
        iterations += 1
        if last_interval != interval:
            intervals += 1
            last_interval = interval

        while (
            (exact_demand - interval) * hyper + slope * interval - base > 0
            if slope
            else exact_demand > interval
        ):
            revivable = [j for j in range(n) if approx_at[j] is not None]
            if not revivable:
                at = kernel.unscale(interval)
                return FeasibilityResult(
                    verdict=Verdict.INFEASIBLE,
                    test_name=name,
                    iterations=iterations,
                    intervals_checked=intervals,
                    revisions=revisions,
                    max_level=level,
                    bound=bound,
                    witness=FailureWitness(
                        interval=at, demand=ctx.dbf(at), exact=True
                    ),
                    details={"utilization": u},
                )
            if max_level is not None and level >= max_level:
                value = Fraction(
                    exact_demand * hyper + slope * interval - base, hyper
                )
                return FeasibilityResult(
                    verdict=Verdict.UNKNOWN,
                    test_name=name,
                    iterations=iterations,
                    intervals_checked=intervals,
                    revisions=revisions,
                    max_level=level,
                    bound=bound,
                    witness=FailureWitness(
                        interval=kernel.unscale(interval),
                        demand=_normalize(kernel.unscale(value)),
                        exact=False,
                    ),
                    details={"utilization": u, "reason": "level cap reached"},
                )
            if level_schedule == LevelSchedule.DOUBLE:
                level *= 2
            else:
                level += 1
            if max_level is not None:
                level = min(level, max_level)
            # Gamma_rev: approximated components the new level no longer
            # allows to be approximated at this interval (their Im, the
            # level-th deadline, lies beyond it).
            for j in revivable:
                if d0s[j] + (level - 1) * periods[j] <= interval:
                    continue
                w = weights[j]
                slope -= w
                base -= w * approx_at[j]
                approx_at[j] = None
                # Approximated components are recurrent and anchored at
                # a checked interval, so interval >= d0s[j] here.
                jobs_now = (interval - d0s[j]) // periods[j] + 1
                exact_demand += (jobs_now - jobs_counted[j]) * wcets[j]
                jobs_counted[j] = jobs_now
                heappush(heap, (d0s[j] + jobs_now * periods[j], seq, j))
                seq += 1
                revisions += 1
                iterations += 1

        # The check passed.  Decide the component's continuation.
        period = periods[idx]
        if not period:
            continue  # one-shot: fully accounted, nothing recurs
        if jobs_counted[idx] < level:
            heappush(heap, (interval + period, seq, idx))
            seq += 1
        else:
            w = weights[idx]
            slope += w
            base += w * interval
            approx_at[idx] = interval

    return FeasibilityResult(
        verdict=Verdict.FEASIBLE,
        test_name=name,
        iterations=iterations,
        intervals_checked=intervals,
        revisions=revisions,
        max_level=level,
        bound=bound,
        details={"utilization": u},
    )


def _normalize(value) -> ExactTime:
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value
