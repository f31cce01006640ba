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

The walk is the kernel's :class:`~repro.kernel.kernel.EnvelopeWalk`,
the loop ``SuperPos(x)`` and All-Approximated run too; this module is
its failure policy: raise ``walk.level`` per the schedule and the cap
(UNKNOWN at the cap) and return ``Gamma_rev`` in index order for the
walk to revise.  The walk's envelope sums are exact integers over the
kernel's envelope weights, behind the shared float screen, so no check
builds a `Fraction`.  Only the level-cap UNKNOWN witness, an
approximated demand, is one.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.bounds import BoundMethod
from ..engine.context import preflight
from ..kernel.kernel import EnvelopeWalk
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

    kernel = ctx.kernel()
    d0s, periods = kernel.d0s, kernel.periods
    doubling = level_schedule == LevelSchedule.DOUBLE

    def raise_level(walk: EnvelopeWalk, interval: ExactTime):
        approximated = sorted(walk.approx)
        if not approximated:
            return Verdict.INFEASIBLE, interval
        level = walk.level
        if max_level is not None and level >= max_level:
            return Verdict.UNKNOWN, interval
        level = level * 2 if doubling else level + 1
        if max_level is not None:
            level = min(level, max_level)
        walk.level = level
        # Gamma_rev: approximated components the new level no longer
        # allows to be approximated at this interval (their Im, the
        # level-th deadline, lies beyond it).
        return [j for j in approximated if d0s[j] + (level - 1) * periods[j] > interval]

    walk = EnvelopeWalk(kernel, 1, kernel.inclusive_scaled(bound))
    stop = walk.run(raise_level)
    counts = dict(
        test_name=name,
        iterations=walk.iterations,
        intervals_checked=walk.intervals,
        revisions=walk.revisions,
        max_level=walk.level,
        bound=bound,
    )
    if stop is None:
        return FeasibilityResult(
            verdict=Verdict.FEASIBLE, details={"utilization": u}, **counts
        )
    verdict, interval = stop
    at = kernel.unscale(interval)
    if verdict is Verdict.INFEASIBLE:
        return FeasibilityResult(
            verdict=verdict,
            witness=FailureWitness(interval=at, demand=kernel.dbf(at), exact=True),
            details={"utilization": u},
            **counts,
        )
    return FeasibilityResult(
        verdict=verdict,
        witness=FailureWitness(
            interval=at, demand=walk.demand(interval), exact=False
        ),
        details={"utilization": u, "reason": "level cap reached"},
        **counts,
    )
