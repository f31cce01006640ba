"""EDF feasibility with shared resources under the Stack Resource Policy.

The SRP (Baker) is the EDF analogue of the priority ceiling protocol
the paper's Section 3.5 mentions: a job can be blocked at most once, by
at most one outermost critical section of a job with a *later* deadline.
The classical demand-side condition (Baker 1991; also the form used in
[14]) adds a blocking term to the processor demand criterion::

    for all intervals I > 0:   dbf(I) + B(I) <= I

with ``B(I) = max { cs_j : tasks j whose relative deadline D_j > I }``
— the longest critical section of any task that can preempt-block the
deadlines inside ``I``.  ``B`` is a non-increasing staircase that drops
to 0 at ``D_max``, so the plain feasibility bounds keep working beyond
it.

The test here is the standard *sufficient* SRP condition (rejections
carry an UNKNOWN verdict unless the overflow persists with ``B = 0``,
in which case the system is infeasible even without resources).
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..analysis.bounds import BoundMethod, feasibility_bound
from ..kernel import DemandKernel
from ..model.components import as_components, total_utilization
from ..model.numeric import ExactTime, Time, to_exact
from ..model.taskset import TaskSet
from ..result import FailureWitness, FeasibilityResult, Verdict

__all__ = ["blocking_function", "srp_blocking_test"]


def blocking_function(
    tasks: TaskSet, critical_sections: Mapping[str, Time]
) -> Callable[[ExactTime], ExactTime]:
    """Build ``B(I)`` from per-task outermost critical-section lengths.

    Args:
        tasks: the task set (tasks are matched by name; unnamed tasks
            match the empty string and are rejected to avoid silent
            mis-attribution).
        critical_sections: longest outermost critical section per task
            name; tasks absent from the mapping use no resources.

    Returns:
        The non-increasing blocking staircase ``B``.
    """
    lengths = []
    for t in tasks:
        cs = critical_sections.get(t.name, 0)
        cs_value = to_exact(cs)
        if cs_value < 0:
            raise ValueError(f"critical section must be >= 0, got {cs!r}")
        if cs_value > 0 and not t.name:
            raise ValueError("tasks using resources must be named")
        if cs_value > t.wcet:
            raise ValueError(
                f"critical section {cs_value} exceeds WCET {t.wcet} "
                f"of task {t.name!r}"
            )
        lengths.append((t.deadline, cs_value))

    def blocking(interval: ExactTime) -> ExactTime:
        return max(
            (cs for deadline, cs in lengths if deadline > interval and cs > 0),
            default=0,
        )

    return blocking


def srp_blocking_test(
    tasks: TaskSet,
    critical_sections: Mapping[str, Time],
    bound_method: BoundMethod = BoundMethod.BEST,
) -> FeasibilityResult:
    """SRP-aware EDF feasibility: ``dbf(I) + B(I) <= I`` at all deadlines.

    Verdicts:

    * FEASIBLE — all checks pass: schedulable *with* the declared
      resource usage under EDF+SRP;
    * INFEASIBLE — a check fails even with the blocking term removed
      (the plain demand already overflows: exact witness);
    * UNKNOWN — a check fails only with blocking included (the
      condition is sufficient, not necessary).
    """
    components = as_components(tasks)
    name = "edf-srp"
    u = total_utilization(components)
    if u > 1:
        return FeasibilityResult(
            verdict=Verdict.INFEASIBLE,
            test_name=name,
            iterations=0,
            details={"utilization": u, "reason": "U > 1"},
        )
    blocking = blocking_function(tasks, critical_sections)
    bound = feasibility_bound(components, bound_method)
    if bound is None:  # pragma: no cover - U > 1 handled above
        raise AssertionError("no finite bound despite U <= 1")
    # B(I) > 0 only below Dmax: extend the scan to cover that region.
    d_max = max((c.first_deadline for c in components), default=0)
    horizon = max(bound, d_max)

    kernel = DemandKernel(components)
    points = kernel.points_scaled(kernel.inclusive_scaled(horizon))
    iterations = 0
    for interval_s, demand_s in points:
        iterations += 1
        interval = kernel.unscale(interval_s)
        demand = kernel.unscale(demand_s)
        block = blocking(interval)
        if demand + block > interval:
            exact_overflow = demand > interval
            return FeasibilityResult(
                verdict=Verdict.INFEASIBLE if exact_overflow else Verdict.UNKNOWN,
                test_name=name,
                iterations=iterations,
                intervals_checked=iterations,
                bound=horizon,
                witness=FailureWitness(
                    interval=interval,
                    demand=demand + block,
                    exact=exact_overflow,
                ),
                details={"utilization": u, "blocking": block},
            )
    return FeasibilityResult(
        verdict=Verdict.FEASIBLE,
        test_name=name,
        iterations=iterations,
        intervals_checked=iterations,
        bound=horizon,
        details={"utilization": u},
    )
