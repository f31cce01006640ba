"""Pre-kernel reference implementations, kept verbatim in ONE place.

These are the component-based loops the interval-driven tests ran
before the compiled-kernel layer (``IntervalQueue`` over
``DemandComponent`` method calls; per-step ``largest_deadline_below``
rescans), the Dynamic Error test's ``IntervalQueue``/``Fraction`` loop,
Devi's ``Fraction`` prefix loop over the sorted components, and the
per-bound ``Fraction`` loops of the closed-form feasibility bounds.  The randomized parity suite
(``tests/kernel/test_parity_random.py``) and the speedup benchmark
(``benchmarks/test_kernel_micro.py``) consume this module, so the
parity oracle and the benchmark baseline can never drift apart.

One deliberate difference from the historical code: the references
sum component ``dbf`` directly (:func:`component_dbf`) where they once
called a per-context ``dbf`` memo.  Within one backward walk the probed
instants strictly decrease, so the memo never hit on a first analysis —
this is what a pre-kernel first run of a distinct set paid, minus the
memo-insertion overhead (which flattered the reference).  The Dynamic
reference reads ``Im`` through :func:`repro.core.max_test_interval`
instead of the context memo it once had.
"""

import heapq
from fractions import Fraction
from typing import Generic, List, Optional, Tuple, TypeVar

from repro.analysis.bounds import BoundMethod
from repro.core import max_test_interval
from repro.engine.context import preflight
from repro.model.components import DemandSource, as_components, total_utilization
from repro.model.numeric import ExactTime
from repro.result import FailureWitness, FeasibilityResult, Verdict

__all__ = [
    "IntervalQueue",
    "component_dbf",
    "largest_deadline_below",
    "reference_processor_demand",
    "reference_qpa",
    "reference_dynamic",
    "reference_devi",
    "reference_baruah_bound",
    "reference_george_bound",
    "reference_superposition_bound",
]

T = TypeVar("T")


class IntervalQueue(Generic[T]):
    """Min-heap of ``(interval, payload)`` with FIFO tie-breaking.

    Payloads inserted at equal intervals pop in insertion order, which
    pins down the processing order of coincident deadlines — the tests'
    iteration counts would otherwise depend on heap internals.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: List[Tuple[ExactTime, int, T]] = []
        self._sequence = 0

    def push(self, interval: ExactTime, payload: T) -> None:
        """Insert *payload* scheduled at *interval*."""
        heapq.heappush(self._heap, (interval, self._sequence, payload))
        self._sequence += 1

    def pop(self) -> Tuple[ExactTime, T]:
        """Remove and return the earliest ``(interval, payload)``."""
        interval, _seq, payload = heapq.heappop(self._heap)
        return interval, payload

    def peek(self) -> Optional[Tuple[ExactTime, T]]:
        """Earliest entry without removing it, or ``None`` when empty."""
        if not self._heap:
            return None
        interval, _seq, payload = self._heap[0]
        return interval, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def component_dbf(components, interval: ExactTime) -> ExactTime:
    """System demand at *interval*, summed over the components' ``dbf``;
    an integral value is an ``int``, as the kernel reports it, so the
    witness types of the references match the tests'."""
    demand = sum((c.dbf(interval) for c in components), 0)
    if isinstance(demand, Fraction) and demand.denominator == 1:
        return demand.numerator
    return demand


def largest_deadline_below(components, limit: ExactTime) -> Optional[ExactTime]:
    """Largest synchronous absolute deadline strictly below *limit*.

    Component-based reference (one full scan per call): the oracle the
    kernel's backward step is checked against, and the step of the
    QPA reference below.
    """
    best: Optional[ExactTime] = None
    for c in components:
        if c.first_deadline >= limit:
            continue
        if c.period is None:
            candidate = c.first_deadline
        else:
            # Largest d0 + k*T < limit.
            steps = (limit - c.first_deadline) // c.period
            candidate = c.first_deadline + int(steps) * c.period
            if candidate >= limit:
                candidate -= c.period
        if candidate >= limit:  # pragma: no cover - defensive
            continue
        if best is None or candidate > best:
            best = candidate
    return best


def reference_processor_demand(ctx, bound):
    """(verdict, witness interval, witness demand, iterations)."""
    components = ctx.components
    queue = IntervalQueue()
    for idx, comp in enumerate(components):
        if comp.first_deadline <= bound:
            queue.push(comp.first_deadline, idx)
    demand = 0
    iterations = 0
    while queue:
        interval, idx = queue.pop()
        demand += components[idx].wcet
        nxt = components[idx].next_deadline_after(interval)
        if nxt is not None and nxt <= bound:
            queue.push(nxt, idx)
        head = queue.peek()
        if head is not None and head[0] == interval:
            continue
        iterations += 1
        if demand > interval:
            return ("infeasible", interval, demand, iterations)
    return ("feasible", None, None, iterations)


def reference_qpa(ctx, bound):
    """(verdict, witness interval, witness demand, iterations)."""
    components = ctx.components
    min_deadline = min((c.first_deadline for c in components), default=None)
    t = largest_deadline_below(components, bound + 1)
    if t is None:
        return ("feasible", None, None, 0)
    iterations = 0
    while True:
        demand = sum((c.dbf(t) for c in components), 0)
        iterations += 1
        if demand > t:
            return ("infeasible", t, demand, iterations)
        if demand <= min_deadline:
            return ("feasible", None, None, iterations)
        if demand < t:
            t = demand
        else:
            previous = largest_deadline_below(components, t)
            if previous is None:
                return ("feasible", None, None, iterations)
            t = previous


def reference_dynamic(
    source,
    bound_method=BoundMethod.SUPERPOSITION,
    max_level=None,
    level_schedule="double",
):
    """The Dynamic Error test's component loop (full ``FeasibilityResult``)."""
    if level_schedule not in ("double", "increment"):
        raise ValueError(f"unknown level schedule {level_schedule!r}")
    if max_level is not None and max_level < 1:
        raise ValueError(f"max_level must be >= 1, got {max_level}")
    name = "dynamic"
    ctx, early = preflight(source, name, overload_max_level=1)
    if early is not None:
        return early
    components = ctx.components
    u = ctx.utilization
    bound = ctx.bound(bound_method)
    if bound is None:  # pragma: no cover - U > 1 handled above
        raise AssertionError("no finite bound despite U <= 1")

    n = len(components)
    queue: IntervalQueue[int] = IntervalQueue()
    jobs_counted: List[int] = [0] * n
    approximated: List[bool] = [False] * n
    approx_at: List[Optional[ExactTime]] = [None] * n  # Im of each approx comp
    for idx, comp in enumerate(components):
        if comp.first_deadline <= bound:
            queue.push(comp.first_deadline, idx)

    level = 1
    exact_demand: ExactTime = 0
    u_ready = Fraction(0)
    approx_base = Fraction(0)
    iterations = 0
    intervals = 0
    revisions = 0
    last_interval: Optional[ExactTime] = None

    def current_value(at: ExactTime):
        return exact_demand + u_ready * Fraction(at) - approx_base

    while queue:
        interval, idx = queue.pop()
        if interval > bound:
            break  # Lemma 3 + bound: everything beyond is covered.
        comp = components[idx]
        exact_demand += comp.wcet
        jobs_counted[idx] += 1
        iterations += 1
        if last_interval != interval:
            intervals += 1
            last_interval = interval
        value = current_value(interval)

        while value > interval:
            revivable = [j for j in range(n) if approximated[j]]
            if not revivable:
                true_demand = component_dbf(components, interval)
                return FeasibilityResult(
                    verdict=Verdict.INFEASIBLE,
                    test_name=name,
                    iterations=iterations,
                    intervals_checked=intervals,
                    revisions=revisions,
                    max_level=level,
                    bound=bound,
                    witness=FailureWitness(
                        interval=interval, demand=true_demand, exact=True
                    ),
                    details={"utilization": u},
                )
            if max_level is not None and level >= max_level:
                return FeasibilityResult(
                    verdict=Verdict.UNKNOWN,
                    test_name=name,
                    iterations=iterations,
                    intervals_checked=intervals,
                    revisions=revisions,
                    max_level=level,
                    bound=bound,
                    witness=FailureWitness(
                        interval=interval,
                        demand=_normalize(value),
                        exact=False,
                    ),
                    details={"utilization": u, "reason": "level cap reached"},
                )
            if level_schedule == "double":
                level *= 2
            else:
                level += 1
            if max_level is not None:
                level = min(level, max_level)
            # Gamma_rev: approximated components the new level no longer
            # allows to be approximated at this interval.
            revived = [
                j
                for j in revivable
                if max_test_interval(components[j], level) > interval
            ]
            for j in revived:
                comp_j = components[j]
                rate = Fraction(comp_j.utilization)
                u_ready -= rate
                approx_base -= rate * Fraction(approx_at[j])
                approximated[j] = False
                approx_at[j] = None
                jobs_now = comp_j.jobs_up_to(interval)
                exact_demand += (jobs_now - jobs_counted[j]) * comp_j.wcet
                jobs_counted[j] = jobs_now
                nxt = comp_j.next_deadline_after(interval)
                if nxt is not None:
                    queue.push(nxt, j)
                revisions += 1
                iterations += 1
            if revived:
                value = current_value(interval)

        # The check passed.  Decide the component's continuation.
        if comp.period is None:
            continue  # one-shot: fully accounted, nothing recurs
        if jobs_counted[idx] < level:
            queue.push(interval + comp.period, idx)
        else:
            rate = Fraction(comp.utilization)
            u_ready += rate
            approx_base += rate * Fraction(interval)
            approximated[idx] = True
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


def reference_devi(source: DemandSource) -> FeasibilityResult:
    """Devi's test as a ``Fraction`` prefix loop over the components
    sorted by ``(D, T or 0, C)`` (full ``FeasibilityResult``)."""
    ctx, early = preflight(
        source, "devi", overload_iterations=1, overload_reason=None
    )
    if early is not None:
        return early
    components = ctx.components
    u = ctx.utilization
    ordered = sorted(
        components, key=lambda c: (c.first_deadline, c.period or 0, c.wcet)
    )
    rate_sum = Fraction(0)  # sum C_i / T_i over the prefix
    slack_sum = Fraction(0)  # sum ((T_i - min(T_i, D_i)) / T_i) * C_i
    iterations = 0
    for comp in ordered:
        d = comp.first_deadline
        c = Fraction(comp.wcet)
        if comp.period is None:
            # One-shot: no recurring rate; the whole cost is demand.
            slack_sum += c
        else:
            t = Fraction(comp.period)
            rate_sum += c / t
            clamped = min(t, Fraction(d))
            slack_sum += (t - clamped) / t * c
        iterations += 1
        # Condition (multiplied by D_k):  D_k * rate + slack <= D_k
        if d * rate_sum + slack_sum > d:
            demand = d * rate_sum + slack_sum
            return FeasibilityResult(
                verdict=Verdict.UNKNOWN,
                test_name="devi",
                iterations=iterations,
                intervals_checked=iterations,
                witness=FailureWitness(interval=d, demand=demand, exact=False),
                details={"utilization": u},
            )
    return FeasibilityResult(
        verdict=Verdict.FEASIBLE,
        test_name="devi",
        iterations=iterations,
        intervals_checked=iterations,
        details={"utilization": u},
    )


def _normalize(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def _exact(value):
    return value.numerator if value.denominator == 1 else value


def reference_baruah_bound(source: DemandSource) -> Optional[ExactTime]:
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


def reference_george_bound(source: DemandSource) -> Optional[ExactTime]:
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


def reference_superposition_bound(source: DemandSource) -> Optional[ExactTime]:
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
