"""The All-Approximated test (paper Section 4.2, Figure 7).

The second — and in the paper's experiments the strongest — new exact
test.  Instead of a global approximation level, *every* component is
approximated immediately after the first test interval it contributes,
and approximations are revoked individually, per failing interval:

* The test list starts with each component's first deadline.
* When the check at an interval ``I_test`` fails, approximated components
  are revised one at a time — their envelope contribution is replaced by
  their exact demand (Lemma 6) and their next exact deadline after
  ``I_test`` (``NextInt``, Lemma 5) is added to the test list — until the
  check passes or no component is approximated any more (a true demand
  overflow: INFEASIBLE with an exact witness).
* A component that passes a check is (re-)approximated right away, its
  envelope re-anchored at the interval just checked.

Earlier intervals never need re-examination (Lemma 3), and the
approximation error ``app`` is level-independent, so all accumulated
demand is reused.  Termination needs no explicit feasibility bound for
``U < 1``: once intervals exceed the superposition bound of Section 4.3,
no check can fail and the test list drains — the bound is verified
*implicitly*.  At ``U = 1`` (where that bound diverges) the synchronous
busy period serves as backstop.

If the initial interval of every component is accepted without generating
new test intervals, behaviour and cost equal Devi's test (paper
Section 4.2, last paragraph) — one comparison per component.

``revision_policy`` selects which approximated component to revise first
on failure.  The paper's pseudocode says ``getAndRemoveFirstTask``
without specifying the list order; taken literally as FIFO it makes the
All-Approximated test *costlier* than the Dynamic test, inverting the
ordering the paper's Table 1 and Figure 8 report.  Revising the
component with the **largest current overestimation** ``app(I, tau)``
restores the published ordering (see the policy-ablation benchmark),
so ``"largest_error"`` is the default here and we read the paper's
"first" as "first by approximation error":

* ``"largest_error"`` (default) — revise the component whose envelope
  overshoots the staircase most at the failing interval (``O(n)`` scan);
* ``"fifo"`` — the literal pseudocode reading;
* ``"largest_utilization"`` — revise the fastest-accumulating component.

The walk runs on the compiled kernel's grid with integer envelope sums
over :meth:`~repro.kernel.DemandKernel.envelope_weights` ``(H, w)``,
``w_i / H = C_i / T_i``: the check ``exact + U_ready·I - base > I`` is
multiplied through by ``H``, and the largest-error key becomes
``((I - d0) mod T) · w``, ``H`` times ``app(I, tau)`` for every
component alike, so ``max()`` keeps its order and its ties.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Deque, List, Optional, Sequence

from ..engine.context import preflight
from ..model.components import DemandSource
from ..model.numeric import ExactTime
from ..result import FailureWitness, FeasibilityResult, Verdict

__all__ = ["all_approx_test", "RevisionPolicy"]


class RevisionPolicy:
    """Order in which failed checks revoke approximations."""

    FIFO = "fifo"
    LARGEST_ERROR = "largest_error"
    LARGEST_UTILIZATION = "largest_utilization"

    _ALL = ("fifo", "largest_error", "largest_utilization")


def all_approx_test(
    source: DemandSource,
    revision_policy: str = RevisionPolicy.LARGEST_ERROR,
) -> FeasibilityResult:
    """Run the All-Approximated test on *source*.

    Returns an exact :class:`FeasibilityResult`; on INFEASIBLE the
    witness interval carries the true ``dbf`` overflow.
    """
    if revision_policy not in RevisionPolicy._ALL:
        raise ValueError(f"unknown revision policy {revision_policy!r}")
    name = "all-approx"
    ctx, early = preflight(source, name)
    if early is not None:
        return early
    u = ctx.utilization

    # The walk runs on the compiled kernel's flat arrays (see
    # repro.kernel): heap entries live on the kernel grid, and the push
    # sequence numbers reproduce the FIFO tie-breaking of the
    # component-based implementation bit-exactly.  The envelope sums are
    # ``slope = Σ w`` and ``base = Σ w·anchor``, i.e. ``hyper`` times the
    # rate sum and the envelope base, so the check runs on integers.
    kernel = ctx.kernel()
    n = kernel.n
    d0s, periods, wcets = kernel.d0s, kernel.periods, kernel.wcets
    hyper, weights = kernel.envelope_weights()

    # Backstop for U == 1, where the implicit superposition bound
    # diverges; within U < 1 the test list provably drains on its own.
    backstop: Optional[ExactTime] = None
    if u == 1:
        backstop = kernel.inclusive_scaled(ctx.busy_period())

    heap = [(d0s[idx], idx, idx) for idx in range(n)]
    heapify(heap)
    seq = n
    jobs_counted: List[int] = [0] * n
    approx_at: List[Optional[ExactTime]] = [None] * n
    approx_fifo: Deque[int] = deque()

    exact_demand: ExactTime = 0
    slope: ExactTime = 0  # Σ w over approximated components
    base: ExactTime = 0  # Σ w·anchor over approximated components
    iterations = 0
    intervals = 0
    revisions = 0
    last_interval: Optional[ExactTime] = None

    while heap:
        interval, _, idx = heappop(heap)
        if backstop is not None and interval > backstop:
            break  # busy-period bound: nothing beyond can fail first
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
            if not approx_fifo:
                true_demand = kernel.dbf_scaled(interval)
                return FeasibilityResult(
                    verdict=Verdict.INFEASIBLE,
                    test_name=name,
                    iterations=iterations,
                    intervals_checked=intervals,
                    revisions=revisions,
                    witness=FailureWitness(
                        interval=kernel.unscale(interval),
                        demand=kernel.unscale(true_demand),
                        exact=True,
                    ),
                    details={"utilization": u},
                )
            j = _pick_revision(revision_policy, approx_fifo, kernel, weights, interval)
            w = weights[j]
            slope -= w
            base -= w * approx_at[j]
            approx_at[j] = None
            # Only recurrent components are ever approximated, and the
            # walk is ascending, so interval >= d0s[j] here.
            jobs_now = (interval - d0s[j]) // periods[j] + 1
            exact_demand += (jobs_now - jobs_counted[j]) * wcets[j]
            jobs_counted[j] = jobs_now
            heappush(heap, (d0s[j] + jobs_now * periods[j], seq, j))
            seq += 1
            revisions += 1
            iterations += 1

        # Check passed: approximate the component from this interval on.
        if periods[idx]:
            w = weights[idx]
            slope += w
            base += w * interval
            approx_at[idx] = interval
            approx_fifo.append(idx)

    return FeasibilityResult(
        verdict=Verdict.FEASIBLE,
        test_name=name,
        iterations=iterations,
        intervals_checked=intervals,
        revisions=revisions,
        details={"utilization": u},
    )


def _pick_revision(
    policy: str,
    approx_fifo: Deque[int],
    kernel,
    weights: Sequence[ExactTime],
    interval: ExactTime,
) -> int:
    """Remove and return the next component to revise, per *policy*.

    Keys use the envelope *weights* (``hyper`` times each rate, one
    ``hyper`` for all), so they order and tie as rate-based keys would.
    """
    if policy == RevisionPolicy.FIFO:
        return approx_fifo.popleft()
    if policy == RevisionPolicy.LARGEST_ERROR:
        # app(I, tau) = frac((I - d0)/T) * C = ((I - d0) mod T) * rate
        # (Lemma 6); only the ordering matters, so the grid-scaled value
        # times the common ``hyper`` serves unchanged.
        d0s, periods = kernel.d0s, kernel.periods
        best = max(
            approx_fifo,
            key=lambda j: (interval - d0s[j]) % periods[j] * weights[j],
        )
    else:  # LARGEST_UTILIZATION
        best = max(approx_fifo, key=weights.__getitem__)
    approx_fifo.remove(best)
    return best
