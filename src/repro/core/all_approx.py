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

The walk is the kernel's :class:`~repro.kernel.kernel.EnvelopeWalk` at
level 1, the loop ``SuperPos(x)`` and the Dynamic test run too; this
module is its failure policy: name one approximated component to
revise, or stop INFEASIBLE when none is left.  The walk's ``approx``
dict keeps insertion order, which is the FIFO order.  The largest-error
pick compares ``app(I, tau) = ((I - d0) mod T) · C / T`` across the
approximated components by cross-multiplying the kernel's grid values,
not by products with the ``H``-scaled weights of
:meth:`~repro.kernel.DemandKernel.envelope_weights` (hundreds of bits
wide on many-period systems); a strict ``>`` keeps the first largest in
insertion order.
"""

from __future__ import annotations

from math import inf

from ..engine.context import preflight
from ..kernel.kernel import EnvelopeWalk
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

    kernel = ctx.kernel()
    d0s, periods, wcets = kernel.d0s, kernel.periods, kernel.wcets
    # Backstop for U == 1, where the implicit superposition bound
    # diverges; within U < 1 the test list provably drains on its own.
    hi = kernel.inclusive_scaled(ctx.busy_period()) if u == 1 else inf
    walk = EnvelopeWalk(kernel, 1, hi)
    weights = walk.weights

    def revise(walk: EnvelopeWalk, interval: ExactTime):
        approx = walk.approx
        if not approx:
            return interval
        if revision_policy == RevisionPolicy.FIFO:
            return [next(iter(approx))]
        if revision_policy == RevisionPolicy.LARGEST_ERROR:
            # app(I, tau) = frac((I - d0)/T) * C = ((I - d0) mod T) * C / T
            # (Lemma 6), compared as num / T by cross-multiplying the grid
            # values (the -1 / 1 start is below every app >= 0); the
            # strict ``>`` keeps the first largest in insertion order.
            best, best_num, best_period = None, -1, 1
            for j in approx:
                period = periods[j]
                num = (interval - d0s[j]) % period * wcets[j]
                if num * best_period > best_num * period:
                    best, best_num, best_period = j, num, period
            return [best]
        return [max(approx, key=weights.__getitem__)]

    interval = walk.run(revise)
    counts = dict(
        test_name=name,
        iterations=walk.iterations,
        intervals_checked=walk.intervals,
        revisions=walk.revisions,
        details={"utilization": u},
    )
    if interval is None:
        return FeasibilityResult(verdict=Verdict.FEASIBLE, **counts)
    return FeasibilityResult(
        verdict=Verdict.INFEASIBLE,
        witness=FailureWitness(
            interval=kernel.unscale(interval),
            demand=kernel.unscale(kernel.dbf_scaled(interval)),
            exact=True,
        ),
        **counts,
    )
