"""Quick Processor-demand Analysis (QPA, Zhang & Burns, RTSS 2009).

An extension beyond the paper: QPA is the later state-of-the-art exact
test that walks the demand staircase *backwards* from the feasibility
bound, jumping directly to ``dbf(t)`` whenever ``dbf(t) < t``.  It is
included as an additional comparator so the benchmark harness can place
the paper's 2005 algorithms next to the 2009 technique.

Algorithm (for ``U <= 1``)::

    t = max{ d : d is an absolute deadline, d < B }      # B = bound
    while dbf(t) <= t and dbf(t) > min_deadline:
        if dbf(t) < t:  t = dbf(t)
        else:           t = max{ d : d < t }
    feasible  <=>  dbf(t) <= min_deadline or dbf(t) <= t

The loop runs entirely on the system's compiled
:class:`~repro.kernel.DemandKernel`: ``dbf`` evaluations are flat-array
integer sweeps, and each ``max{ d : d < t }`` step is one scan of the
components whose first deadline lies below ``t``
(:meth:`~repro.kernel.DemandKernel.prev_deadline`), on the integerized
fast path and on the exact fallback path alike.  The walk takes that
step only when ``dbf(t) = t`` (and once for its first ``t``), so it
keeps no state between steps.  The parity suite checks the step against
a component-based full rescan (``largest_deadline_below`` in
``tests/kernel/reference_walks.py``).

Iterations count the ``dbf`` evaluations — the comparable unit of work to
"test intervals checked" in the forward tests.
"""

from __future__ import annotations

from ..engine.context import preflight
from ..model.components import DemandSource
from ..result import FailureWitness, FeasibilityResult, Verdict
from .bounds import BoundMethod

__all__ = ["qpa_test"]


def qpa_test(
    source: DemandSource, bound_method: BoundMethod = BoundMethod.BEST
) -> FeasibilityResult:
    """Exact EDF feasibility via Zhang & Burns' backward iteration."""
    name = "qpa"
    ctx, early = preflight(source, name)
    if early is not None:
        return early
    u = ctx.utilization
    if not ctx.fingerprint:
        return FeasibilityResult(
            verdict=Verdict.FEASIBLE, test_name=name, iterations=0
        )
    bound = ctx.bound(bound_method)
    if bound is None:  # pragma: no cover - U > 1 handled above
        raise AssertionError("no finite bound despite U <= 1")

    kernel = ctx.kernel()

    # The forward tests check deadlines <= bound; QPA starts just past the
    # bound so the same closed range is covered.  The whole walk runs on
    # the kernel (on numpy's loop or the python loop by walk size; the
    # t-sequence is the same on both, see DemandKernel.qpa).
    status, interval, demand, iterations = kernel.qpa(bound)
    if status == "empty":
        return FeasibilityResult(
            verdict=Verdict.FEASIBLE,
            test_name=name,
            iterations=0,
            bound=bound,
            details={"utilization": u, "reason": "no deadline within bound"},
        )
    if status == "infeasible":
        return FeasibilityResult(
            verdict=Verdict.INFEASIBLE,
            test_name=name,
            iterations=iterations,
            intervals_checked=iterations,
            bound=bound,
            witness=FailureWitness(
                interval=interval,
                demand=demand,
                exact=True,
            ),
            details={"utilization": u},
        )
    return FeasibilityResult(
        verdict=Verdict.FEASIBLE,
        test_name=name,
        iterations=iterations,
        intervals_checked=iterations,
        bound=bound,
        details={"utilization": u},
    )
