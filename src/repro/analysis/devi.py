"""Devi's sufficient feasibility test [9] (paper Def. 1).

With components sorted by non-decreasing first deadline, the system is
accepted if for every prefix ``1..k``::

    sum_{i<=k} C_i/T_i  +  (1/D_k) * sum_{i<=k} ((T_i - min(T_i, D_i))/T_i) * C_i  <=  1

The paper's Lemma 2 shows this is precisely ``SuperPos(1)`` of the
superposition approach, *except* for the ``min(T_i, D_i)`` clamping: for
``D > T`` Devi discards the (negative) slack term, which makes Devi very
slightly more pessimistic than ``SuperPos(1)`` on deadline-beyond-period
tasks and identical on constrained-deadline systems.  The test module
``tests/integration/test_devi_superpos_equivalence.py`` verifies both
facts mechanically.

The implementation runs on the compiled kernel's grid with its integer
envelope weights ``(H, w)`` (``w_i / H = C_i / T_i``, see
:meth:`~repro.kernel.DemandKernel.envelope_weights`).  The condition is
multiplied through by ``D_k · H``::

    D_k * sum_{i<=k} w_i  +  sum_{i<=k} (T_i - min(T_i, D_i)) * w_i  <=  D_k * H

(a one-shot adds ``C_i · H`` to the second sum), so both prefix sums
stay machine integers and a rejection builds one `Fraction`, the
witness demand.  On the kernel's exact fallback grid ``(H, w)`` is
``(1, rates)`` and the same loop runs on `Fraction` rates.  One task
costs one comparison — ``n`` iterations for an accepted set of ``n``
tasks, matching the paper's Table 1 accounting.
"""

from __future__ import annotations

from fractions import Fraction

from ..engine.context import preflight
from ..model.components import DemandSource
from ..result import FailureWitness, FeasibilityResult, Verdict

__all__ = ["devi_test"]


def devi_test(source: DemandSource) -> FeasibilityResult:
    """Run Devi's test; verdict is FEASIBLE or UNKNOWN (never INFEASIBLE
    on its own — rejection proves nothing, so rejection with ``U <= 1``
    yields UNKNOWN).

    One-shot components (from event-stream bursts) are handled with zero
    rate and full slack-less demand, the natural generalisation.
    """
    ctx, early = preflight(
        source, "devi", overload_iterations=1, overload_reason=None
    )
    if early is not None:
        return early
    u = ctx.utilization
    kernel = ctx.kernel()
    hyper, weights = kernel.envelope_weights()
    rate_sum = 0  # sum w_i over the prefix: H * sum C_i / T_i
    slack_sum = 0  # sum (T_i - min(T_i, D_i)) * w_i, one-shots C_i * H
    iterations = 0
    # Sorting the grid tuples keeps the (D, T or 0, C) order, and ties
    # on all of them are interchangeable.
    for d, p, c, w in sorted(
        zip(kernel.d0s, kernel.periods, kernel.wcets, weights)
    ):
        if p:
            rate_sum += w
            if p > d:
                slack_sum += (p - d) * w
        else:
            # One-shot: no recurring rate; the whole cost is demand.
            slack_sum += c * hyper
        iterations += 1
        # Condition (multiplied by D_k * H):  D_k * sum w + slack <= D_k * H
        if d * rate_sum + slack_sum > d * hyper:
            demand = Fraction(d * rate_sum + slack_sum, hyper * (kernel.scale or 1))
            return FeasibilityResult(
                verdict=Verdict.UNKNOWN,
                test_name="devi",
                iterations=iterations,
                intervals_checked=iterations,
                witness=FailureWitness(
                    interval=kernel.unscale(d), demand=demand, exact=False
                ),
                details={"utilization": u},
            )
    return FeasibilityResult(
        verdict=Verdict.FEASIBLE,
        test_name="devi",
        iterations=iterations,
        intervals_checked=iterations,
        details={"utilization": u},
    )
