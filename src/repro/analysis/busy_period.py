"""Synchronous busy period (paper Section 4.3, via [14]).

The *synchronous busy period* ``L`` is the length of the first interval of
continuous processor activity when all tasks release simultaneously at
time 0 and recur as fast as allowed.  It is the smallest positive fixed
point of::

    L = sum_i ceil(L / T_i) * C_i

For ``U <= 1`` the iteration ``L_{k+1} = rbf(L_k)`` starting from
``sum C_i`` converges to that fixed point (it is bounded by the
hyperperiod).  Classic result used here: if a synchronous sporadic system
misses a deadline under EDF, a miss occurs at a deadline inside the first
synchronous busy period — so ``L`` is a valid feasibility bound, and the
only one that remains finite at ``U = 1``.

One-shot demand components (bursty event streams) add their cost to
every step, so at exactly ``U = 1`` with a nonzero one-shot cost the
iteration never converges (``rbf(L) >= L + one-shot cost``).  There
:func:`busy_period_of_components` returns ``D* + H`` instead — the
largest first deadline plus the hyperperiod — an exact bound, because
``dbf(t + H) - (t + H) = dbf(t) - t`` for every ``t >= D*`` at ``U = 1``.
"""

from __future__ import annotations

from functools import reduce
from typing import Optional

from ..model.components import DemandSource, as_components, total_utilization
from ..model.numeric import ExactTime, ceil_div, exact_lcm, to_exact
from ..model.taskset import TaskSet

__all__ = ["synchronous_busy_period", "busy_period_of_components"]


def synchronous_busy_period(tasks: TaskSet) -> Optional[ExactTime]:
    """Busy period of a task set, or ``None`` when ``U > 1`` (divergent).

    Exact arithmetic; zero-cost tasks contribute nothing.
    """
    active = [t for t in tasks if t.wcet > 0]
    if not active:
        return 0
    if tasks.utilization > 1:
        return None
    length: ExactTime = sum(t.wcet for t in active)
    while True:
        demand: ExactTime = 0
        for t in active:
            demand += ceil_div(length, t.period) * t.wcet
        if demand == length:
            return length
        length = demand


def busy_period_of_components(source: DemandSource) -> Optional[ExactTime]:
    """Conservative busy period for arbitrary demand components.

    Components do not record release offsets (only deadlines), so each
    recurrent component is treated as releasing from time 0 at full rate —
    an over-approximation of its request bound function, hence the fixed
    point is an upper bound on the true busy period and remains a sound
    feasibility bound.  One-shot components add their cost once.

    At ``U = 1`` with one-shot components no fixed point exists; the
    result is then the exact bound ``D* + H`` (see the module docstring).

    Returns ``None`` when the total utilization exceeds 1.
    """
    components = as_components(source)
    if not components:
        return 0
    utilization = total_utilization(components)
    if utilization > 1:
        return None
    one_shot_cost: ExactTime = sum(
        (c.wcet for c in components if not c.is_recurrent), 0
    )
    recurrent = [c for c in components if c.is_recurrent]
    if one_shot_cost and utilization == 1:
        last_deadline = max(c.first_deadline for c in components)
        return to_exact(
            last_deadline + reduce(exact_lcm, (c.period for c in recurrent))
        )
    length: ExactTime = one_shot_cost + sum((c.wcet for c in recurrent), 0)
    if length == 0:
        return 0
    while True:
        demand: ExactTime = one_shot_cost
        for c in recurrent:
            demand += ceil_div(length, c.period) * c.wcet
        if demand == length:
            return length
        length = demand
