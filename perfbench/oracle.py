"""Reference EDF feasibility verdicts the benchmark checks outputs against.

A deliberately plain implementation, sharing no code with the program:
exact uniprocessor EDF feasibility of synchronous constrained-deadline
sporadic tasks with integer parameters, decided by Zhang & Burns' QPA
backward walk over ``dbf`` under the ``L_a`` bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Task = Tuple[int, int, int]

#: Outputs a run checks, spread evenly over its operations.
CHECKS = 60


def dbf(tasks: List[Task], t: int) -> int:
    """Synchronous demand bound function at interval length *t*."""
    return sum(((t - d) // p + 1) * c for c, d, p in tasks if d <= t)


def _last_deadline_below(tasks: List[Task], limit: int) -> Optional[int]:
    best = None
    for _, d, p in tasks:
        if d < limit:
            candidate = d + (limit - d - 1) // p * p
            if best is None or candidate > best:
                best = candidate
    return best


def feasible(tasks: List[Task]) -> bool:
    """Whether EDF meets every deadline of *tasks*.

    The inputs never reach ``U == 1`` exactly, where ``L_a`` is undefined.
    """
    u = sum((Fraction(c, p) for c, _, p in tasks), Fraction(0))
    if u > 1:
        return False
    if u == 1:
        raise ValueError("the reference walk needs U < 1")
    slack = sum((Fraction((p - d) * c, p) for c, d, p in tasks), Fraction(0))
    bound = max(max(d for _, d, _ in tasks), math.ceil(slack / (1 - u)))
    d_min = min(d for _, d, _ in tasks)
    t = _last_deadline_below(tasks, bound + 1)
    while t is not None:
        demand = dbf(tasks, t)
        if demand > t:
            return False
        if demand <= d_min:
            return True
        t = demand if demand < t else _last_deadline_below(tasks, t)
    return True


def check(outputs: Sequence[Tuple[List[Task], Sequence[str], str]]) -> List[str]:
    """Compare an even sample of ``(tasks, verdicts, what)`` outputs, at
    most ``CHECKS`` of them, against the reference verdict of *tasks*;
    returns one message per disagreement."""
    if len(outputs) > CHECKS:
        step = len(outputs) / CHECKS
        outputs = [outputs[int(i * step)] for i in range(CHECKS)]
    mismatches = []
    for tasks, verdicts, what in outputs:
        expected = "feasible" if feasible(tasks) else "infeasible"
        mismatches += [f"{what}: {got}, expected {expected}" for got in verdicts if got != expected]
    return mismatches
