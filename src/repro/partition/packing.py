"""Demand-based bin-packing heuristics for partitioned EDF.

The classic bin-packing family — next-fit, first-fit, best-fit,
worst-fit, each optionally preceded by a decreasing-utilization sort —
parameterized by a pluggable :class:`~repro.partition.admission.AdmissionPredicate`
instead of a scalar capacity.  "Fullness" for the best/worst-fit
ordering is measured by exact core utilization (the natural demand
proxy on identical cores); feasibility of a placement is whatever the
admission predicate says, so the same loop serves the cheap utilization
gate, the paper's ε-approximate demand test, and the exact
processor-demand criterion.

Every heuristic is deterministic: tasks are probed in a fixed order
(input order, or the decreasing-utilization order with documented
tie-breaks) and core ties always resolve to the lowest index, so two
runs over the same inputs produce identical assignments — a property
the test suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, Optional, Tuple, Union

from ..engine.registry import HEURISTICS, TestRegistry
from ..model.numeric import Time
from ..model.task import SporadicTask
from ..model.taskset import TaskSet
from .admission import AdmissionPredicate, admission_predicate
from .platform import PartitionedSystem, Platform, _as_taskset

__all__ = ["HEURISTICS", "PackingResult", "pack", "packing_order"]


@dataclass(frozen=True)
class PackingResult:
    """Outcome of one packing run.

    Attributes:
        system: the (possibly partial) assignment produced.
        heuristic: heuristic name as requested (e.g. ``"ffd"``).
        admission: resolved admission predicate name (e.g.
            ``"approx-dbf(eps=1/10)"``).
        admission_calls: total admission checks performed — the packing
            analogue of the paper's iteration metric.
        order: task indices in the order they were placed.
        proves_feasibility: ``True`` when a complete packing is a
            feasibility proof (inherited from the admission predicate).
    """

    system: PartitionedSystem
    heuristic: str
    admission: str
    admission_calls: int
    order: Tuple[int, ...]
    proves_feasibility: bool

    @property
    def success(self) -> bool:
        """``True`` when every task found a core."""
        return self.system.is_complete

    @property
    def unassigned(self) -> Tuple[int, ...]:
        return self.system.unassigned


def packing_order(tasks: TaskSet, heuristic: str) -> Tuple[int, ...]:
    """Task probe order of *heuristic*: input order, or decreasing
    utilization for the ``*d`` variants.

    Decreasing ties break by smaller deadline, larger WCET, then input
    order — all exact comparisons, so the order is deterministic.
    """
    if heuristic not in HEURISTICS:
        raise ValueError(
            f"unknown packing heuristic {heuristic!r}; "
            f"available: {', '.join(HEURISTICS)}"
        )
    indices = tuple(range(len(tasks)))
    if not heuristic.endswith("d"):
        return indices
    return tuple(
        sorted(
            indices,
            key=lambda i: (
                -Fraction(tasks[i].utilization),
                tasks[i].deadline,
                -tasks[i].wcet,
                i,
            ),
        )
    )


def _resolve_admission(
    admission: Union[str, AdmissionPredicate],
    *,
    epsilon: Optional[Time],
    registry: Optional[TestRegistry],
    **admission_options: Any,
) -> AdmissionPredicate:
    """Resolve a name, or pass an instance through.

    A ready-made predicate is already fully configured, so combining it
    with ``epsilon`` / ``registry`` / admission options is a
    contradiction; raising beats silently dropping the request.
    """
    if isinstance(admission, AdmissionPredicate):
        if epsilon is not None or registry is not None or admission_options:
            raise ValueError(
                "epsilon/registry/admission options only apply when the "
                "admission is given by name; got a ready-made "
                f"AdmissionPredicate ({admission.name!r})"
            )
        return admission
    return admission_predicate(
        admission, epsilon=epsilon, registry=registry, **admission_options
    )


def pack(
    source: Union[TaskSet, PartitionedSystem],
    cores: Union[int, Platform],
    heuristic: str = "ffd",
    admission: Union[str, AdmissionPredicate] = "approx-dbf",
    *,
    epsilon: Optional[Time] = None,
    registry: Optional[TestRegistry] = None,
    **admission_options: Any,
) -> PackingResult:
    """Partition *source* onto *cores* identical cores.

    Args:
        source: a :class:`TaskSet` (or sequence of tasks, or an existing
            :class:`PartitionedSystem` whose assignment is discarded).
        cores: core count or a :class:`Platform`.
        heuristic: one of :data:`HEURISTICS`.
        admission: predicate name (see
            :func:`~repro.partition.admission.admission_predicate`) or a
            ready-made :class:`AdmissionPredicate`.
        epsilon: error bound for the ``"approx-dbf"`` admission.
        registry: registry for test-backed admissions.
        **admission_options: extra options of the admission's test.

    Returns:
        A :class:`PackingResult`; check :attr:`PackingResult.success`
        before trusting the assignment — unassigned tasks are listed in
        :attr:`PackingResult.unassigned`.
    """
    tasks = _as_taskset(source)
    platform = cores if isinstance(cores, Platform) else Platform(cores=cores)
    if heuristic not in HEURISTICS:
        raise ValueError(
            f"unknown packing heuristic {heuristic!r}; "
            f"available: {', '.join(HEURISTICS)}"
        )
    predicate = _resolve_admission(
        admission, epsilon=epsilon, registry=registry, **admission_options
    )

    m = platform.cores
    contents: List[Tuple[SporadicTask, ...]] = [() for _ in range(m)]
    loads: List[Fraction] = [Fraction(0) for _ in range(m)]
    assignment: List[Optional[int]] = [None] * len(tasks)
    order = packing_order(tasks, heuristic)
    base = heuristic.rstrip("d") if heuristic.endswith("d") else heuristic
    start_calls = predicate.calls
    current = 0  # next-fit cursor

    for index in order:
        candidate = tasks[index]
        placed: Optional[int] = None
        if base == "nf":
            # Next-fit: probe only the current core; on rejection move
            # forward, never revisiting earlier cores.
            while current < m:
                if predicate.admits(contents[current], loads[current], candidate):
                    placed = current
                    break
                current += 1
        else:
            for core in _probe_order(base, loads, m):
                if predicate.admits(contents[core], loads[core], candidate):
                    placed = core
                    break
        if placed is not None:
            assignment[index] = placed
            contents[placed] = contents[placed] + (candidate,)
            loads[placed] += Fraction(candidate.utilization)

    system = PartitionedSystem(tasks, platform, assignment)
    return PackingResult(
        system=system,
        heuristic=heuristic,
        admission=predicate.name,
        admission_calls=predicate.calls - start_calls,
        order=order,
        proves_feasibility=predicate.proves_feasibility,
    )


def _probe_order(base: str, loads: List[Fraction], m: int) -> List[int]:
    """Core probe order: FF by index, BF fullest-first, WF emptiest-first.

    Probing in preference order and taking the first admitting core is
    equivalent to filtering all admitting cores and choosing the
    best/worst loaded one, but performs fewer admission calls.  Ties
    resolve to the lowest core index (Python's sort is stable).
    """
    if base == "ff":
        return list(range(m))
    if base == "bf":
        return sorted(range(m), key=lambda k: (-loads[k], k))
    if base == "wf":
        return sorted(range(m), key=lambda k: (loads[k], k))
    raise AssertionError(f"unhandled heuristic base {base!r}")  # pragma: no cover
