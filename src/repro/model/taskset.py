"""Task set container.

A :class:`TaskSet` is an immutable, validated sequence of
:class:`~repro.model.task.SporadicTask` with cached aggregate quantities
(utilization, hyperperiod, deadline extrema).  Every analysis entry point
in the library takes a ``TaskSet`` (or anything convertible to one via
:func:`TaskSet.of`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, List, Sequence, Tuple, Union, overload

from .numeric import ExactTime, Time, exact_lcm, rate_sum, to_exact
from .task import SporadicTask
from .validation import TaskSetError

__all__ = ["TaskSet"]


class TaskSet(Sequence[SporadicTask]):
    """An immutable collection of sporadic tasks.

    The container is a ``Sequence``: iteration order is construction
    order, indexing and slicing work as expected (slices return new
    ``TaskSet`` instances).
    """

    __slots__ = ("_tasks", "_name", "__dict__")

    def __init__(self, tasks: Iterable[SporadicTask], name: str = "") -> None:
        self._tasks: Tuple[SporadicTask, ...] = tuple(tasks)
        self._name = name
        for entry in self._tasks:
            if not isinstance(entry, SporadicTask):
                raise TaskSetError(
                    f"TaskSet entries must be SporadicTask, got {type(entry).__name__}"
                )
        named = [t.name for t in self._tasks if t.name]
        if len(named) != len(set(named)):
            duplicates = sorted({n for n in named if named.count(n) > 1})
            raise TaskSetError(f"duplicate task names: {duplicates}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, *tasks: Union[SporadicTask, Tuple[Time, Time, Time]]) -> "TaskSet":
        """Build a task set from tasks or plain ``(C, D, T)`` tuples."""
        converted: List[SporadicTask] = []
        for entry in tasks:
            if isinstance(entry, SporadicTask):
                converted.append(entry)
            else:
                c, d, t = entry
                converted.append(SporadicTask(wcet=c, deadline=d, period=t))
        return cls(converted)

    @property
    def name(self) -> str:
        """Optional label, used by the example sets and reports."""
        return self._name

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    @overload
    def __getitem__(self, index: int) -> SporadicTask: ...

    @overload
    def __getitem__(self, index: slice) -> "TaskSet": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TaskSet(self._tasks[index], name=self._name)
        return self._tasks[index]

    def __iter__(self) -> Iterator[SporadicTask]:
        return iter(self._tasks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSet):
            return NotImplemented
        return self._tasks == other._tasks

    def __hash__(self) -> int:
        return hash(self._tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self._name!r}" if self._name else ""
        return f"TaskSet{label}(n={len(self)}, U={float(self.utilization):.4f})"

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @cached_property
    def utilization(self) -> ExactTime:
        """Total utilization :math:`U = \\sum C_i / T_i` (exact)."""
        return rate_sum((t.wcet, t.period) for t in self._tasks)

    @cached_property
    def total_wcet(self) -> ExactTime:
        """Sum of worst-case execution times."""
        return sum((t.wcet for t in self._tasks), 0)

    @cached_property
    def max_deadline(self) -> ExactTime:
        """Largest relative deadline :math:`D_{max}` (0 for the empty set)."""
        return max((t.deadline for t in self._tasks), default=0)

    @cached_property
    def min_deadline(self) -> ExactTime:
        return min((t.deadline for t in self._tasks), default=0)

    @cached_property
    def max_period(self) -> ExactTime:
        return max((t.period for t in self._tasks), default=0)

    @cached_property
    def min_period(self) -> ExactTime:
        return min((t.period for t in self._tasks), default=0)

    @cached_property
    def period_ratio(self) -> float:
        """``Tmax / Tmin`` — the spread the paper's Figure 9 sweeps."""
        if not self._tasks:
            return 1.0
        return float(Fraction(self.max_period) / Fraction(self.min_period))

    @cached_property
    def hyperperiod(self) -> ExactTime:
        """Least common multiple of all periods (exact, rational-aware)."""
        if not self._tasks:
            return 0
        result: ExactTime = self._tasks[0].period
        for t in self._tasks[1:]:
            result = exact_lcm(result, t.period)
        return result

    @cached_property
    def average_gap_ratio(self) -> float:
        """Mean of :math:`(T_i - D_i)/T_i` — the paper's "gap" metric."""
        if not self._tasks:
            return 0.0
        total = sum(float(Fraction(t.gap) / Fraction(t.period)) for t in self._tasks)
        return total / len(self._tasks)

    @property
    def is_synchronous(self) -> bool:
        """``True`` when all phases are zero."""
        return all(t.phase == 0 for t in self._tasks)

    @cached_property
    def has_constrained_deadlines(self) -> bool:
        """``True`` when every task satisfies :math:`D_i \\le T_i`."""
        return all(t.is_constrained_deadline for t in self._tasks)

    # ------------------------------------------------------------------
    # Views and transformations
    # ------------------------------------------------------------------

    @cached_property
    def by_deadline(self) -> "TaskSet":
        """Tasks sorted by non-decreasing relative deadline.

        This is the ordering Devi's test (paper Def. 1) requires.
        """
        ordered = sorted(self._tasks, key=lambda t: (t.deadline, t.period, t.wcet))
        return TaskSet(ordered, name=self._name)

    def scaled(self, factor: Time) -> "TaskSet":
        """Scale every task's time parameters by *factor* (> 0)."""
        return TaskSet((t.scaled(factor) for t in self._tasks), name=self._name)

    def without(self, index: int) -> "TaskSet":
        """Return a copy with the task at *index* removed."""
        items = list(self._tasks)
        del items[index]
        return TaskSet(items, name=self._name)

    def extended(self, extra: Iterable[SporadicTask]) -> "TaskSet":
        """Return a copy with *extra* tasks appended."""
        return TaskSet(self._tasks + tuple(extra), name=self._name)

    def renamed(self, name: str) -> "TaskSet":
        """Return a copy carrying a different label."""
        return TaskSet(self._tasks, name=name)

    # ------------------------------------------------------------------
    # Demand
    # ------------------------------------------------------------------

    def dbf(self, interval: Time) -> ExactTime:
        """Demand bound function of the whole set (paper Def. 2)."""
        t = to_exact(interval)
        return sum((tau.dbf(t) for tau in self._tasks), 0)

    def summary(self) -> str:
        """Multi-line human-readable description."""
        lines = [
            f"TaskSet {self._name or '<unnamed>'}: {len(self)} tasks, "
            f"U = {float(self.utilization):.4f}"
        ]
        for i, t in enumerate(self._tasks):
            label = t.name or f"tau{i + 1}"
            lines.append(
                f"  {label:<24} C={str(t.wcet):>10}  D={str(t.deadline):>10}  "
                f"T={str(t.period):>10}"
            )
        return "\n".join(lines)

