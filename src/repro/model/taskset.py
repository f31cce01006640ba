"""Task set container.

A :class:`TaskSet` is an immutable, validated sequence of
:class:`~repro.model.task.SporadicTask` with cached aggregate quantities
(utilization, hyperperiod, deadline extrema).  Every analysis entry point
in the library takes a ``TaskSet`` (or anything convertible to one via
:func:`TaskSet.of`).

Its storage is one tuple of validated ``(C, D, T, phase, name)`` rows,
:attr:`TaskSet.rows`.  An integer set keeps only those rows: what
:meth:`TaskSet.of` builds from plain-``int`` ``(C, D, T)`` tuples, what
:meth:`TaskSet.from_rows` and the JSON decoders build from plain-``int``
rows.  Its `SporadicTask` objects are built on first iteration or
indexing and cached, so ``ts[0] is ts[0]``.  A set built from tasks keeps
those objects and derives its rows when they are first read.  The
aggregates, the analysis fingerprint and the JSON and fleet encoders
read rows, so an integer set that is analysed on the compiled kernel or
sent to a fleet worker never builds a task.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

from .numeric import ExactTime, Time, exact_lcm, rate_sum, to_exact
from .task import SporadicTask
from .validation import TaskSetError

__all__ = ["TaskSet", "Row"]

#: One task as ``(C, D, T, phase, name)``.
Row = Tuple[ExactTime, ExactTime, ExactTime, ExactTime, str]


class TaskSet(Sequence[SporadicTask]):
    """An immutable collection of sporadic tasks.

    The container is a ``Sequence``: iteration order is construction
    order, indexing and slicing work as expected (slices return new
    ``TaskSet`` instances).
    """

    __slots__ = ("_rows", "_tasks", "_name", "__dict__")

    def __init__(self, tasks: Iterable[SporadicTask], name: str = "") -> None:
        self._tasks: Optional[Tuple[SporadicTask, ...]] = tuple(tasks)
        self._rows: Optional[Tuple[Row, ...]] = None
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
    def _stored(cls, rows: Tuple[Row, ...], name: str) -> "TaskSet":
        """A set stored as *rows*, which must be valid already."""
        tasks = cls.__new__(cls)
        tasks._rows, tasks._tasks, tasks._name = rows, None, name
        return tasks

    @classmethod
    def from_rows(cls, rows: Iterable[Row], name: str = "") -> "TaskSet":
        """Build a task set from ``(C, D, T, phase, name)`` tuples.

        Rows of plain ``int``s in range (``C >= 0``, ``D > 0``, ``T > 0``,
        ``phase >= 0``) with unique ``str`` names are stored as they are.
        Any other input builds its tasks through `SporadicTask`, which
        normalises rationals and raises exactly as it always does.
        """
        rows = tuple(rows)
        named = set()
        for row in rows:
            c, d, t, phase, label = row
            if not (
                type(row) is tuple
                and type(c) is type(d) is type(t) is type(phase) is int
                and c >= 0
                and d > 0
                and t > 0
                and phase >= 0
                and type(label) is str
                and label not in named
            ):
                return cls([SporadicTask(*row) for row in rows], name)
            if label:
                named.add(label)
        return cls._stored(rows, name)

    @classmethod
    def of(cls, *tasks: Union[SporadicTask, Tuple[Time, Time, Time]]) -> "TaskSet":
        """Build a task set from tasks or plain ``(C, D, T)`` tuples.

        When every entry is a ``(C, D, T)`` tuple the set goes through
        :meth:`from_rows`, so plain ``int``s in range are stored as rows.
        """
        if all(type(entry) is tuple and len(entry) == 3 for entry in tasks):
            return cls.from_rows([(c, d, t, 0, "") for c, d, t in tasks])
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

    @property
    def rows(self) -> Tuple[Row, ...]:
        """The tasks as validated ``(C, D, T, phase, name)`` tuples."""
        rows = self._rows
        if rows is None:
            rows = tuple(
                (t.wcet, t.deadline, t.period, t.phase, t.name) for t in self._tasks
            )
            self._rows = rows
        return rows

    def _task_view(self) -> Tuple[SporadicTask, ...]:
        """The tasks as `SporadicTask`s, built from the rows once."""
        tasks = self._tasks
        if tasks is None:
            tasks = tuple(SporadicTask(*row) for row in self._rows)
            self._tasks = tasks
        return tasks

    def _params(self) -> Tuple[Tuple[ExactTime, ...], ...]:
        """The rows without their names: what a task's ``==`` and
        ``hash`` read, so a set's hash is the hash of its task tuple."""
        return tuple(row[:4] for row in self.rows)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        rows = self._rows
        return len(self._tasks if rows is None else rows)

    @overload
    def __getitem__(self, index: int) -> SporadicTask: ...

    @overload
    def __getitem__(self, index: slice) -> "TaskSet": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self._tasks is None:
                return TaskSet._stored(self._rows[index], self._name)
            return TaskSet(self._tasks[index], name=self._name)
        return self._task_view()[index]

    def __iter__(self) -> Iterator[SporadicTask]:
        return iter(self._task_view())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSet):
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self) -> int:
        return hash(self._params())

    def __reduce__(self):
        return (TaskSet._stored, (self.rows, self._name))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self._name!r}" if self._name else ""
        return f"TaskSet{label}(n={len(self)}, U={float(self.utilization):.4f})"

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @cached_property
    def utilization(self) -> ExactTime:
        """Total utilization :math:`U = \\sum C_i / T_i` (exact)."""
        return rate_sum((c, t) for c, _, t, _, _ in self.rows)

    @cached_property
    def total_wcet(self) -> ExactTime:
        """Sum of worst-case execution times."""
        return sum((row[0] for row in self.rows), 0)

    @cached_property
    def max_deadline(self) -> ExactTime:
        """Largest relative deadline :math:`D_{max}` (0 for the empty set)."""
        return max((row[1] for row in self.rows), default=0)

    @cached_property
    def min_deadline(self) -> ExactTime:
        return min((row[1] for row in self.rows), default=0)

    @cached_property
    def max_period(self) -> ExactTime:
        return max((row[2] for row in self.rows), default=0)

    @cached_property
    def min_period(self) -> ExactTime:
        return min((row[2] for row in self.rows), default=0)

    @cached_property
    def period_ratio(self) -> float:
        """``Tmax / Tmin`` — the spread the paper's Figure 9 sweeps."""
        if not self.rows:
            return 1.0
        return float(Fraction(self.max_period) / Fraction(self.min_period))

    @cached_property
    def hyperperiod(self) -> ExactTime:
        """Least common multiple of all periods (exact, rational-aware)."""
        rows = self.rows
        if not rows:
            return 0
        result: ExactTime = rows[0][2]
        for row in rows[1:]:
            result = exact_lcm(result, row[2])
        return result

    @cached_property
    def average_gap_ratio(self) -> float:
        """Mean of :math:`(T_i - D_i)/T_i` — the paper's "gap" metric."""
        rows = self.rows
        if not rows:
            return 0.0
        total = sum(float(Fraction(t - d) / Fraction(t)) for _, d, t, _, _ in rows)
        return total / len(rows)

    @property
    def is_synchronous(self) -> bool:
        """``True`` when all phases are zero."""
        return all(row[3] == 0 for row in self.rows)

    @cached_property
    def has_constrained_deadlines(self) -> bool:
        """``True`` when every task satisfies :math:`D_i \\le T_i`."""
        return all(d <= t for _, d, t, _, _ in self.rows)

    # ------------------------------------------------------------------
    # Views and transformations
    # ------------------------------------------------------------------

    @cached_property
    def by_deadline(self) -> "TaskSet":
        """Tasks sorted by non-decreasing relative deadline.

        This is the ordering Devi's test (paper Def. 1) requires.
        """
        ordered = sorted(
            self._task_view(), key=lambda t: (t.deadline, t.period, t.wcet)
        )
        return TaskSet(ordered, name=self._name)

    def scaled(self, factor: Time) -> "TaskSet":
        """Scale every task's time parameters by *factor* (> 0)."""
        scaled = (t.scaled(factor) for t in self._task_view())
        return TaskSet(scaled, name=self._name)

    def without(self, index: int) -> "TaskSet":
        """Return a copy with the task at *index* removed."""
        items = list(self._task_view())
        del items[index]
        return TaskSet(items, name=self._name)

    def extended(self, extra: Iterable[SporadicTask]) -> "TaskSet":
        """Return a copy with *extra* tasks appended."""
        return TaskSet(self._task_view() + tuple(extra), name=self._name)

    def renamed(self, name: str) -> "TaskSet":
        """Return a copy carrying a different label."""
        return TaskSet(self._task_view(), name=name)

    # ------------------------------------------------------------------
    # Demand
    # ------------------------------------------------------------------

    def dbf(self, interval: Time) -> ExactTime:
        """Demand bound function of the whole set (paper Def. 2)."""
        t = to_exact(interval)
        return sum((tau.dbf(t) for tau in self._task_view()), 0)

    def summary(self) -> str:
        """Multi-line human-readable description."""
        lines = [
            f"TaskSet {self._name or '<unnamed>'}: {len(self)} tasks, "
            f"U = {float(self.utilization):.4f}"
        ]
        for i, t in enumerate(self._task_view()):
            label = t.name or f"tau{i + 1}"
            lines.append(
                f"  {label:<24} C={str(t.wcet):>10}  D={str(t.deadline):>10}  "
                f"T={str(t.period):>10}"
            )
        return "\n".join(lines)

