"""Demand components — the common currency of all feasibility tests.

Every test in :mod:`repro.core` and :mod:`repro.analysis` operates on a
flat list of *demand components*.  A component is the atomic unit of
demand: a (possibly infinite) arithmetic progression of absolute
deadlines ``d0, d0 + T, d0 + 2T, ...`` each carrying ``C`` units of
execution demand.

* A sporadic task contributes exactly one component
  ``(C, d0=D, T=period)``.
* An event-stream task (Gresser's model, paper Sections 2 and 3.6)
  contributes one component per event-stream element, with the element
  offset shifting the first deadline — this is precisely the "easy
  extension to the event stream model" the paper refers to ([1]).
* A one-shot component (``period=None``) carries a single deadline and
  zero utilization; it models isolated events inside a burst.

Keeping the tests component-based means the paper's algorithms are
implemented once and support both task models unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .numeric import ExactTime, Time, floor_div, rate_sum, to_exact
from .task import SporadicTask
from .taskset import TaskSet
from .validation import ModelError

__all__ = ["DemandComponent", "as_components", "component_rows", "DemandSource"]


@dataclass(frozen=True)
class DemandComponent:
    """One arithmetic progression of deadlines with per-job demand ``C``.

    Attributes:
        wcet: demand contributed at each deadline (``C > 0``; zero-demand
            components are dropped by :func:`as_components`).
        first_deadline: the first absolute deadline ``d0 > 0`` under the
            synchronous release pattern.
        period: distance between consecutive deadlines, or ``None`` for a
            one-shot component contributing a single deadline.
        source: label of the originating task, for diagnostics.
    """

    wcet: ExactTime
    first_deadline: ExactTime
    period: Optional[ExactTime] = None
    source: str = ""

    def __post_init__(self) -> None:
        wcet, first_deadline, period = self.wcet, self.first_deadline, self.period
        # As for SporadicTask: plain ints are exact as given.
        if not (
            type(wcet) is type(first_deadline) is int
            and (period is None or type(period) is int)
        ):
            wcet, first_deadline = to_exact(wcet), to_exact(first_deadline)
            object.__setattr__(self, "wcet", wcet)
            object.__setattr__(self, "first_deadline", first_deadline)
            if period is not None:
                period = to_exact(period)
                object.__setattr__(self, "period", period)
        if wcet < 0:
            raise ModelError(f"component wcet must be >= 0, got {wcet}")
        if first_deadline <= 0:
            raise ModelError(
                f"component first deadline must be > 0, got {first_deadline}"
            )
        if period is not None:
            if period <= 0:
                raise ModelError(f"component period must be > 0, got {period}")

    @property
    def utilization(self) -> ExactTime:
        """Long-run demand rate ``C/T`` (0 for one-shot components),
        exact, computed when read."""
        if self.period is None:
            return 0
        ratio = Fraction(self.wcet) / Fraction(self.period)
        return ratio.numerator if ratio.denominator == 1 else ratio

    @property
    def is_recurrent(self) -> bool:
        return self.period is not None

    def dbf(self, interval: Time) -> ExactTime:
        """Demand of this component alone within a window of length *interval*."""
        t = to_exact(interval)
        if t < self.first_deadline:
            return 0
        if self.period is None:
            return self.wcet
        return (floor_div(t - self.first_deadline, self.period) + 1) * self.wcet

    def jobs_up_to(self, instant: Time) -> int:
        """Number of deadlines at or before *instant*."""
        t = to_exact(instant)
        if t < self.first_deadline:
            return 0
        if self.period is None:
            return 1
        return floor_div(t - self.first_deadline, self.period) + 1

    def deadline_at(self, index: int) -> ExactTime:
        """Absolute deadline of the *index*-th job (0-based)."""
        if index < 0:
            raise ValueError(f"job index must be >= 0, got {index}")
        if self.period is None:
            if index > 0:
                raise ValueError("one-shot component has a single deadline")
            return self.first_deadline
        return self.first_deadline + index * self.period

    def next_deadline_after(self, instant: Time) -> Optional[ExactTime]:
        """First deadline strictly after *instant* (paper Lemma 5).

        Returns ``None`` for a one-shot component whose single deadline
        has passed.
        """
        t = to_exact(instant)
        if t < self.first_deadline:
            return self.first_deadline
        if self.period is None:
            return None
        steps = floor_div(t - self.first_deadline, self.period) + 1
        return self.first_deadline + steps * self.period

    def deadlines(self, bound: Optional[Time] = None) -> Iterator[ExactTime]:
        """Yield deadlines in order, up to *bound* inclusive if given."""
        limit = None if bound is None else to_exact(bound)
        current = self.first_deadline
        while limit is None or current <= limit:
            yield current
            if self.period is None:
                return
            current = current + self.period

    def linear_envelope(self, interval: Time) -> ExactTime:
        """The superposition approximation line evaluated at *interval*.

        For ``I >= d0`` this is ``C * (1 + (I - d0)/T)`` — the line of
        slope ``C/T`` through the upper corners of the demand staircase.
        It upper-bounds :meth:`dbf` everywhere at or beyond the first
        deadline (paper Def. 4 with the level-independence observation of
        Lemma 6).  For one-shot components the envelope is just ``C``.
        """
        t = to_exact(interval)
        if t < self.first_deadline:
            return 0
        if self.period is None:
            return self.wcet
        value = self.wcet * (1 + Fraction(t - self.first_deadline, 1) / Fraction(self.period))
        if isinstance(value, Fraction) and value.denominator == 1:
            return value.numerator
        return value

    def approximation_error(self, interval: Time) -> ExactTime:
        """Overestimation ``app(I, tau)`` of the envelope vs. the dbf.

        Paper Lemma 6: ``app = frac((I - d0)/T) * C`` — independent of
        the level at which the component was approximated, because every
        approximation line passes through the staircase corners.
        """
        return self.linear_envelope(interval) - self.dbf(interval)


#: Anything the analysis entry points accept as a system description.
DemandSource = Union[TaskSet, Sequence[SporadicTask], Sequence[DemandComponent]]


def component_rows(tasks: TaskSet) -> Tuple[Tuple[ExactTime, ...], ...]:
    """The ``(wcet, first_deadline, period, source)`` of each component
    :func:`as_components` makes of *tasks*, read off its rows: one per
    task with ``C > 0``, labelled by its name or ``tau{i}`` (``i``
    counting every task)."""
    return tuple(
        (c, d, t, label or f"tau{index}")
        for index, (c, d, t, _, label) in enumerate(tasks.rows, 1)
        if c > 0
    )


def as_components(source: DemandSource) -> List[DemandComponent]:
    """Normalise *source* to a list of demand components.

    Accepts a :class:`TaskSet`, an iterable of tasks, an iterable of
    ready-made components, or an iterable of event-stream tasks (anything
    exposing ``to_components()``).  Zero-demand entries are dropped: they
    contribute nothing to any demand bound function.  A `TaskSet` is read
    from its rows, without building its tasks.
    """
    if isinstance(source, TaskSet):
        return [DemandComponent(*row) for row in component_rows(source)]
    items: Iterable = source
    components: List[DemandComponent] = []
    for index, entry in enumerate(items):
        if isinstance(entry, DemandComponent):
            if entry.wcet > 0:
                components.append(entry)
        elif isinstance(entry, SporadicTask):
            if entry.wcet > 0:
                components.append(
                    DemandComponent(
                        wcet=entry.wcet,
                        first_deadline=entry.deadline,
                        period=entry.period,
                        source=entry.name or f"tau{index + 1}",
                    )
                )
        elif hasattr(entry, "to_components"):
            components.extend(c for c in entry.to_components() if c.wcet > 0)
        else:
            raise ModelError(
                "demand sources must be SporadicTask, DemandComponent or "
                f"provide to_components(); got {type(entry).__name__}"
            )
    return components


def total_utilization(components: Sequence[DemandComponent]) -> ExactTime:
    """Exact sum of component utilizations (one-shots add 0), summed
    on integers by :func:`~repro.model.numeric.rate_sum`."""
    return rate_sum((c.wcet, c.period) for c in components if c.period is not None)
