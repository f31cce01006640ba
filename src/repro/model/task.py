"""Sporadic task model (paper Section 2).

A sporadic task :math:`\\tau_i` is described by

* an initial release time (phase) :math:`\\varphi_i`,
* a relative deadline :math:`D_i` measured from each release,
* a worst-case execution time :math:`C_i`, and
* a minimal inter-release distance (period) :math:`T_i`.

The feasibility analysis in this library considers the *synchronous* case
(all phases collapse to a simultaneous first release), which is the
worst case for sporadic task systems and therefore yields an exact test
for them; phases are retained on the model because the simulator in
:mod:`repro.sim` can replay asynchronous release patterns.

Construction normalises every time field to an exact number once.  A
plain ``int`` is exact as given, so a task whose four fields are all
``int`` (every task of an integer task set) skips
:func:`~repro.model.numeric.to_exact` and the write-backs and goes
straight to the range checks; ``bool`` and other ``int`` subclasses
still take the normalising path and become plain ``int``.  The
dataclass-generated ``__init__`` stays: a hand-written one filling
``self.__dict__`` is faster but loses the instance dict's shared keys,
growing each task from ~121 to 185–249 bytes (tracemalloc, CPython
3.11), and ``slots=True`` needs Python 3.10.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Optional

from .numeric import ExactTime, Time, ceil_div, floor_div, to_exact
from .validation import TaskParameterError

__all__ = ["SporadicTask", "task"]


@dataclass(frozen=True)
class SporadicTask:
    """An immutable sporadic (or strictly periodic) task.

    Parameters are accepted as ``int``, ``float`` or ``Fraction`` and are
    normalised to exact numbers on construction, so two tasks constructed
    from ``0.5`` and ``Fraction(1, 2)`` compare equal.

    Attributes:
        wcet: worst-case execution time :math:`C > 0` (a zero-cost task is
            allowed as a degenerate case; it never affects feasibility).
        deadline: relative deadline :math:`D > 0`.
        period: minimal distance between releases :math:`T > 0`.
        phase: release time of the first job (synchronous analysis ignores
            it; the simulator honours it).
        name: optional human-readable identifier.
    """

    wcet: ExactTime
    deadline: ExactTime
    period: ExactTime
    phase: ExactTime = 0
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        wcet, deadline, period, phase = self.wcet, self.deadline, self.period, self.phase
        # Plain ints are already exact: only other types are normalised
        # and written back (bool and int subclasses become plain ints).
        if not (type(wcet) is type(deadline) is type(period) is type(phase) is int):
            wcet, deadline = to_exact(wcet), to_exact(deadline)
            period, phase = to_exact(period), to_exact(phase)
            object.__setattr__(self, "wcet", wcet)
            object.__setattr__(self, "deadline", deadline)
            object.__setattr__(self, "period", period)
            object.__setattr__(self, "phase", phase)
        if wcet < 0:
            raise TaskParameterError(f"wcet must be >= 0, got {wcet}")
        if deadline <= 0:
            raise TaskParameterError(f"deadline must be > 0, got {deadline}")
        if period <= 0:
            raise TaskParameterError(f"period must be > 0, got {period}")
        if phase < 0:
            raise TaskParameterError(f"phase must be >= 0, got {phase}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def utilization(self) -> ExactTime:
        """Specific utilization :math:`U(\\tau) = C/T` (exact)."""
        return _exact_ratio(self.wcet, self.period)

    @property
    def density(self) -> ExactTime:
        """Density :math:`C / \\min(D, T)` — a coarser load measure."""
        return _exact_ratio(self.wcet, min(self.deadline, self.period))

    @property
    def laxity(self) -> ExactTime:
        """Slack between deadline and execution demand, :math:`D - C`."""
        return self.deadline - self.wcet

    @property
    def gap(self) -> ExactTime:
        """Distance between period and deadline, :math:`T - D`.

        The paper's experiments parameterise random task sets by the
        *average gap* expressed as a fraction of the period.
        """
        return self.period - self.deadline

    @property
    def is_implicit_deadline(self) -> bool:
        """``True`` when :math:`D = T` (Liu & Layland model)."""
        return self.deadline == self.period

    @property
    def is_constrained_deadline(self) -> bool:
        """``True`` when :math:`D \\le T`."""
        return self.deadline <= self.period

    # ------------------------------------------------------------------
    # Demand
    # ------------------------------------------------------------------

    def dbf(self, interval: Time) -> ExactTime:
        """Demand bound function of this task alone (paper Def. 2).

        Maximum cumulative execution requirement of jobs having both
        release and absolute deadline inside a window of length
        *interval*, under the synchronous (critical-instant) pattern::

            dbf(I, tau) = max(0, floor((I - D) / T) + 1) * C
        """
        t = to_exact(interval)
        if t < self.deadline:
            return 0
        return (floor_div(t - self.deadline, self.period) + 1) * self.wcet

    def rbf(self, interval: Time) -> ExactTime:
        """Request bound function: demand *released* in ``[0, I)``.

        Used by the busy-period computation;
        ``rbf(I) = ceil(I / T) * C`` for ``I > 0``.
        """
        t = to_exact(interval)
        if t <= 0:
            return 0
        return ceil_div(t, self.period) * self.wcet

    def job_deadline(self, index: int) -> ExactTime:
        """Absolute deadline of the *index*-th job (0-based), synchronous."""
        if index < 0:
            raise ValueError(f"job index must be >= 0, got {index}")
        return self.deadline + index * self.period

    def deadlines(self, bound: Optional[Time] = None) -> Iterator[ExactTime]:
        """Yield synchronous absolute deadlines ``D, D+T, D+2T, ...``.

        Stops after *bound* (inclusive) when given; otherwise infinite.
        """
        limit = None if bound is None else to_exact(bound)
        current = self.deadline
        while limit is None or current <= limit:
            yield current
            current = current + self.period

    def next_deadline_after(self, instant: Time) -> ExactTime:
        """First synchronous deadline strictly greater than *instant*.

        This is the paper's ``NextInt`` (Lemma 5)::

            NextInt(I, tau) = (floor((I - D) / T) + 1) * T + D
        """
        t = to_exact(instant)
        if t < self.deadline:
            return self.deadline
        return (floor_div(t - self.deadline, self.period) + 1) * self.period + self.deadline

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def scaled(self, factor: Time) -> "SporadicTask":
        """Return a copy with all time parameters multiplied by *factor*.

        Scaling is verdict-preserving: feasibility and iteration counts of
        every test in this library are invariant under a common positive
        rescaling of (C, D, T, phase).
        """
        f = to_exact(factor)
        if f <= 0:
            raise TaskParameterError(f"scale factor must be > 0, got {f}")
        return replace(
            self,
            wcet=self.wcet * f,
            deadline=self.deadline * f,
            period=self.period * f,
            phase=self.phase * f,
        )

    def with_deadline(self, deadline: Time) -> "SporadicTask":
        """Return a copy with a different relative deadline."""
        return replace(self, deadline=to_exact(deadline))

    def with_wcet(self, wcet: Time) -> "SporadicTask":
        """Return a copy with a different worst-case execution time."""
        return replace(self, wcet=to_exact(wcet))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        extra = f", phase={self.phase}" if self.phase else ""
        return (
            f"SporadicTask{label}(C={self.wcet}, D={self.deadline}, "
            f"T={self.period}{extra})"
        )


def _exact_ratio(num: ExactTime, den: ExactTime) -> ExactTime:
    """Exact ``num / den`` returned as ``int`` when integral."""
    ratio = Fraction(num) / Fraction(den)
    return ratio.numerator if ratio.denominator == 1 else ratio


def task(
    wcet: Time,
    deadline: Time,
    period: Time,
    phase: Time = 0,
    name: str = "",
) -> SporadicTask:
    """Convenience constructor: ``task(C, D, T)``.

    Mirrors the paper's parameter order (C, D, T) and keeps example and
    test code compact.
    """
    return SporadicTask(wcet=wcet, deadline=deadline, period=period, phase=phase, name=name)
