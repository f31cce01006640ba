"""Online admission control: incremental feasibility for a live system.

Everything else in this library analyzes a *frozen* system from scratch.
An :class:`AdmissionController` holds a *live* one — tasks arrive and
depart at run time, and every event gets a feasibility verdict through a
staged pipeline whose per-event cost is far below a from-scratch
``analyze()``:

1. **Utilization gate** — O(1).  The controller maintains the exact
   total utilization incrementally; a candidate pushing it past 1 is
   rejected outright (the same INFEASIBLE verdict every test's
   preflight produces).
2. **ε-approximate superposition filter** — the paper's scheme as the
   fast accept path.  ``SuperPos(ceil(1/ε))`` acceptance is a
   feasibility *proof* (paper Lemma 1), so a pass admits without any
   exact work.  While every past event has passed the filter
   (``approx_clean``), the filter run is *windowed*: the approximate
   demand of the unchanged components below the candidate's first
   deadline is already known to fit, so only change points the arrival
   can perturb — ``[d0_new, bound]`` — are walked, seeded with the
   aggregate walk state at the window floor.  An event that needs the
   exact stage dirties the window; the next full filter pass that
   succeeds re-establishes it.  The walk is the kernel's
   :meth:`~repro.kernel.DemandKernel.superpos_scan`, the one the engine's
   ``superpos`` test runs with the window floor at 0.  On the live
   :class:`~repro.kernel.incremental.IncrementalKernel` its envelope
   sums are the maintained `Fraction` rates (``H = 1``), since churn
   keeps changing the lcm of the periods an integer ``H`` would need;
   the walk's float screen decides every check that clears the capacity
   line by a margin, and the walk adds up its exact `Fraction` sums
   (denominators thousands of bits wide at 1000 tasks) only for a
   closer check or a failure, so a common-case pass does no `Fraction`
   addition at all.
3. **Exact confirmation** — QPA restricted to the perturbed demand
   window.  The controller's invariant is that the admitted system is
   exactly feasible, i.e. ``dbf(t) <= t`` for *all* ``t``; an arrival
   only changes demand at ``t >= d0_new``, so the backward QPA walk can
   stop with a FEASIBLE verdict as soon as it steps below the window
   floor — :meth:`~repro.kernel.DemandKernel.qpa` with ``floor=``.  Up
   to that early exit the walk is step-for-step the engine's ``qpa``
   test on the same bound, so rejections carry the same witness a
   from-scratch run would produce.

The system lives in an :class:`~repro.kernel.incremental.IncrementalKernel`
— arrivals merge one component's scaled stride triple into the compiled
flat arrays, departures remove a span by bisection; no per-event
recompile.  The feasibility bounds the stages search under (Baruah /
George / superposition) are linear functionals of the component set
plus two maxima, all maintained incrementally as exact `Fraction` sums,
so each event reconstitutes the exact same bound values a fresh
:class:`~repro.engine.context.AnalysisContext` would compute — which is
what makes controller verdicts bit-exact with from-scratch engine
analysis (the replay harness's oracle mode asserts this per event).
The filter's superposition bound ``max(dmax, linear / (1 − U))`` is
compared before it is divided, on floats first (a 1e-6 relative margin
far above their rounding error) and exactly only when they are too
close: the largest deadline usually wins at the loads the controller
runs at, and then neither the quotient nor the exact comparison of
two `Fraction`s with denominators thousands of bits wide is formed.
The exact stage's bound, the least of the three, divides once: the
three share the denominator ``1 − U``, so their numerators are
compared, under the same kind of float screen, and only the least is
divided.

Departures never need re-verification: removing a component lowers the
demand bound function pointwise, so a feasible system stays feasible
(and an approx-clean one stays approx-clean).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.busy_period import busy_period_of_components
from ..core.epsilon import epsilon_to_level
from ..kernel.incremental import IncrementalKernel
from ..model.components import (
    DemandComponent,
    DemandSource,
    as_components,
    total_utilization,
)
from ..model.numeric import ExactTime, Time, to_exact
from ..model.task import SporadicTask
from ..model.validation import ModelError
from ..obs import DEFAULT_BUCKETS, ITERATION_BUCKETS
from ..obs import counter as _obs_counter
from ..obs import histogram as _obs_histogram
from ..result import FailureWitness, Verdict

__all__ = ["AdmissionController", "AdmissionDecision", "Stage"]

# Per-stage accept/reject tallies and iteration distributions: the
# approximation-stage hit rates are the quantities the paper's
# staged-pipeline efficiency argument is about, so they are first-class
# series.  Everything is recorded once per *event* inside _decide.  The
# exact stage's walk is the kernel's ``qpa``, which feeds the shared QPA
# iteration histogram itself (the series the engine's qpa test fills).
_DECISIONS = _obs_counter(
    "repro_admission_decisions_total",
    "Admission decisions, by pipeline stage and outcome.",
    labelnames=("stage", "outcome"),
)
_STAGE_ITERATIONS = _obs_histogram(
    "repro_admission_stage_iterations",
    "Demand-vs-capacity comparisons per decision, by deciding stage.",
    labelnames=("stage",),
    buckets=ITERATION_BUCKETS,
)
_DECISION_SECONDS = _obs_histogram(
    "repro_admission_decision_seconds",
    "Wall time per admission decision.",
    buckets=DEFAULT_BUCKETS,
)


class Stage:
    """Pipeline stage that decided an event (plain strings — they go on
    the wire in the admission API's decision documents)."""

    GATE = "utilization-gate"
    FILTER = "approx-filter"
    EXACT = "exact"
    DEPARTURE = "departure"
    ABSENT = "absent"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission event.

    Attributes:
        event: ``"arrive"`` or ``"depart"``.
        name: the task handle the event concerned.
        admitted: for arrivals, whether the task joined the system; for
            departures, whether a task of that name was present.
        verdict: feasibility verdict of the decided system — the
            would-be system for a rejected arrival, the updated system
            otherwise.  Matches a from-scratch exact engine analysis.
        stage: the :class:`Stage` that produced the verdict.
        latency_seconds: wall time the decision took.
        utilization: exact system utilization after the event.
        tasks: admitted entries after the event.
        iterations: demand-vs-capacity comparisons performed (filter
            plus exact stage — the paper's effort metric).
        bound: feasibility bound the deciding search ran under, if any.
        witness: exact overflow certificate for rejections decided by
            the exact stage.
    """

    event: str
    name: str
    admitted: bool
    verdict: Verdict
    stage: str
    latency_seconds: float
    utilization: ExactTime
    tasks: int
    iterations: int = 0
    bound: Optional[ExactTime] = None
    witness: Optional[FailureWitness] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        word = "admitted" if self.admitted else "rejected"
        if self.event == "depart":
            word = "removed" if self.admitted else "absent"
        return (
            f"AdmissionDecision({self.name!r} {self.event}: {word} via "
            f"{self.stage}, U={float(self.utilization):.4f})"
        )


#: One admitted entity: its handle and the components it expanded to.
@dataclass
class _Entry:
    name: str
    components: Tuple[DemandComponent, ...]


def _exact(value: Fraction) -> ExactTime:
    return value.numerator if value.denominator == 1 else value


def _less(x: Fraction, y: Fraction) -> bool:
    """``x < y``, on floats while they clear each other by a 1e-6
    relative margin (far above the rounding of a float conversion), and
    exactly otherwise: the exact comparison of two sums with
    denominators thousands of bits wide costs most of a division."""
    try:
        fx, fy = float(x), float(y)
    except OverflowError:
        return x < y
    margin = 1e-6 * (abs(fx) + abs(fy)) + 1e-300  # + subnormal rounding
    if fy - fx > margin:
        return True
    if fx - fy > margin:
        return False
    return x < y


class _MaxTracker:
    """Multiset maximum with O(1) insert and lazy recompute on removal."""

    __slots__ = ("_counts", "_max", "_dirty")

    def __init__(self) -> None:
        self._counts: Dict[ExactTime, int] = {}
        self._max: Optional[ExactTime] = None
        self._dirty = False

    def add(self, value: ExactTime) -> None:
        self._counts[value] = self._counts.get(value, 0) + 1
        if not self._dirty and (self._max is None or value > self._max):
            self._max = value

    def remove(self, value: ExactTime) -> None:
        remaining = self._counts[value] - 1
        if remaining:
            self._counts[value] = remaining
            return
        del self._counts[value]
        if not self._dirty and value == self._max:
            self._dirty = True

    @property
    def max(self) -> Optional[ExactTime]:
        if self._dirty:
            self._max = max(self._counts) if self._counts else None
            self._dirty = False
        return self._max


class AdmissionController:
    """A live EDF system with per-event admission control.

    Args:
        source: initial system (task set, tasks, components, or event
            streams); verified exactly feasible at construction.
        epsilon: error bound of the approximate filter stage; the filter
            runs ``SuperPos(ceil(1/epsilon))``.  ``None`` disables the
            filter (every arrival goes straight to the exact stage).
        name: label carried into stats and reports.

    Raises:
        ModelError: when the initial system is infeasible (the
            controller's windowed pipeline is only sound starting from a
            feasible system).
    """

    def __init__(
        self,
        source: DemandSource = (),
        *,
        epsilon: Optional[Time] = Fraction(1, 10),
        name: str = "online",
    ) -> None:
        self.name = name
        self.epsilon: Optional[ExactTime] = (
            to_exact(epsilon) if epsilon is not None else None
        )
        self.level: Optional[int] = (
            epsilon_to_level(self.epsilon) if self.epsilon is not None else None
        )
        self._entries: List[_Entry] = []
        self._index: Dict[str, int] = {}
        self._components: List[DemandComponent] = []
        self._kernel = IncrementalKernel(())
        self._counter = 0
        # Incrementally maintained exact aggregates (see _accrete).
        self._u = Fraction(0)
        self._oneshot = Fraction(0)
        self._george_num = Fraction(0)
        self._superpos_num = Fraction(0)
        self._gaps = _MaxTracker()
        self._dmax = _MaxTracker()
        #: True while the whole admitted system is known to pass the
        #: filter predicate — the precondition for windowed filter runs.
        self._approx_clean = True
        self.stats_counters: Dict[str, int] = {
            "events": 0,
            "arrivals": 0,
            "departures": 0,
            "admitted": 0,
            "rejected": 0,
            Stage.GATE: 0,
            Stage.FILTER: 0,
            Stage.EXACT: 0,
        }
        self._total_latency = 0.0
        initial = tuple(as_components(source))
        if initial:
            self._install_initial(initial)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    @property
    def utilization(self) -> ExactTime:
        """Exact utilization of the admitted system."""
        return _exact(self._u)

    @property
    def names(self) -> Tuple[str, ...]:
        """Handles of the admitted entries, in admission order."""
        return tuple(entry.name for entry in self._entries)

    @property
    def approx_clean(self) -> bool:
        """Whether the filter invariant currently holds system-wide."""
        return self._approx_clean

    def snapshot(self) -> Tuple[DemandComponent, ...]:
        """The admitted system as engine-ready demand components.

        A valid ``source`` for :func:`repro.engine.analyze`; the oracle
        replay mode re-analyzes exactly this after every event.
        """
        return tuple(self._components)

    def stats(self) -> Dict[str, Any]:
        """Aggregate controller counters (JSON-ready)."""
        events = self.stats_counters["events"]
        return {
            "name": self.name,
            "epsilon": None if self.epsilon is None else str(self.epsilon),
            "level": self.level,
            "tasks": len(self._entries),
            "components": len(self._components),
            "utilization": float(self._u),
            "approx_clean": self._approx_clean,
            "mean_latency_seconds": (
                self._total_latency / events if events else 0.0
            ),
            **self.stats_counters,
        }

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def admit(
        self, source: Union[SporadicTask, DemandComponent, DemandSource],
        name: Optional[str] = None,
    ) -> AdmissionDecision:
        """Decide an arrival; the task joins the system iff feasible."""
        start = time.perf_counter()
        components = self._normalize(source)
        handle = self._handle(name)
        if not components:
            # Zero-demand entities change nothing; keep the handle so a
            # later departure of the same name is a clean no-op removal.
            self._install(handle, components)
            return self._decide(
                "arrive", handle, True, Verdict.FEASIBLE, Stage.TRIVIAL, start
            )
        added_u = sum((Fraction(c.utilization) for c in components), Fraction(0))
        if self._u + added_u > 1:
            self._count(Stage.GATE)
            return self._decide(
                "arrive", handle, False, Verdict.INFEASIBLE, Stage.GATE, start
            )
        # Tentatively merge into the live kernel; rolled back on reject.
        kernel = self._kernel
        span_start = kernel.n
        scale_before = kernel.scale
        for component in components:
            kernel.add(component)
        self._accrete(components)
        window_floor = min(c.first_deadline for c in components)
        iterations = 0
        if self.level is not None:
            filter_bound = self._filter_bound()
            failed, _, steps, _ = kernel.superpos_scan(
                self.level,
                window_floor if self._approx_clean else 0,
                filter_bound,
            )
            iterations += steps
            if failed is None:
                self._approx_clean = True
                self._install(handle, components)
                self._count(Stage.FILTER)
                return self._decide(
                    "arrive", handle, True, Verdict.FEASIBLE, Stage.FILTER,
                    start, iterations=iterations, bound=filter_bound,
                )
        bound = self._best_bound()
        status, interval, demand, steps = kernel.qpa(bound, floor=window_floor)
        iterations += steps
        self._count(Stage.EXACT)
        if status == "infeasible":
            kernel.remove_span(span_start, len(components))
            self._accrete(components, sign=-1)
            if kernel.scale != scale_before:
                # The rejected candidate grew the grid (or pushed it onto
                # the exact fallback path); the admitted system did not
                # change, so recompile once rather than leave every
                # subsequent event on the coarser/slower grid forever.
                self._kernel = IncrementalKernel(self._components)
            return self._decide(
                "arrive", handle, False, Verdict.INFEASIBLE, Stage.EXACT,
                start, iterations=iterations, bound=bound,
                witness=FailureWitness(interval=interval, demand=demand, exact=True),
            )
        # Admitted past the filter: the approximate predicate is not
        # known to hold any more — the window is dirty until a full
        # filter pass succeeds again.
        self._approx_clean = False
        self._install(handle, components)
        return self._decide(
            "arrive", handle, True, Verdict.FEASIBLE, Stage.EXACT,
            start, iterations=iterations, bound=bound,
        )

    def remove(self, name: str, *, strict: bool = True) -> AdmissionDecision:
        """Decide a departure; shrinking a feasible system needs no
        re-verification (demand only decreases).

        With ``strict`` (the default) removing an unknown name raises
        ``KeyError``; the replay harness passes ``strict=False`` so that
        traces departing a task the controller had rejected replay as
        clean no-ops.
        """
        start = time.perf_counter()
        position = self._index.get(name)
        if position is None:
            if strict:
                raise KeyError(f"no admitted task named {name!r}")
            return self._decide(
                "depart", name, False, Verdict.FEASIBLE, Stage.ABSENT, start
            )
        span_start = sum(
            len(self._entries[i].components) for i in range(position)
        )
        entry = self._entries.pop(position)
        if entry.components:
            self._kernel.remove_span(span_start, len(entry.components))
            self._accrete(entry.components, sign=-1)
            del self._components[span_start : span_start + len(entry.components)]
        self._index = {e.name: i for i, e in enumerate(self._entries)}
        return self._decide(
            "depart", name, True, Verdict.FEASIBLE, Stage.DEPARTURE, start
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _normalize(self, source: Any) -> Tuple[DemandComponent, ...]:
        if isinstance(source, (SporadicTask, DemandComponent)):
            return tuple(as_components([source]))
        if hasattr(source, "to_components"):
            return tuple(as_components([source]))
        return tuple(as_components(source))

    def _handle(self, name: Optional[str]) -> str:
        if name is None:
            # Skip over user-supplied names: the generator must never
            # collide with an explicitly named entry.
            while True:
                self._counter += 1
                name = f"task{self._counter}"
                if name not in self._index:
                    return name
        if name in self._index:
            raise ModelError(f"a task named {name!r} is already admitted")
        return name

    def _install(
        self, name: str, components: Tuple[DemandComponent, ...]
    ) -> None:
        self._index[name] = len(self._entries)
        self._entries.append(_Entry(name, components))
        self._components.extend(components)

    def _install_initial(
        self, components: Tuple[DemandComponent, ...]
    ) -> None:
        """Verify and adopt the construction-time system in one piece."""
        if total_utilization(components) > 1:
            raise ModelError(
                "initial system is infeasible (U > 1); an admission "
                "controller must start from a feasible system"
            )
        for component in components:
            self._kernel.add(component)
        self._accrete(components)
        clean = False
        if self.level is not None:
            failed, _, _, _ = self._kernel.superpos_scan(
                self.level, 0, self._filter_bound()
            )
            clean = failed is None
        if not clean:
            status, interval, demand, _ = self._kernel.qpa(self._best_bound())
            if status == "infeasible":
                raise ModelError(
                    "initial system is infeasible "
                    f"(dbf({interval}) = {demand}); an "
                    "admission controller must start from a feasible system"
                )
        self._approx_clean = clean
        self._install("initial", components)

    def _decide(
        self,
        event: str,
        name: str,
        admitted: bool,
        verdict: Verdict,
        stage: str,
        start: float,
        iterations: int = 0,
        bound: Optional[ExactTime] = None,
        witness: Optional[FailureWitness] = None,
    ) -> AdmissionDecision:
        latency = time.perf_counter() - start
        self._total_latency += latency
        counters = self.stats_counters
        counters["events"] += 1
        if event == "arrive":
            counters["arrivals"] += 1
            counters["admitted" if admitted else "rejected"] += 1
        else:
            counters["departures"] += 1
        _DECISIONS.labels(stage, "accept" if admitted else "reject").inc()
        _DECISION_SECONDS.observe(latency)
        if iterations:
            _STAGE_ITERATIONS.labels(stage).observe(iterations)
        return AdmissionDecision(
            event=event,
            name=name,
            admitted=admitted,
            verdict=verdict,
            stage=stage,
            latency_seconds=latency,
            utilization=self.utilization,
            tasks=len(self._entries),
            iterations=iterations,
            bound=bound,
            witness=witness,
        )

    def _count(self, stage: str) -> None:
        self.stats_counters[stage] += 1

    def _accrete(
        self, components: Sequence[DemandComponent], sign: int = 1
    ) -> None:
        """Fold *components* into (or out of) the bound aggregates.

        All terms are exact rationals, so accrete followed by decrete
        restores the previous values bit-for-bit, and the composed sums
        equal the from-scratch formulas of :mod:`repro.analysis.bounds`
        regardless of arrival order.
        """
        for c in components:
            self._u += sign * Fraction(c.utilization)
            d0 = Fraction(c.first_deadline)
            if sign > 0:
                self._dmax.add(d0)
            else:
                self._dmax.remove(d0)
            if c.period is None:
                self._oneshot += sign * Fraction(c.wcet)
                continue
            t = Fraction(c.period)
            term = (1 - d0 / t) * Fraction(c.wcet)
            self._superpos_num += sign * term
            if d0 <= t:
                self._george_num += sign * term
            gap = t - d0
            if gap > 0:
                if sign > 0:
                    self._gaps.add(gap)
                else:
                    self._gaps.remove(gap)

    # -- bounds (mirror repro.analysis.bounds on the aggregates) -------

    def _bound_superposition(self) -> Optional[ExactTime]:
        if self._u >= 1:
            return None
        if not self._kernel.n:
            return 0
        # max(dmax, linear / (1 - U)), compared before dividing, on
        # floats while they clear it by a margin far above their
        # rounding error (see the module docstring).
        dmax = self._dmax.max
        linear = self._superpos_num + self._oneshot
        headroom = 1 - self._u
        try:
            clear = float(linear) < 0.999999 * float(dmax) * float(headroom)
        except OverflowError:
            clear = False
        if clear or linear <= dmax * headroom:
            return _exact(dmax)
        return _exact(linear / headroom)

    def _best_bound(self) -> ExactTime:
        """The least of the Baruah, George and superposition bounds.

        All three are quotients by the same ``h = 1 − U > 0``:
        ``min(a/h, b/h, max(dmax, lin/h)) = min(a, b, max(dmax·h, lin)) / h``.
        The numerators are compared (:func:`_less`, in ``min``'s and
        ``max``'s order) and one quotient is formed.
        """
        if self._u >= 1:
            return self._busy_period()
        if not self._kernel.n:
            return 0
        headroom = 1 - self._u
        oneshot = self._oneshot
        dmax_term = self._dmax.max * headroom
        linear = self._superpos_num + oneshot
        least = self._u * (self._gaps.max or Fraction(0)) + oneshot
        for numerator in (
            self._george_num + oneshot,
            linear if _less(dmax_term, linear) else dmax_term,
        ):
            if _less(numerator, least):
                least = numerator
        return _exact(least / headroom)

    def _filter_bound(self) -> ExactTime:
        bound = self._bound_superposition()
        if bound is None:  # U == 1: same busy-period fallback as the engine
            bound = self._busy_period()
        return bound

    def _busy_period(self) -> ExactTime:
        # Only reachable at U == 1 exactly (U > 1 never passes the gate).
        return busy_period_of_components(self._kernel_components())

    def _kernel_components(self) -> List[DemandComponent]:
        """Components currently merged into the kernel — the admitted
        system plus any tentative candidate under decision."""
        if self._kernel.n == len(self._components):
            return list(self._components)
        # A candidate is tentatively merged: rebuild from kernel arrays.
        kernel = self._kernel
        out: List[DemandComponent] = []
        for d0, p, c in zip(kernel.d0s, kernel.periods, kernel.wcets):
            out.append(
                DemandComponent(
                    wcet=kernel.unscale(c),
                    first_deadline=kernel.unscale(d0),
                    period=kernel.unscale(p) if p else None,
                )
            )
        return out
