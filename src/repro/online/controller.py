"""Online admission control: incremental feasibility for a live system.

Everything else in this library analyzes a *frozen* system from scratch.
An :class:`AdmissionController` holds a *live* one — tasks arrive and
depart at run time, and every event gets an exact feasibility verdict
whose per-event cost is far below a from-scratch ``analyze()``:

1. **Utilization gate** — O(1).  The controller maintains the exact
   total utilization incrementally; a candidate pushing it past 1 is
   rejected outright (the same INFEASIBLE verdict every test's
   preflight produces).
2. **Windowed exact QPA** — every other arrival.  The controller's
   invariant is that the admitted system is exactly feasible, i.e.
   ``dbf(t) <= t`` for *all* ``t``; an arrival only changes demand at
   ``t >= d0_new``, so the backward QPA walk can stop with a FEASIBLE
   verdict as soon as it steps below the window floor —
   :meth:`~repro.kernel.DemandKernel.qpa` with ``floor=``.  Up to that
   early exit the walk is step-for-step the engine's ``qpa`` test on
   the same bound, so rejections carry the same witness a from-scratch
   run would produce.  On the admission benchmark's churn a decision
   takes a median of 2 ``dbf`` evaluations.  The paper's point holds
   here: an exact test this cheap leaves nothing for a sufficient
   filter in front of it to save.

The system lives in an :class:`~repro.kernel.incremental.IncrementalKernel`
— arrivals merge one component's scaled stride triple into the compiled
flat arrays, departures remove a span by bisection; no per-event
recompile, and every walk on the python loop.  The feasibility bounds
QPA searches under (Baruah / George / superposition) are linear
functionals of the component set plus two maxima, all maintained
incrementally as integer numerators over one common multiple ``L`` of
the kernel's grid periods, after the ``(H, w)`` convention of
:meth:`~repro.kernel.DemandKernel.envelope_weights`: a component of grid
period ``T`` weighs ``w = C·L/T``, so ``W = Σ w`` is ``U·L``.  An
arrival whose period ``L`` does not divide grows ``L`` and rescales the
sums; the departure of the newest arrival restores the sums from before
it, and other departures shrink ``L`` back to the lcm of the remaining
periods once the periods that left could have made it twice as wide as
that lcm — one ``lcm`` over the periods, no factoring (grid periods of
rational sets can be too large to factor).  The exact fallback grid runs
the same code with ``L = 1`` and `Fraction` rates.  Each event thus
reconstitutes the exact same bound values a fresh
:class:`~repro.engine.context.AnalysisContext` would compute — which is
what makes controller verdicts and witnesses bit-exact with from-scratch
engine analysis (the replay harness's oracle mode asserts this per
event).  The three bounds share the denominator ``L − W``, so their
integer numerators are compared and only the least is divided, by one
floor division, and rounded up to the kernel's grid: QPA starts at the
last deadline at or below the bound, and deadlines lie on the grid, so
rounding does not move the walk, and the decision documents carry a
grid value instead of a quotient thousands of digits wide.  The exact
utilization each decision document carries stays a reduced `Fraction`:
adding one arrival's small-denominator rate to it is cheap, while
reducing ``W/L`` would take a gcd of integers thousands of digits wide.

Departures never need re-verification: removing a component lowers the
demand bound function pointwise, so a feasible system stays feasible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.busy_period import busy_period_of_components
from ..kernel.incremental import IncrementalKernel
from ..model.components import DemandComponent, DemandSource, as_components
from ..model.numeric import ExactTime
from ..model.task import SporadicTask
from ..model.validation import ModelError
from ..obs import DEFAULT_BUCKETS, ITERATION_BUCKETS
from ..obs import counter as _obs_counter
from ..obs import histogram as _obs_histogram
from ..result import FailureWitness, Verdict

__all__ = ["AdmissionController", "AdmissionDecision", "Stage"]

# Per-stage accept/reject tallies and iteration distributions, recorded
# once per *event* inside _decide.  The exact stage's walk is the
# kernel's ``qpa``, which feeds the shared QPA iteration histogram
# itself (the series the engine's qpa test fills).
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
        iterations: ``dbf`` evaluations of the exact stage's windowed
            QPA walk (the paper's effort metric); 0 for other stages.
        bound: the exact stage's QPA bound, the least of the Baruah,
            George and superposition bounds rounded up to the kernel's
            grid (``ceil(B·s)/s`` for grid scale ``s``, an ``int`` on
            an integer grid; the exact bound on the exact fallback
            grid), or ``None`` for other stages.
        witness: exact overflow certificate for rejections decided by
            the exact stage, equal to a from-scratch ``qpa`` run's.
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

    def rescale(self, num: int, den: int) -> None:
        """Multiply every value by ``num / den`` (exact for each)."""
        self._counts = {v * num // den: c for v, c in self._counts.items()}
        if self._max is not None:
            self._max = self._max * num // den

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
        name: str = "online",
    ) -> None:
        self.name = name
        self._entries: List[_Entry] = []
        self._index: Dict[str, int] = {}
        self._components: List[DemandComponent] = []
        self._kernel = IncrementalKernel(())
        self._counter = 0
        # The exact U, and the bound sums on the kernel grid (see
        # _fold): L, W = Σ w, George's and the superposition
        # numerators Σ (T − d0)·w, and the one-shot Σ C.
        self._u = Fraction(0)
        self._hyper: ExactTime = 1
        self._weight: ExactTime = 0
        self._george: ExactTime = 0
        self._slack: ExactTime = 0
        self._oneshot: ExactTime = 0
        #: Resident grid periods → count, and a bound on the bits by
        #: which L exceeds their lcm (periods that left, not shrunk).
        self._periods: Dict[ExactTime, int] = {}
        self._excess_bits = 0
        self._gaps = _MaxTracker()
        self._dmax = _MaxTracker()
        #: ``(name, sums)``: the newest arrival and the sums from before
        #: it, which its departure restores; any other event clears it.
        self._undo: Optional[Tuple[str, Tuple[Any, ...]]] = None
        self.stats_counters: Dict[str, int] = {
            "events": 0,
            "arrivals": 0,
            "departures": 0,
            "admitted": 0,
            "rejected": 0,
            Stage.GATE: 0,
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
            "tasks": len(self._entries),
            "components": len(self._components),
            "utilization": float(self._u),
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
        self._undo = None
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
        utilization = self._u + added_u
        if utilization > 1:
            self._count(Stage.GATE)
            return self._decide(
                "arrive", handle, False, Verdict.INFEASIBLE, Stage.GATE, start
            )
        # Tentatively merge into the live kernel; rolled back on reject.
        kernel = self._kernel
        span_start = kernel.n
        scale_before = kernel.scale
        before = self._sums()
        for component in components:
            kernel.add(component)
        regrid = kernel.scale != scale_before
        if regrid and kernel.scale is None:
            self._refold()  # the grid went exact: sums on it
        else:
            if regrid:  # the grid grew: the resident sums follow it
                self._regrid(Fraction(kernel.scale, scale_before))
            self._fold(span_start, kernel.n)
        self._u = utilization
        window_floor = min(c.first_deadline for c in components)
        bound = self._best_bound(components)
        status, interval, demand, iterations = kernel.qpa(bound, floor=window_floor)
        self._count(Stage.EXACT)
        if status == "infeasible":
            if regrid:
                # The rejected candidate grew the grid (or pushed it onto
                # the exact fallback path); the admitted system did not
                # change, so recompile once rather than leave every
                # subsequent event on the coarser/slower grid forever.
                if kernel.scale is not None:
                    self._fold(span_start, kernel.n, -1)
                self._kernel = IncrementalKernel(self._components)
                if kernel.scale is None:
                    self._refold()
                else:
                    self._regrid(Fraction(self._kernel.scale, kernel.scale))
                self._u = before[0]
            else:
                self._fold(span_start, kernel.n, -1, restore=before)
                kernel.remove_span(span_start, len(components))
            return self._decide(
                "arrive", handle, False, Verdict.INFEASIBLE, Stage.EXACT,
                start, iterations=iterations, bound=bound,
                witness=FailureWitness(interval=interval, demand=demand, exact=True),
            )
        self._install(handle, components)
        if not regrid:
            self._undo = (handle, before)
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
        undo, self._undo = self._undo, None
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
            span_end = span_start + len(entry.components)
            if undo is not None and undo[0] == name:
                # The newest arrival leaves with nothing in between.
                self._fold(span_start, span_end, -1, restore=undo[1])
            else:
                self._fold(span_start, span_end, -1)
                self._u -= sum(Fraction(c.utilization) for c in entry.components)
            self._kernel.remove_span(span_start, len(entry.components))
            del self._components[span_start:span_end]
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
        for component in components:
            self._kernel.add(component)
        self._refold()
        if self._weight > self._hyper:
            raise ModelError(
                "initial system is infeasible (U > 1); an admission "
                "controller must start from a feasible system"
            )
        self._u = Fraction(self._weight, self._hyper)
        status, interval, demand, _ = self._kernel.qpa(self._best_bound(components))
        if status == "infeasible":
            raise ModelError(
                "initial system is infeasible "
                f"(dbf({interval}) = {demand}); an "
                "admission controller must start from a feasible system"
            )
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

    # -- bound sums on the kernel grid ----------------------------------

    def _sums(self) -> Tuple[Any, ...]:
        return (
            self._u, self._hyper, self._weight, self._george, self._slack,
            self._oneshot,
        )

    def _refold(self) -> None:
        """Rebuild the sums and maxima from the kernel's arrays, with
        ``L`` the lcm of its periods (``1`` on the exact fallback grid)."""
        kernel = self._kernel
        exact = kernel.scale is None
        self._hyper = 1 if exact else lcm(*filter(None, kernel.periods))
        self._weight = self._george = self._slack = self._oneshot = 0
        self._periods = {}
        self._excess_bits = 0
        self._gaps = _MaxTracker()
        self._dmax = _MaxTracker()
        self._fold(0, kernel.n)

    def _fold(
        self,
        start: int,
        end: int,
        sign: int = 1,
        restore: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        """Fold the kernel's components ``start .. end-1`` into (*sign*
        ``1``) or out of (``-1``) the sums and maxima.

        Grid values throughout: a recurrent component of grid period
        ``T`` weighs ``w = C·L/T`` (``C/T`` on the exact grid, where
        ``L = 1``) and adds ``(T − d0)·w`` to the superposition
        numerator, and to George's when ``d0 ≤ T``; a one-shot adds its
        ``C``.  A period ``L`` does not divide grows ``L`` first, and
        every sum with it.  All terms are exact, so the sums equal
        :func:`repro.analysis.bounds.closed_form_bounds`' on the same
        kernel, whatever the order of events.  Folding out with
        *restore* (:meth:`_sums` from before the components arrived,
        nothing in between) sets the sums back to it.  Without it, once
        the periods that left could have made ``L`` twice as wide as
        the lcm of those that stay, ``L`` shrinks to that lcm, which
        divides every sum.
        """
        kernel = self._kernel
        exact = kernel.scale is None
        counts = self._periods
        released = 0  # bits of the periods no resident component keeps
        for d0, period, wcet in zip(
            kernel.d0s[start:end], kernel.periods[start:end], kernel.wcets[start:end]
        ):
            (self._dmax.add if sign > 0 else self._dmax.remove)(d0)
            if not period:
                self._oneshot += sign * wcet
                continue
            count = counts.get(period, 0) + sign
            if count:
                counts[period] = count
            else:
                del counts[period]
                released += 0 if exact else period.bit_length()
            gap = period - d0
            if gap > 0:
                (self._gaps.add if sign > 0 else self._gaps.remove)(gap)
            if restore is not None:
                continue
            if exact:
                weight = sign * Fraction(wcet) / period
            else:
                if self._hyper % period:  # only on arrival
                    self._rescale(period // gcd(self._hyper, period), 1)
                weight = sign * wcet * (self._hyper // period)
            term = gap * weight
            self._weight += weight
            self._slack += term
            if gap >= 0:
                self._george += term
        if restore is not None:
            (
                self._u, self._hyper, self._weight, self._george, self._slack,
                self._oneshot,
            ) = restore
            return
        self._excess_bits += released
        if released and 2 * (self._excess_bits + 1) > self._hyper.bit_length():
            # L/lcm < 2**excess_bits, so L may be twice as wide: shrink.
            self._rescale(1, self._hyper // lcm(*counts))
            self._excess_bits = 0

    def _rescale(self, growth: int, shrink: int) -> None:
        """Multiply ``L`` and the sums over it by ``growth / shrink``."""
        self._hyper, self._weight, self._george, self._slack = (
            value * growth // shrink
            for value in (self._hyper, self._weight, self._george, self._slack)
        )

    def _regrid(self, factor: Fraction) -> None:
        """Carry the sums and maxima to a kernel grid *factor* times as
        fine: grid values, ``L`` and each ``w`` scale by *factor*, the
        ``(T − d0)·w`` numerators by its square.  Every quotient is
        exact; ``L`` restarts at 1 when no period is left."""
        num, den = factor.numerator, factor.denominator
        self._hyper = self._hyper * num // den if self._periods else 1
        self._weight = self._weight * num // den
        self._george = self._george * num * num // (den * den)
        self._slack = self._slack * num * num // (den * den)
        self._oneshot = self._oneshot * num // den
        self._periods = {p * num // den: c for p, c in self._periods.items()}
        self._gaps.rescale(num, den)
        self._dmax.rescale(num, den)

    @property
    def _george_num(self) -> ExactTime:
        """George's numerator ``Σ_{d0 ≤ T} (1 − d0/T)·C`` in time units."""
        return _exact(Fraction(self._george, self._hyper * (self._kernel.scale or 1)))

    @property
    def _superpos_num(self) -> ExactTime:
        """The superposition numerator ``Σ (1 − d0/T)·C`` in time units."""
        return _exact(Fraction(self._slack, self._hyper * (self._kernel.scale or 1)))

    # -- bounds (mirror repro.analysis.bounds on the aggregates) -------

    def _best_bound(self, pending: Sequence[DemandComponent] = ()) -> ExactTime:
        """The least of the Baruah, George and superposition bounds,
        rounded up to the kernel's grid, for the admitted system plus the
        *pending* components under decision (already merged into the
        kernel and the sums).

        On the grid of scale ``s`` all three are quotients by the same
        ``L − W = L·(1 − U) > 0``, of integer numerators (one-shot sum
        ``O`` scaled by ``L``): Baruah's ``W·max_gap + O``, George's
        ``Σ_{d0 ≤ T} (T − d0)·w + O`` and superposition's
        ``max(dmax·(L − W), Σ (T − d0)·w + O)``.  The least numerator
        ``N`` is divided once, ``ceil(N / (L − W)) = ceil(B·s)``: the
        bound is that over ``s``, an ``int`` on an integer grid.  QPA's
        first limit, ``ceil((B + 1)·s) = ceil(B·s) + s``, is the same
        from either bound.  The exact fallback grid (``L = 1``, rational
        sums) gets the exact quotient.  At ``U = 1`` the bound is the
        busy period, a sum of whole jobs and hence on the grid already.
        """
        if self._u >= 1:
            # Only reachable at U == 1 exactly (U > 1 never passes the gate).
            return busy_period_of_components([*self._components, *pending])
        if not self._kernel.n:
            return 0
        free = self._hyper - self._weight
        oneshot = self._oneshot * self._hyper
        least = min(
            self._weight * (self._gaps.max or 0) + oneshot,
            self._george + oneshot,
            max(self._dmax.max * free, self._slack + oneshot),
        )
        scale = self._kernel.scale
        if scale is None:
            return _exact(Fraction(least, free))
        grid = -(-least // free)
        return grid if scale == 1 else _exact(Fraction(grid, scale))
