"""Admission controller unit tests: pipeline stages, rollback, invariants."""

import random
from fractions import Fraction
from math import lcm

import pytest

from repro.analysis.bounds import BoundMethod
from repro.analysis.busy_period import busy_period_of_components
from repro.engine import analyze
from repro.engine.context import AnalysisContext
from repro.generation import generate_taskset
from repro.model import SporadicTask, TaskSet
from repro.model.components import DemandComponent, as_components
from repro.model.validation import ModelError
from repro.online import AdmissionController, Stage
from repro.online.controller import _exact
from repro.result import Verdict


def _task(c, d, t, name=""):
    return SporadicTask(wcet=c, deadline=d, period=t, name=name)


def _baruah(controller):
    """Baruah's bound on the controller's aggregates, one division."""
    if controller._u >= 1:
        return None
    max_gap = controller._gaps.max or Fraction(0)
    numerator = controller._u * max_gap + controller._oneshot
    return _exact(numerator / (1 - controller._u))


def _george(controller):
    """George's bound on the controller's aggregates, one division."""
    if controller._u >= 1:
        return None
    numerator = controller._george_num + controller._oneshot
    return _exact(numerator / (1 - controller._u))


def _superposition(controller):
    """The superposition bound on the controller's aggregates."""
    if controller._u >= 1:
        return None
    linear = controller._superpos_num + controller._oneshot
    return max(controller._dmax.max, _exact(linear / (1 - controller._u)))


def _on_grid(controller, bound):
    """*bound* rounded up to the controller's kernel grid: ``ceil(B·s)/s``
    (an ``int`` on an integer grid), *bound* itself on the exact grid."""
    scale = controller._kernel.scale
    if scale is None:
        return bound
    grid = -(-Fraction(bound) * scale // 1)
    return grid if scale == 1 else _exact(Fraction(grid, scale))


def _churn_arrival(rng, rational):
    """A random arrival: a task or (one in ten) a one-shot, with an
    integer period, or with *rational* also one over a small
    denominator (the grid grows)."""
    period = rng.randint(20, 2000)
    if rational and rng.random() < 0.3:
        period = Fraction(period, rng.choice((2, 3, 5, 7, 11)))
    wcet = period * Fraction(rng.randint(5, 80), 1000)
    deadline = period * Fraction(rng.randint(40, 150), 100)
    if type(period) is int:
        wcet, deadline = max(1, int(wcet)), int(deadline)
    deadline = max(wcet, deadline)
    if rng.random() < 0.1:
        return DemandComponent(wcet=wcet, first_deadline=deadline)
    return _task(wcet, deadline, period)


def _three_quotient_bound(controller):
    """The least of the three bounds, each divided on its own, rounded
    up to the grid."""
    candidates = [
        b
        for b in (
            _baruah(controller),
            _george(controller),
            _superposition(controller),
        )
        if b is not None
    ]
    if not candidates:
        return busy_period_of_components(controller.snapshot())
    return _on_grid(controller, min(candidates))


class TestLifecycle:
    def test_admit_then_remove_restores_empty(self):
        controller = AdmissionController()
        decision = controller.admit(_task(1, 4, 5), name="a")
        assert decision.admitted and decision.verdict is Verdict.FEASIBLE
        assert len(controller) == 1 and "a" in controller
        departure = controller.remove("a")
        assert departure.admitted and departure.stage == Stage.DEPARTURE
        assert len(controller) == 0 and controller.utilization == 0
        assert controller.snapshot() == ()

    def test_initial_system_is_one_entry(self, simple_taskset):
        controller = AdmissionController(simple_taskset)
        assert len(controller) == 1 and "initial" in controller
        assert controller.utilization == simple_taskset.utilization
        assert len(controller.snapshot()) == len(simple_taskset)

    def test_infeasible_initial_system_rejected(self, infeasible_taskset):
        with pytest.raises(ModelError, match="initial system is infeasible"):
            AdmissionController(infeasible_taskset)

    def test_overloaded_initial_system_rejected(self):
        with pytest.raises(ModelError, match="U > 1"):
            AdmissionController(TaskSet.of((3, 2, 2), (3, 2, 2)))

    def test_duplicate_name_rejected(self):
        controller = AdmissionController()
        controller.admit(_task(1, 8, 10), name="a")
        with pytest.raises(ModelError, match="already admitted"):
            controller.admit(_task(1, 8, 10), name="a")

    def test_auto_names_are_unique(self):
        controller = AdmissionController()
        first = controller.admit(_task(1, 40, 50))
        second = controller.admit(_task(1, 40, 50))
        assert first.name != second.name

    def test_remove_unknown_strict_raises(self):
        controller = AdmissionController()
        with pytest.raises(KeyError):
            controller.remove("ghost")
        decision = controller.remove("ghost", strict=False)
        assert not decision.admitted and decision.stage == Stage.ABSENT

    def test_event_stream_and_component_sources(self):
        controller = AdmissionController()
        component = DemandComponent(wcet=1, first_deadline=3, period=7)
        assert controller.admit(component, name="comp").admitted
        one_shot = DemandComponent(wcet=1, first_deadline=9)
        assert controller.admit(one_shot, name="shot").admitted
        assert len(controller.snapshot()) == 2
        controller.remove("comp")
        assert [c.period for c in controller.snapshot()] == [None]


class TestPipelineStages:
    def test_utilization_gate_rejects_overload(self):
        controller = AdmissionController(TaskSet.of((4, 10, 10)))
        decision = controller.admit(_task(7, 10, 10), name="x")
        assert not decision.admitted
        assert decision.stage == Stage.GATE
        assert decision.verdict is Verdict.INFEASIBLE
        # Rolled back: nothing changed.
        assert len(controller) == 1
        assert controller.utilization == Fraction(2, 5)

    def test_exact_stage_admits_past_the_gate(self):
        # A comfortable arrival and (1,1,3)+(4,6,8), exactly feasible
        # although SuperPos(2) overestimates it past capacity: both go
        # to the windowed exact stage, with its bound and walk length.
        controller = AdmissionController(TaskSet.of((1, 10, 10)))
        decision = controller.admit(_task(1, 10, 10), name="x")
        assert decision.admitted and decision.stage == Stage.EXACT
        controller = AdmissionController(TaskSet.of((1, 1, 3)))
        decision = controller.admit(_task(4, 6, 8), name="x")
        assert decision.admitted and decision.stage == Stage.EXACT
        assert decision.bound == controller._best_bound()
        assert decision.iterations >= 1

    def test_exact_stage_rejects_with_witness(self):
        controller = AdmissionController(TaskSet.of((1, 1, 2)))
        decision = controller.admit(_task(1, 1, 2), name="x")
        assert not decision.admitted and decision.stage == Stage.EXACT
        assert decision.verdict is Verdict.INFEASIBLE
        assert decision.witness is not None
        assert decision.witness.demand > decision.witness.interval
        # The witness is checkable against the would-be system.
        would_be = list(controller.snapshot()) + list(
            as_components([_task(1, 1, 2)])
        )
        fresh = analyze(would_be, test="qpa")
        assert fresh.is_infeasible
        # Rollback left the admitted system intact and feasible.
        assert analyze(list(controller.snapshot()), test="qpa").is_feasible

    def test_zero_demand_entity_is_trivial(self):
        controller = AdmissionController()
        decision = controller.admit(_task(0, 5, 5), name="idle")
        assert decision.admitted and decision.stage == Stage.TRIVIAL
        assert controller.snapshot() == ()
        controller.remove("idle")  # the handle still exists


class TestBookkeeping:
    def test_incremental_utilization_is_exact(self):
        controller = AdmissionController()
        controller.admit(_task(1, 2, 3), name="a")
        controller.admit(_task(Fraction(1, 7), 2, Fraction(22, 7)), name="b")
        expected = Fraction(1, 3) + Fraction(1, 7) / Fraction(22, 7)
        assert controller.utilization == expected
        controller.remove("b")
        assert controller.utilization == Fraction(1, 3)

    def test_bounds_match_engine_context(self):
        controller = AdmissionController()
        tasks = generate_taskset(n=12, utilization=0.8, seed=17)
        for index, task in enumerate(tasks):
            controller.admit(task, name=f"t{index}")
        ctx = AnalysisContext.of(list(controller.snapshot()))
        assert _baruah(controller) == ctx.bound(BoundMethod.BARUAH)
        assert _george(controller) == ctx.bound(BoundMethod.GEORGE)
        assert _superposition(controller) == ctx.bound(BoundMethod.SUPERPOSITION)
        best = ctx.bound(BoundMethod.BEST)
        assert controller._best_bound() == _on_grid(controller, best)
        # Bounds stay exact after removals (max trackers recompute).
        controller.remove("t3")
        controller.remove("t7")
        ctx = AnalysisContext.of(list(controller.snapshot()))
        best = ctx.bound(BoundMethod.BEST)
        assert controller._best_bound() == _on_grid(controller, best)

    @pytest.mark.parametrize(
        "rows",
        [
            # integer grid
            [(5, 9, 20), (3, 10, 10), (7, 40, 50)],
            # rational grid (scale 21)
            [
                (Fraction(5, 3), 9, 20),
                (3, Fraction(71, 7), 11),
                (Fraction(2, 7), 4, Fraction(41, 3)),
            ],
            # exact fallback grid (scale past SCALE_CAP)
            [(1, 5, 8)]
            + [
                (Fraction(1, p), Fraction(4, p) + i, 3 + i)
                for i, p in enumerate([(1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1])
            ],
        ],
        ids=["integer", "rational", "fallback"],
    )
    def test_best_bound_is_the_engine_bound_on_the_grid(self, rows):
        """``_best_bound`` is ``ctx.bound(BEST)`` rounded up to the
        kernel's grid, and QPA from either bound walks alike."""
        controller = AdmissionController([_task(*row) for row in rows])
        kernel = controller._kernel
        best = AnalysisContext.of(list(controller.snapshot())).bound(BoundMethod.BEST)
        got = controller._best_bound()
        assert got == _on_grid(controller, best)
        assert type(got) is type(_on_grid(controller, best))
        assert (kernel.scale == 1) == (type(got) is int)
        assert got >= best and (kernel.scale is not None or got == best)
        assert kernel.qpa(got) == kernel.qpa(best)
        for floor in (0, 9, 20):
            assert kernel.qpa(got, floor=floor) == kernel.qpa(best, floor=floor)

    def test_best_bound_through_long_churn(self):
        """2,400 random events: arrivals with integer, then also
        rational periods, one-shots, rejections (some of tight tasks
        whose period brings a new prime denominator, so the grid grows
        and shrinks back), departures of the newest arrival and from
        the middle, and one arrival that puts the kernel on the exact
        grid for good.  After every event ``_best_bound`` is the
        engine's BEST bound on the grid, and the common multiple ``L``
        of the grid periods stays within twice the bits of their lcm."""
        rng = random.Random(2005)
        controller = AdmissionController()
        resident = []
        stages = set()
        regrid_rejections = 0
        for event in range(2400):
            degrade = event == 2000  # denominators past SCALE_CAP
            tight = 800 <= event < 2000 and event % 100 == 50
            if resident and not (degrade or tight) and rng.random() < 0.45:
                newest = rng.random() < 0.5
                name = resident.pop() if newest else resident.pop(
                    rng.randrange(len(resident))
                )
                controller.remove(name)
            else:
                name = f"e{event}"
                arrival = _churn_arrival(rng, rational=event >= 800)
                if degrade:
                    arrival = _task(
                        Fraction(1, (1 << 89) - 1),
                        Fraction(1, (1 << 107) - 1) + 3000,
                        3000,
                    )
                elif tight:
                    prime = (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)[
                        event // 100 - 8
                    ]
                    arrival = _task(300, 300, Fraction(30000, prime))
                decision = controller.admit(arrival, name=name)
                stages.add((decision.stage, decision.admitted))
                if tight and not decision.admitted:
                    regrid_rejections += decision.stage == Stage.EXACT
                assert decision.admitted or not degrade
                if decision.admitted:
                    resident.append(name)
            kernel = controller._kernel
            snapshot = list(controller.snapshot())
            if snapshot:
                best = AnalysisContext.of(snapshot).bound(BoundMethod.BEST)
                assert controller._best_bound() == _on_grid(controller, best)
            if kernel.scale is not None:
                exact = lcm(*[p for p in kernel.periods if p])
                assert controller._hyper % exact == 0
                assert controller._hyper.bit_length() <= 2 * exact.bit_length()
        assert kernel.scale is None  # the degrade stuck
        assert regrid_rejections
        assert stages >= {
            (Stage.EXACT, True), (Stage.EXACT, False), (Stage.GATE, False)
        }

    @pytest.mark.parametrize("size", [100, 500, 1000])
    def test_best_bound_is_the_least_quotient(self, size):
        """One division over the least numerator gives the least of the
        three quotients, in value and in type, on sessions of the
        admission population (``U = 0.85`` plus churn)."""
        from repro.generation import GeneratorConfig, TaskSetGenerator

        base = TaskSetGenerator(
            GeneratorConfig(
                tasks=(size, size),
                utilization=(0.85, 0.85),
                period_range=(1_000, 100_000),
                gap=(0.1, 0.4),
            ),
            seed=2005 + size,
        ).one()
        controller = AdmissionController(base)
        arrivals = [_task(40, 100, 1000), _task(3, 2000, 2500), _task(9, 60, 90)]
        for index, arrival in enumerate(arrivals):
            expected = _three_quotient_bound(controller)
            got = controller._best_bound()
            assert got == expected and type(got) is type(expected)
            controller.admit(arrival, name=f"x{index}")

    @pytest.mark.parametrize(
        "rows",
        [
            [(5, 9, 20), (3, 10, 10)],  # George
            [(4, 15, 12), (4, 15, 12), (4, 8, 20)],  # superposition
            [(1, 16, 20)],  # Baruah = George
            [(2, 3, 20), (1, 2, 10), (1, 4, 5)],  # George = superposition
            [(4, 4, 12)],  # all three
            [(1, 2, 2), (1, 3, 2)],  # U = 1: the busy period
            [],
        ],
    )
    def test_best_bound_on_small_systems(self, rows):
        controller = AdmissionController([_task(*row) for row in rows])
        expected = _three_quotient_bound(controller) if rows else 0
        got = controller._best_bound()
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_superposition_bound_near_a_tie(self, offset):
        """``linear / (1 − U)`` within ~5e-8 of ``D_max`` (equal at
        offset 0), too close for the float screen: the exact comparison
        picks the larger term on either side of the tie.  Here
        ``linear / (1 − U) ≤ D_max`` iff ``Σ (C/T)(T − D + D_max) ≤
        D_max``, i.e. ``0.8 · 105 + C_B ≤ 104``.  George's bound equals
        ``linear / (1 − U)`` here, so above the tie a wrong pick of
        ``D_max`` would make the least bound ``D_max``."""
        tasks = [_task(8, 9, 10), _task(20 + Fraction(offset, 10**6), 104, 1000)]
        controller = AdmissionController(tasks)
        best = AnalysisContext.of(tasks).bound(BoundMethod.BEST)
        assert controller._best_bound() == _on_grid(controller, best)

    def test_stats_counters(self):
        controller = AdmissionController()
        controller.admit(_task(1, 10, 10), name="a")
        controller.admit(_task(20, 10, 10), name="fat")  # gate reject
        controller.remove("a")
        stats = controller.stats()
        assert stats["events"] == 3
        assert stats["arrivals"] == 2 and stats["departures"] == 1
        assert stats["admitted"] == 1 and stats["rejected"] == 1
        assert stats[Stage.GATE] == 1
        assert stats["mean_latency_seconds"] > 0

    def test_decision_latency_recorded(self):
        controller = AdmissionController()
        decision = controller.admit(_task(1, 5, 5))
        assert decision.latency_seconds >= 0
        assert decision.tasks == 1 and decision.utilization == Fraction(1, 5)


class TestExactnessAtBoundaries:
    def test_utilization_exactly_one_admits_when_feasible(self):
        # Implicit deadlines at U == 1: feasible, and the bound falls
        # back to the busy period exactly like the engine's.
        controller = AdmissionController(TaskSet.of((1, 2, 2)))
        decision = controller.admit(_task(1, 2, 2), name="x")
        assert decision.admitted
        assert controller.utilization == 1
        assert analyze(list(controller.snapshot()), test="qpa").is_feasible

    def test_exact_stage_rejection_at_full_utilization(self):
        # (1,1,2) + (1,1,2): U == 1, so the bound is the busy period of
        # the would-be system (2), not of the resident set alone (1).
        controller = AdmissionController(TaskSet.of((1, 1, 2)))
        would_be = list(controller.snapshot()) + list(
            as_components([_task(1, 1, 2)])
        )
        decision = controller.admit(_task(1, 1, 2), name="x")
        assert not decision.admitted and decision.stage == Stage.EXACT
        assert decision.bound == 2
        assert decision.bound == AnalysisContext.of(would_be).bound(
            BoundMethod.BEST
        )
        assert busy_period_of_components(controller.snapshot()) == 1
        fresh = analyze(would_be, test="qpa")
        assert decision.witness == fresh.witness
        assert (decision.witness.interval, decision.witness.demand) == (1, 2)

    def test_one_shot_components_in_bounds(self):
        controller = AdmissionController()
        controller.admit(DemandComponent(wcet=2, first_deadline=5), name="burst")
        decision = controller.admit(_task(1, 4, 4), name="periodic")
        assert decision.admitted
        fresh = analyze(list(controller.snapshot()), test="processor-demand")
        assert fresh.is_feasible


class TestRollbackHygiene:
    def test_rejected_arrival_does_not_grow_the_grid(self):
        controller = AdmissionController(TaskSet.of((4, 5, 5)))
        assert controller._kernel.scale == 1
        # A candidate with a denominator the grid does not know: the
        # tentative merge rescales, the rejection must restore the grid.
        decision = controller.admit(
            _task(Fraction(7, 3), Fraction(7, 3), Fraction(7, 3)), name="x"
        )
        assert not decision.admitted
        assert controller._kernel.scale == 1
        assert controller._kernel.n == 1

    def test_rejected_arrival_does_not_degrade_to_exact_path(self):
        controller = AdmissionController(TaskSet.of((9, 10, 10)))
        assert controller._kernel.scale == 1
        huge_prime = (1 << 127) - 1
        fat = DemandComponent(
            wcet=Fraction(huge_prime - 1, huge_prime),
            first_deadline=Fraction(1, huge_prime),
            period=1,
        )
        # Forcing the LCM past SCALE_CAP degrades the tentative kernel;
        # the rejection recompiles back onto the integer grid.
        decision = controller.admit(fat, name="nasty")
        assert not decision.admitted
        assert controller._kernel.scale == 1

    def test_auto_name_skips_user_supplied_handles(self):
        controller = AdmissionController()
        controller.admit(_task(1, 40, 50), name="task1")
        decision = controller.admit(_task(1, 40, 50))  # auto-named
        assert decision.admitted and decision.name == "task2"
        another = controller.admit(_task(1, 40, 50))
        assert another.admitted and another.name == "task3"
