"""Online/from-scratch parity: the correctness bar of the subsystem.

Randomized churn traces — hundreds of events, mixed int/float/Fraction
task parameters — replayed through a controller, with every verdict
checked against a fresh engine ``analyze()`` of the snapshot:

* an admitted arrival's system must be FEASIBLE from scratch,
* a rejected arrival's would-be system must be INFEASIBLE from scratch,
* the system after any departure must be FEASIBLE from scratch,

under both exact engine tests (``qpa`` and ``processor-demand``), which
agree by their own parity suite — so one oracle run per test suffices.
"""

import pytest

from repro.engine import analyze
from repro.generation import churn_trace, generate_trace, poisson_trace
from repro.model.components import as_components
from repro.online import (
    ARRIVE,
    AdmissionController,
    ParityError,
    ReplayReport,
    Stage,
    replay,
)


def _assert_full_parity(trace, oracle_test="qpa"):
    """Manual replay asserting per-event verdict parity (both directions)."""
    controller = AdmissionController()
    checked_rejections = 0
    for event in trace:
        if event.kind == ARRIVE:
            before = list(controller.snapshot())
            decision = controller.admit(event.task, name=event.name)
            if decision.admitted:
                fresh = analyze(list(controller.snapshot()), test=oracle_test)
                assert fresh.is_feasible, (event.name, decision.stage)
            else:
                would_be = before + list(as_components([event.task]))
                fresh = analyze(would_be, test=oracle_test)
                assert fresh.is_infeasible, (event.name, decision.stage)
                checked_rejections += 1
        else:
            controller.remove(event.name, strict=False)
            fresh = analyze(list(controller.snapshot()), test=oracle_test)
            assert fresh.is_feasible, event.name
    return controller, checked_rejections


class TestChurnParity:
    def test_200_event_mixed_type_churn_parity_qpa(self):
        trace = churn_trace(
            220,
            seed=2005,
            mixed_types=True,
            target_utilization=0.92,
            per_task_utilization=(0.02, 0.2),
            period_range=(10, 2_000),
        )
        assert len(trace) >= 200
        controller, rejections = _assert_full_parity(trace, oracle_test="qpa")
        stats = controller.stats()
        # The trace must actually contest admission, not rubber-stamp it.
        assert stats["rejected"] > 0
        assert stats["admitted"] > 0
        assert stats["departures"] > 0

    def test_200_event_churn_parity_processor_demand(self):
        trace = churn_trace(
            200,
            seed=77,
            mixed_types=True,
            target_utilization=0.95,
            per_task_utilization=(0.05, 0.3),
            period_range=(5, 500),
        )
        _assert_full_parity(trace, oracle_test="processor-demand")

    def test_every_arrival_past_the_gate_goes_exact(self):
        trace = churn_trace(
            120,
            seed=31,
            mixed_types=True,
            target_utilization=0.9,
            per_task_utilization=(0.05, 0.25),
            period_range=(5, 400),
        )
        controller, _ = _assert_full_parity(trace)
        stats = controller.stats()
        assert stats[Stage.EXACT] == stats["arrivals"] - stats[Stage.GATE]

    def test_oracle_replay_mode_agrees(self):
        trace = generate_trace(
            "churn", 150, seed=9, mixed_types=True,
            target_utilization=0.93,
            per_task_utilization=(0.03, 0.25),
            period_range=(8, 800),
        )
        report = replay(trace, oracle=True)
        assert isinstance(report, ReplayReport)
        assert report.events == len(trace)
        assert report.oracle == "qpa"

    def test_poisson_trace_oracle(self):
        trace = poisson_trace(
            120, seed=4, mixed_types=True, per_task_utilization=(0.02, 0.12)
        )
        report = replay(trace, oracle=True, oracle_test="processor-demand")
        assert report.events == len(trace)

    def test_oracle_catches_a_wrong_verdict(self, monkeypatch):
        """The oracle is live: force a bogus accept and watch it fire."""
        from repro.kernel import IncrementalKernel

        from repro.model import SporadicTask
        from repro.online import ArrivalEvent, Trace

        # (1,1,2) twice: U == 1 passes the gate, but dbf(1) = 2 — any
        # honest stage rejects the second arrival.
        task = SporadicTask(wcet=1, deadline=1, period=2)
        trace = Trace(
            [
                ArrivalEvent.arrive("a", task, time=0),
                ArrivalEvent.arrive("b", task, time=1),
            ]
        )
        # Lobotomize the exact walk on the controller's live kernel (the
        # oracle's fresh DemandKernel stays honest): every arrival that
        # passes the utilization gate is admitted, feasible or not.
        monkeypatch.setattr(
            IncrementalKernel,
            "qpa",
            lambda kernel, bound, floor=0: ("feasible", None, None, 0),
        )
        with pytest.raises(ParityError):
            replay(trace, oracle=True)

    @pytest.mark.parametrize("field", ["interval", "demand"])
    def test_oracle_catches_a_wrong_witness(self, monkeypatch, field):
        """Under the qpa oracle an exact-stage rejection must carry the
        from-scratch walk's witness: shift one half of the live walk's
        witness by one grid step and watch the oracle fire, while the
        verdict stays right (the processor-demand oracle checks verdicts
        only)."""
        from repro.kernel import IncrementalKernel

        from repro.model import SporadicTask
        from repro.online import ArrivalEvent, Trace

        task = SporadicTask(wcet=1, deadline=1, period=2)
        trace = Trace(
            [
                ArrivalEvent.arrive("a", task, time=0),
                ArrivalEvent.arrive("b", task, time=1),
            ]
        )
        honest = replay(trace, oracle=True)
        decision = honest.records[1].decision
        assert decision.stage == Stage.EXACT and not decision.admitted
        qpa = IncrementalKernel.qpa

        def shifted(kernel, bound, floor=0):
            status, interval, demand, iterations = qpa(kernel, bound, floor)
            if status == "infeasible" and field == "interval":
                interval += 1
            elif status == "infeasible":
                demand += 1
            return status, interval, demand, iterations

        monkeypatch.setattr(IncrementalKernel, "qpa", shifted)
        replay(trace, oracle=True, oracle_test="processor-demand")
        with pytest.raises(ParityError, match="witness"):
            replay(trace, oracle=True)


class TestReplayReport:
    def test_report_aggregates(self):
        trace = churn_trace(80, seed=13, target_utilization=0.9)
        report = replay(trace)
        assert report.events == 80
        assert report.admitted + report.rejected == trace.arrivals
        assert report.mean_latency_seconds > 0
        assert report.max_latency_seconds >= report.mean_latency_seconds
        assert sum(report.stage_counts().values()) == 80
        summary = report.summary()
        assert "replayed 80 events" in summary
        assert "admitted" in summary

    def test_replay_continues_existing_controller(self, simple_taskset):
        controller = AdmissionController(simple_taskset)
        trace = churn_trace(30, seed=3, target_utilization=0.7)
        replay(trace, controller=controller)
        assert "initial" in controller
