"""Unit tests for the All-Approximated test (paper Section 4.2, Fig. 7)."""

import pytest

from repro.analysis import dbf, devi_test, processor_demand_test
from repro.core import RevisionPolicy, all_approx_test
from repro.model import EventStream, EventStreamTask, TaskSet, as_components, task
from repro.result import Verdict

from ..conftest import random_feasible_candidate


class TestExactness:
    def test_agrees_with_processor_demand(self, rng):
        feasible = infeasible = 0
        for _ in range(500):
            ts = random_feasible_candidate(rng)
            a = all_approx_test(ts)
            p = processor_demand_test(ts)
            assert a.is_feasible == p.is_feasible, ts.summary()
            feasible += a.is_feasible
            infeasible += not a.is_feasible
        assert feasible > 50 and infeasible > 50

    def test_witness_exact(self, infeasible_taskset):
        r = all_approx_test(infeasible_taskset)
        assert r.verdict is Verdict.INFEASIBLE
        assert r.witness.exact
        assert dbf(infeasible_taskset, r.witness.interval) == r.witness.demand

    def test_overload(self):
        r = all_approx_test(TaskSet.of((3, 2, 2)))
        assert r.verdict is Verdict.INFEASIBLE
        assert r.iterations == 0

    def test_empty(self):
        assert all_approx_test([]).verdict is Verdict.FEASIBLE

    def test_event_stream_system(self):
        system = [
            EventStreamTask(
                stream=EventStream.burst(count=4, spacing=3, period=60),
                wcet=2,
                deadline=8,
            ),
            task(6, 30, 40),
        ]
        comps = as_components(system)
        assert (
            all_approx_test(comps).is_feasible
            == processor_demand_test(comps).is_feasible
        )


class TestDeviEquivalentFastPath:
    """Paper Section 4.2: no revisions => behaviour equals Devi's test."""

    def test_devi_accepted_runs_without_revisions(self, rng):
        checked = 0
        for _ in range(300):
            ts = random_feasible_candidate(rng)
            if not devi_test(ts).is_feasible:
                continue
            r = all_approx_test(ts)
            assert r.is_feasible
            assert r.revisions == 0
            if ts.utilization < 1:
                assert r.iterations == len([t for t in ts if t.wcet > 0])
            else:
                # At U = 1 the busy-period backstop may cut pops short.
                assert r.iterations <= len([t for t in ts if t.wcet > 0])
            checked += 1
        assert checked > 50


class TestFullUtilizationBackstop:
    def test_u_equals_one_feasible(self):
        # Classic tight set: dbf touches capacity at every deadline.
        ts = TaskSet.of((1, 1, 2), (1, 3, 2))
        assert ts.utilization == 1
        r = all_approx_test(ts)
        assert r.verdict is Verdict.FEASIBLE

    def test_u_equals_one_infeasible(self, infeasible_taskset):
        assert infeasible_taskset.utilization == 1
        assert all_approx_test(infeasible_taskset).verdict is Verdict.INFEASIBLE

    def test_u_equals_one_agreement(self, rng):
        checked = 0
        for _ in range(400):
            ts = random_feasible_candidate(rng, max_tasks=3, max_period=12)
            if ts.utilization != 1:
                continue
            checked += 1
            assert (
                all_approx_test(ts).is_feasible
                == processor_demand_test(ts).is_feasible
            ), ts.summary()
        assert checked > 5


class TestRevisionPolicies:
    @pytest.mark.parametrize(
        "policy",
        [
            RevisionPolicy.FIFO,
            RevisionPolicy.LARGEST_ERROR,
            RevisionPolicy.LARGEST_UTILIZATION,
        ],
    )
    def test_policies_do_not_change_verdicts(self, rng, policy):
        for _ in range(200):
            ts = random_feasible_candidate(rng)
            assert (
                all_approx_test(ts, revision_policy=policy).is_feasible
                == processor_demand_test(ts).is_feasible
            ), (policy, ts.summary())

    def test_largest_error_tie_revises_the_first_approximated(self):
        """At I = 9, tau2 (approximated at 2) and tau3 (at 6) overshoot
        their staircases by the same 3/4; tau2, first in insertion
        order, is revised.  Revising tau3 instead reads 7 iterations, 2
        revisions and 5 intervals."""
        ts = TaskSet.of((2, 4, 5), (1, 2, 4), (2, 6, 8))
        result = all_approx_test(ts, revision_policy=RevisionPolicy.LARGEST_ERROR)
        assert result.is_feasible
        counts = (result.iterations, result.revisions, result.intervals_checked)
        assert counts == (9, 3, 6)

    def test_unknown_policy_rejected(self, simple_taskset):
        with pytest.raises(ValueError):
            all_approx_test(simple_taskset, revision_policy="random")
