"""Unit tests for the synchronous busy period."""

from fractions import Fraction
from math import lcm

from repro.analysis import (
    busy_period_of_components,
    first_overflow,
    synchronous_busy_period,
)
from repro.model import DemandComponent, TaskSet, as_components, task

from ..conftest import random_feasible_candidate


class TestSynchronousBusyPeriod:
    def test_single_task(self):
        assert synchronous_busy_period(TaskSet.of((2, 5, 5))) == 2

    def test_hand_computed_fixed_point(self):
        # C=(2,3), T=(4,10): L0=5 -> 2*2+3=7 -> 2*2+3=7 fixed point.
        ts = TaskSet.of((2, 4, 4), (3, 10, 10))
        assert synchronous_busy_period(ts) == 7

    def test_full_utilization_reaches_hyperperiod_fixpoint(self):
        ts = TaskSet.of((1, 2, 2), (1, 2, 2))
        assert synchronous_busy_period(ts) == 2

    def test_overload_returns_none(self):
        assert synchronous_busy_period(TaskSet.of((3, 2, 2))) is None

    def test_zero_cost_tasks_ignored(self):
        assert synchronous_busy_period(TaskSet.of((0, 5, 5))) == 0

    def test_fixed_point_property(self, rng):
        for _ in range(100):
            ts = random_feasible_candidate(rng)
            L = synchronous_busy_period(ts)
            assert L == sum(-((-L) // t.period) * t.wcet for t in ts if t.wcet)
            assert L <= ts.hyperperiod

    def test_rational_parameters(self):
        ts = TaskSet([task(Fraction(1, 2), 1, 2), task(Fraction(1, 3), 1, 3)])
        L = synchronous_busy_period(ts)
        assert L == Fraction(5, 6)


class TestComponentBusyPeriod:
    def test_conservative_vs_taskset(self, rng):
        """Component busy period (offset-0 model) bounds the true one."""
        for _ in range(50):
            ts = random_feasible_candidate(rng)
            exact = synchronous_busy_period(ts)
            conservative = busy_period_of_components(as_components(ts))
            assert conservative >= exact

    def test_one_shot_counted_once(self):
        comps = [
            DemandComponent(wcet=3, first_deadline=5),
            DemandComponent(wcet=1, first_deadline=4, period=4),
        ]
        # L = 3 + ceil(L/4): L0=4 -> 3+1=4 fixed point.
        assert busy_period_of_components(comps) == 4

    def test_empty(self):
        assert busy_period_of_components([]) == 0


class TestFullUtilizationOneShots:
    """At ``U = 1`` any one-shot cost makes the fixed point diverge
    (``rbf(L) >= L + one-shot cost``); the bound is then the largest
    first deadline plus the hyperperiod."""

    def test_last_deadline_plus_hyperperiod(self):
        comps = [
            DemandComponent(wcet=1, first_deadline=2, period=2),
            DemandComponent(wcet=1, first_deadline=2, period=2),
            DemandComponent(wcet=1, first_deadline=5),
        ]
        assert busy_period_of_components(comps) == 7

    def test_rational_periods(self):
        comps = [
            DemandComponent(wcet=Fraction(1, 2), first_deadline=1, period=1),
            DemandComponent(
                wcet=Fraction(1, 3),
                first_deadline=Fraction(2, 3),
                period=Fraction(2, 3),
            ),
            DemandComponent(wcet=1, first_deadline=Fraction(7, 2)),
        ]
        # D* = 7/2, H = lcm(1, 2/3) = 2.
        assert busy_period_of_components(comps) == Fraction(11, 2)

    def test_first_overflow_lies_within_the_bound(self, rng):
        """``dbf(t) - t`` repeats with the hyperperiod beyond ``D*``, so a
        scan three hyperperiods past the bound finds nothing it misses."""
        overflows = 0
        for _ in range(60):
            periods = [rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
            shares = [Fraction(1, len(periods))] * len(periods)
            comps = [
                DemandComponent(
                    wcet=share * p, first_deadline=rng.randint(1, 2 * p), period=p
                )
                for share, p in zip(shares, periods)
            ]
            comps += [
                DemandComponent(wcet=rng.randint(1, 2), first_deadline=rng.randint(1, 15))
                for _ in range(rng.randint(1, 2))
            ]
            hyper = lcm(*periods)
            bound = busy_period_of_components(comps)
            assert bound == max(c.first_deadline for c in comps) + hyper
            first = first_overflow(comps, bound + 3 * hyper)
            if first is not None:
                overflows += 1
                assert first[0] <= bound
        assert overflows
