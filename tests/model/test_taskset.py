"""Unit tests for the TaskSet container."""

from fractions import Fraction

import pytest

from repro.model import SporadicTask, TaskSet, TaskSetError, task


class TestConstruction:
    def test_of_accepts_tuples_and_tasks(self):
        ts = TaskSet.of((1, 2, 3), task(2, 4, 6))
        assert len(ts) == 2
        assert ts[0].period == 3

    def test_rejects_non_tasks(self):
        with pytest.raises(TaskSetError):
            TaskSet([(1, 2, 3)])  # type: ignore[list-item]

    def test_rejects_duplicate_names(self):
        with pytest.raises(TaskSetError, match="duplicate"):
            TaskSet([task(1, 2, 3, name="a"), task(2, 3, 4, name="a")])

    def test_unnamed_duplicates_fine(self):
        TaskSet([task(1, 2, 3), task(1, 2, 3)])  # must not raise

    def test_empty_set_allowed(self):
        ts = TaskSet([])
        assert len(ts) == 0
        assert ts.utilization == 0
        assert ts.hyperperiod == 0


class TestSequenceProtocol:
    def test_indexing_and_slicing(self):
        ts = TaskSet.of((1, 2, 3), (2, 3, 4), (3, 4, 5))
        assert ts[1].wcet == 2
        sliced = ts[:2]
        assert isinstance(sliced, TaskSet)
        assert len(sliced) == 2

    def test_equality_and_hash(self):
        a = TaskSet.of((1, 2, 3))
        b = TaskSet.of((1, 2, 3))
        assert a == b
        assert hash(a) == hash(b)
        assert a != TaskSet.of((1, 2, 4))


class TestAggregates:
    def test_utilization_exact_sum(self):
        ts = TaskSet.of((1, 3, 3), (1, 6, 6))
        assert ts.utilization == Fraction(1, 2)

    def test_utilization_returns_int_when_integral(self):
        ts = TaskSet.of((1, 2, 2), (1, 2, 2))
        assert ts.utilization == 1
        assert type(ts.utilization) is int

    def test_utilization_with_rational_and_zero_cost_tasks(self):
        ts = TaskSet.of((Fraction(1, 3), 2, 2), (0, 5, 7), (0.5, 3, 3), (2, 9, 12))
        assert ts.utilization == Fraction(1, 6) + Fraction(1, 6) + Fraction(1, 6)
        assert TaskSet([]).utilization == 0

    def test_extrema(self):
        ts = TaskSet.of((1, 5, 10), (2, 3, 20))
        assert ts.max_deadline == 5
        assert ts.min_deadline == 3
        assert ts.max_period == 20
        assert ts.min_period == 10
        assert ts.period_ratio == 2.0

    def test_hyperperiod(self):
        ts = TaskSet.of((1, 4, 4), (1, 6, 6))
        assert ts.hyperperiod == 12

    def test_hyperperiod_rational(self):
        ts = TaskSet([task(1, 1, Fraction(1, 2)), task(1, 1, Fraction(1, 3))])
        assert ts.hyperperiod == 1

    def test_total_wcet(self):
        assert TaskSet.of((1, 2, 3), (4, 5, 6)).total_wcet == 5

    def test_average_gap_ratio(self):
        ts = TaskSet.of((1, 8, 10), (1, 6, 10))  # gaps 20% and 40%
        assert ts.average_gap_ratio == pytest.approx(0.3)

    def test_constrained_flag(self):
        assert TaskSet.of((1, 5, 10)).has_constrained_deadlines
        assert not TaskSet.of((1, 15, 10)).has_constrained_deadlines

    def test_synchronous_flag(self):
        assert TaskSet.of((1, 2, 3)).is_synchronous
        assert not TaskSet([task(1, 2, 3, phase=1)]).is_synchronous


class TestViews:
    def test_by_deadline_sorted(self):
        ts = TaskSet.of((1, 9, 10), (1, 3, 10), (1, 6, 10))
        assert [t.deadline for t in ts.by_deadline] == [3, 6, 9]

    def test_scaled(self):
        ts = TaskSet.of((1, 2, 4)).scaled(5)
        assert ts[0].period == 20
        assert ts.utilization == Fraction(1, 4)

    def test_without_and_extended(self):
        ts = TaskSet.of((1, 2, 3), (2, 3, 4))
        assert len(ts.without(0)) == 1
        assert ts.without(0)[0].wcet == 2
        assert len(ts.extended([task(5, 6, 7)])) == 3

    def test_renamed(self):
        assert TaskSet.of((1, 2, 3)).renamed("x").name == "x"


class TestDemand:
    def test_dbf_is_sum_of_task_dbfs(self):
        ts = TaskSet.of((2, 6, 10), (3, 11, 16))
        for interval in (0, 5, 6, 11, 16, 26, 27, 100):
            assert ts.dbf(interval) == sum(t.dbf(interval) for t in ts)

    def test_summary_mentions_all_tasks(self):
        ts = TaskSet.of((1, 2, 3), (2, 3, 4)).renamed("demo")
        text = ts.summary()
        assert "demo" in text
        assert text.count("C=") == 2
