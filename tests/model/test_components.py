"""Unit tests for demand components — the tests' common currency."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model import (
    DemandComponent,
    EventStream,
    EventStreamTask,
    ModelError,
    SporadicTask,
    TaskSet,
    as_components,
    task,
    total_utilization,
)


def component(c=2, d0=6, t=10):
    return DemandComponent(wcet=c, first_deadline=d0, period=t)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ModelError):
            DemandComponent(wcet=-1, first_deadline=1, period=1)
        with pytest.raises(ModelError):
            DemandComponent(wcet=1, first_deadline=0, period=1)
        with pytest.raises(ModelError):
            DemandComponent(wcet=1, first_deadline=1, period=0)

    def test_one_shot(self):
        c = DemandComponent(wcet=3, first_deadline=5)
        assert not c.is_recurrent
        assert c.utilization == 0
        assert c.dbf(4) == 0
        assert c.dbf(5) == 3
        assert c.dbf(500) == 3
        assert c.next_deadline_after(4) == 5
        assert c.next_deadline_after(5) is None


class TestAsComponents:
    def test_taskset_conversion(self):
        ts = TaskSet.of((2, 6, 10), (3, 11, 16))
        comps = as_components(ts)
        assert len(comps) == 2
        assert comps[0].first_deadline == 6
        assert comps[0].period == 10

    def test_zero_wcet_dropped(self):
        comps = as_components([task(0, 5, 5), task(1, 5, 5)])
        assert len(comps) == 1

    def test_components_pass_through(self):
        c = component()
        assert as_components([c]) == [c]

    def test_event_stream_task_flattened(self):
        est = EventStreamTask(
            stream=EventStream.burst(count=3, spacing=2, period=20),
            wcet=1,
            deadline=5,
        )
        comps = as_components([est])
        assert len(comps) == 3
        assert [c.first_deadline for c in comps] == [5, 7, 9]
        assert all(c.period == 20 for c in comps)

    def test_unsupported_entry_rejected(self):
        with pytest.raises(ModelError):
            as_components([42])  # type: ignore[list-item]

    def test_total_utilization(self):
        comps = as_components(TaskSet.of((1, 2, 4), (1, 4, 4)))
        assert total_utilization(comps) == Fraction(1, 2)

    def test_total_utilization_one_shots_add_zero(self):
        comps = [component(1, 4, 4), DemandComponent(wcet=5, first_deadline=9)]
        assert total_utilization(comps) == Fraction(1, 4)
        comps.append(component(3, 6, 4))
        assert total_utilization(comps) == 1 and type(total_utilization(comps)) is int
        assert total_utilization([DemandComponent(wcet=5, first_deadline=9)]) == 0

    def test_total_utilization_matches_component_rates(self):
        comps = [
            component(3, 5, 7),
            component(Fraction(1, 3), 2, Fraction(5, 2)),
            component(0.5, 4, 9),
            DemandComponent(wcet=2, first_deadline=3),
        ]
        expected = sum((Fraction(c.utilization) for c in comps), Fraction(0))
        assert total_utilization(comps) == expected
        assert total_utilization([]) == 0 and type(total_utilization([])) is int


class TestUtilization:
    def test_rate_is_not_built_at_construction(self):
        c = component(3, 5, 6)
        assert "utilization" not in vars(c)
        assert c.utilization == Fraction(1, 2)
        assert "utilization" not in vars(c)

    @pytest.mark.parametrize(
        "c, t, expected",
        [
            (3, 6, Fraction(1, 2)),
            (4, 2, 2),
            (Fraction(1, 2), Fraction(1, 4), 2),
            (0.5, 3, Fraction(1, 6)),
        ],
    )
    def test_value_and_type(self, c, t, expected):
        rate = component(c, 5, t).utilization
        assert rate == expected and type(rate) is type(expected)

    def test_one_shot_rate_is_int_zero(self):
        rate = DemandComponent(wcet=3, first_deadline=5).utilization
        assert rate == 0 and type(rate) is int

    def test_rate_is_not_a_field(self):
        a = component()
        assert a == component() and hash(a) == hash(component())
        assert "utilization" not in repr(a)


class TestDemandFunctions:
    def test_dbf_matches_task(self):
        t = task(2, 6, 10)
        c = as_components([t])[0]
        for interval in range(0, 60):
            assert c.dbf(interval) == t.dbf(interval)

    def test_jobs_up_to(self):
        c = component()  # deadlines 6, 16, 26...
        assert c.jobs_up_to(5) == 0
        assert c.jobs_up_to(6) == 1
        assert c.jobs_up_to(16) == 2
        assert c.jobs_up_to(25) == 2

    def test_deadline_at(self):
        c = component()
        assert c.deadline_at(0) == 6
        assert c.deadline_at(2) == 26
        with pytest.raises(ValueError):
            c.deadline_at(-1)
        one_shot = DemandComponent(wcet=1, first_deadline=4)
        assert one_shot.deadline_at(0) == 4
        with pytest.raises(ValueError):
            one_shot.deadline_at(1)

    def test_deadlines_iterator(self):
        assert list(component().deadlines(30)) == [6, 16, 26]


class TestEnvelope:
    """The linear envelope underlies Lemma 6 and both new tests."""

    def test_envelope_at_corners_equals_dbf(self):
        c = component()
        for k in range(5):
            corner = c.deadline_at(k)
            assert c.linear_envelope(corner) == c.dbf(corner)

    @given(st.integers(min_value=0, max_value=500))
    def test_envelope_dominates_dbf(self, interval):
        c = component(c=3, d0=7, t=11)
        assert c.linear_envelope(interval) >= c.dbf(interval)

    @given(st.integers(min_value=7, max_value=500))
    def test_lemma6_error_is_fractional_part(self, interval):
        c = component(c=3, d0=7, t=11)
        err = c.approximation_error(interval)
        expected = Fraction((interval - 7) % 11, 11) * 3
        assert err == expected

    def test_error_zero_before_first_deadline(self):
        assert component().approximation_error(3) == 0

    def test_one_shot_envelope_exact(self):
        c = DemandComponent(wcet=4, first_deadline=9)
        assert c.linear_envelope(9) == 4
        assert c.linear_envelope(100) == 4
        assert c.approximation_error(50) == 0
