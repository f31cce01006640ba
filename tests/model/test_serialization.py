"""Unit tests for JSON round-tripping of task sets and systems."""

import enum
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import (
    ModelError,
    SporadicTask,
    TaskSet,
    dump_system,
    dump_taskset,
    dumps_system,
    dumps_taskset,
    load_any,
    load_system,
    load_taskset,
    loads_system,
    loads_taskset,
    system_from_dict,
    system_to_dict,
    task,
    taskset_from_dict,
    taskset_to_dict,
)
from repro.model.serialization import _encode_time, decode_value
from repro.partition import PartitionedSystem, Platform


class TestRoundTrip:
    def test_integer_set(self):
        ts = TaskSet.of((2, 6, 10), (3, 11, 16)).renamed("demo")
        again = loads_taskset(dumps_taskset(ts))
        assert again == ts
        assert again.name == "demo"

    def test_fraction_parameters_survive_exactly(self):
        ts = TaskSet([task(Fraction(1, 3), Fraction(5, 7), 2, name="frac")])
        again = loads_taskset(dumps_taskset(ts))
        assert again[0].wcet == Fraction(1, 3)
        assert again[0].deadline == Fraction(5, 7)

    def test_phase_preserved(self):
        ts = TaskSet([task(1, 2, 3, phase=7)])
        assert loads_taskset(dumps_taskset(ts))[0].phase == 7

    def test_file_round_trip(self, tmp_path):
        ts = TaskSet.of((1, 2, 3))
        path = tmp_path / "set.json"
        dump_taskset(ts, path)
        assert load_taskset(path) == ts


_TIME_FIELDS = ["wcet", "deadline", "period", "phase"]


class TestValidation:
    def test_requires_tasks_key(self):
        with pytest.raises(ModelError):
            taskset_from_dict({"format": "repro/taskset-v1"})

    def test_rejects_unknown_format(self):
        with pytest.raises(ModelError, match="format"):
            taskset_from_dict({"format": "other/v9", "tasks": []})

    @pytest.mark.parametrize("field", _TIME_FIELDS)
    @pytest.mark.parametrize("bad", ["not-a-number", "1/0", "", None, [1]])
    def test_rejects_bad_time_strings(self, field, bad):
        doc = taskset_to_dict(TaskSet.of((1, 2, 3)))
        doc["tasks"][0][field] = bad
        with pytest.raises(ModelError) as err:
            taskset_from_dict(doc)
        assert str(err.value) == f"invalid time value {bad!r}"

    @pytest.mark.parametrize("field", _TIME_FIELDS)
    @pytest.mark.parametrize("bad", [True, False])
    def test_rejects_bool_time(self, field, bad):
        doc = taskset_to_dict(TaskSet.of((1, 2, 3)))
        doc["tasks"][0][field] = bad
        with pytest.raises(ModelError) as err:
            taskset_from_dict(doc)
        assert str(err.value) == f"invalid time value {bad!r}"

    def test_float_times_accepted(self):
        doc = taskset_to_dict(TaskSet.of((1, 2, 3)))
        doc["tasks"][0]["wcet"] = 0.5
        ts = taskset_from_dict(doc)
        assert ts[0].wcet == Fraction(1, 2)

    @pytest.mark.parametrize(
        "dropped, named",
        [
            (["period"], "'period'"),
            (["wcet", "period"], "'wcet', 'period'"),
            (["deadline", "wcet", "period"], "'wcet', 'deadline', 'period'"),
        ],
    )
    def test_missing_task_fields_named_in_error(self, dropped, named):
        doc = taskset_to_dict(TaskSet.of((1, 2, 3), (1, 4, 5)))
        for key in dropped:
            del doc["tasks"][1][key]
        with pytest.raises(ModelError) as err:
            taskset_from_dict(doc)
        assert str(err.value) == f"task entry 1 is missing {named}"


def demo_system(assignment=(0, 1, 0)) -> PartitionedSystem:
    tasks = TaskSet.of((2, 6, 10), (3, 11, 16), (5, 25, 25)).renamed("demo")
    return PartitionedSystem(tasks, Platform(2, name="ecu"), assignment)


class TestSystemRoundTrip:
    def test_full_system(self):
        system = demo_system()
        again = loads_system(dumps_system(system))
        assert again == system
        assert again.platform.name == "ecu"
        assert again.tasks.name == "demo"

    def test_partial_assignment_with_nulls(self):
        system = demo_system(assignment=(0, None, 1))
        again = loads_system(dumps_system(system))
        assert again.assignment == (0, None, 1)
        assert again.unassigned == (1,)

    def test_assignment_key_is_optional(self):
        doc = system_to_dict(demo_system())
        del doc["assignment"]
        again = system_from_dict(doc)
        assert again.assignment == (None, None, None)

    def test_fraction_times_survive_exactly(self):
        tasks = TaskSet([task(Fraction(1, 3), Fraction(5, 7), 2, name="f")])
        system = PartitionedSystem(tasks, Platform(3), [2])
        again = loads_system(dumps_system(system))
        assert again.tasks[0].wcet == Fraction(1, 3)
        assert again.tasks[0].deadline == Fraction(5, 7)
        assert again.assignment == (2,)

    def test_file_round_trip_and_load_any(self, tmp_path):
        system = demo_system()
        path = tmp_path / "system.json"
        dump_system(system, path)
        assert load_system(path) == system
        assert load_any(path) == system

    def test_load_any_dispatches_tasksets_too(self, tmp_path):
        ts = TaskSet.of((1, 2, 3))
        path = tmp_path / "set.json"
        dump_taskset(ts, path)
        loaded = load_any(path)
        assert isinstance(loaded, TaskSet)
        assert loaded == ts

    def test_verdicts_reproduce_after_round_trip(self):
        from repro.partition import verify_partition

        system = demo_system(assignment=(0, 0, 1))
        again = loads_system(dumps_system(system))
        before = verify_partition(system, method="exact")
        after = verify_partition(again, method="exact")
        assert before.ok == after.ok
        assert [v.exact.iterations for v in before.cores if v.exact] == [
            v.exact.iterations for v in after.cores if v.exact
        ]


class TestSystemValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(ModelError, match="must be a dict"):
            system_from_dict([1, 2, 3])

    def test_rejects_missing_or_wrong_format(self):
        doc = system_to_dict(demo_system())
        del doc["format"]
        with pytest.raises(ModelError, match="unsupported system format"):
            system_from_dict(doc)
        doc["format"] = "repro/taskset-v1"
        with pytest.raises(ModelError, match="repro/system-v1"):
            system_from_dict(doc)

    def test_requires_platform_with_cores(self):
        doc = system_to_dict(demo_system())
        del doc["platform"]
        with pytest.raises(ModelError, match="'platform' object"):
            system_from_dict(doc)
        doc["platform"] = {"name": "no-cores"}
        with pytest.raises(ModelError, match="'cores'"):
            system_from_dict(doc)

    def test_platform_cores_validated(self):
        doc = system_to_dict(demo_system())
        doc["platform"]["cores"] = 0
        with pytest.raises(ModelError, match="at least one core"):
            system_from_dict(doc)
        doc["platform"]["cores"] = "2"
        with pytest.raises(ModelError, match="must be an int"):
            system_from_dict(doc)

    def test_requires_tasks(self):
        doc = system_to_dict(demo_system())
        del doc["tasks"]
        with pytest.raises(ModelError, match="'tasks' list"):
            system_from_dict(doc)
        doc["tasks"] = {"not": "a list"}
        with pytest.raises(ModelError, match="must be a list"):
            system_from_dict(doc)

    def test_assignment_shape_validated(self):
        doc = system_to_dict(demo_system())
        doc["assignment"] = "0,1,0"
        with pytest.raises(ModelError, match="'assignment' must be a list"):
            system_from_dict(doc)
        doc["assignment"] = [0, 1]
        with pytest.raises(ModelError, match="covers 2 tasks"):
            system_from_dict(doc)
        doc["assignment"] = [0, 1, 7]
        with pytest.raises(ModelError, match="outside the platform"):
            system_from_dict(doc)

    def test_bad_time_value_inside_system(self):
        doc = system_to_dict(demo_system())
        doc["tasks"][1]["wcet"] = "three-ish"
        with pytest.raises(ModelError, match="invalid time value"):
            system_from_dict(doc)

    def test_loads_system_surfaces_json_errors_as_json_errors(self):
        with pytest.raises(json.JSONDecodeError):
            loads_system("{not json")


class TestExactValuesPastTheDigitLimit:
    """Exact values wider than the interpreter's 4300-digit int<->str
    limit: the utilization of a 3000-task set with periods up to 100,000
    has a denominator of ~4,700 digits."""

    def test_wide_result_round_trips(self):
        from repro.engine import analyze
        from repro.generation import generate_taskset
        from repro.model.serialization import result_from_dict, result_to_dict

        tasks = generate_taskset(n=3000, utilization=0.85, gap=(0.1, 0.4), seed=5)
        result = analyze(tasks, test="qpa")
        assert Fraction(tasks.utilization).denominator > 10**4300
        document = json.loads(json.dumps(result_to_dict(result)))
        assert result_from_dict(document) == result
        assert result_from_dict(document).details["utilization"] == tasks.utilization

    def test_frac_terms_past_the_cap_are_refused_fast(self):
        from repro.model.serialization import decode_value

        with pytest.raises(ValueError, match="digits"):
            decode_value({"$frac": "7" * 200_000 + "/3"})
        with pytest.raises(ValueError):
            decode_value({"$frac": "7" * 5_000 + "/x"})


# ---------------------------------------------------------------------------
# The codec's fast paths for plain integers, against the general paths
# ---------------------------------------------------------------------------


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


def reference_taskset_to_dict(tasks):
    """taskset_to_dict as it was before its int fast path."""
    return {
        "format": "repro/taskset-v1",
        "name": tasks.name,
        "tasks": [
            {
                "name": t.name,
                "wcet": _encode_time(t.wcet),
                "deadline": _encode_time(t.deadline),
                "period": _encode_time(t.period),
                "phase": _encode_time(t.phase),
            }
            for t in tasks
        ],
    }


def reference_decode_fraction(text):
    """The `$frac` decoder before its int fast path: ``Fraction(text)``,
    then the `Decimal` route past the digit limit."""
    try:
        exact = Fraction(text)
    except ValueError:
        if not isinstance(text, str):
            raise
        terms = text.strip().split("/")
        if len(terms) > 2 or not all(re.fullmatch(r"[+-]?[0-9]+", t) for t in terms):
            raise
        if max(map(len, terms)) > 50_000:
            raise ValueError("too many digits") from None
        exact = Fraction(*(int(Decimal(t)) for t in terms))
    return exact.numerator if exact.denominator == 1 else exact


def outcome(decode, text):
    """``(type, value)`` of a decode, or the type of what it raised."""
    try:
        value = decode(text)
    except Exception as err:  # the exception type is the outcome
        return type(err)
    return type(value), value


_FIELDS = st.one_of(
    st.integers(min_value=0, max_value=10**30),
    st.sampled_from(list(_Level)),
    st.integers(min_value=0, max_value=10**6).map(Fraction),  # integral
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**9),
)
_LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
_DIGITS = st.text("0123456789", min_size=1, max_size=30)  # leading zeros too
_TERMS = st.one_of(
    _DIGITS,
    st.tuples(st.sampled_from(["+", "-", " ", "\t", "0"]), _DIGITS).map("".join),
    st.tuples(_DIGITS, st.sampled_from([" ", "\n", "_0", ".5", "e3"])).map("".join),
    st.sampled_from(["0", "000", "", "٣", "²", "१२", "０", "x", "-0"]),  # non-ASCII digits
    st.sampled_from([_LIMIT - 1, _LIMIT, _LIMIT + 1]).filter(lambda n: n > 0).map(
        lambda n: "7" * n
    ),
)
_TEXTS = st.one_of(
    st.tuples(_TERMS, st.sampled_from(["/", " / ", "//"]), _TERMS).map("".join),
    _TERMS,
    st.tuples(_TERMS, st.just("/"), _TERMS, st.just("/"), _TERMS).map("".join),
)


class TestCodecFastPaths:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_FIELDS, _FIELDS, _FIELDS, _FIELDS), max_size=6))
    def test_taskset_to_dict_matches_the_reference(self, rows):
        tasks = []
        for index, fields in enumerate(rows):
            task = SporadicTask(1, 1, 1, 0, f"t{index}")
            for name, value in zip(("wcet", "deadline", "period", "phase"), fields):
                object.__setattr__(task, name, value)  # past the model's normalising
            tasks.append(task)
        tasks = TaskSet(tasks, name="fields")
        document = taskset_to_dict(tasks)
        expected = reference_taskset_to_dict(tasks)
        assert document == expected
        assert [list(map(type, t.values())) for t in document["tasks"]] == [
            list(map(type, t.values())) for t in expected["tasks"]
        ]

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(_TEXTS, st.integers(), st.lists(st.integers(), max_size=2)))
    def test_frac_decode_matches_the_reference(self, text):
        decode = lambda value: decode_value({"$frac": value})  # noqa: E731
        assert outcome(decode, text) == outcome(reference_decode_fraction, text)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int<->str limit"
    )
    @pytest.mark.parametrize("width", [600, 640, 641, 1000])
    @pytest.mark.parametrize("limit", [640, 0])
    def test_frac_decode_follows_the_current_digit_limit(self, width, limit):
        text = "7" * width + "/" + "3" * (width // 2)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            decode = lambda value: decode_value({"$frac": value})  # noqa: E731
            assert outcome(decode, text) == outcome(reference_decode_fraction, text)
        finally:
            sys.set_int_max_str_digits(saved)
