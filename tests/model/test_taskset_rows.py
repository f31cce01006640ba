"""Row storage of `TaskSet`: a set kept as ``(C, D, T, phase, name)``
rows behaves exactly like one built from `SporadicTask` objects.

The object path (``TaskSet([SporadicTask(*row), ...])``) is the
reference: equality and hash with names ignored, the sequence protocol,
every aggregate, the fingerprint, the demand components, the JSON
document and pickling must match it, and invalid rows must raise its
exception with its message.
"""

import json
import pickle
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.engine.context import fingerprint_of
from repro.model import ModelError, SporadicTask, TaskSet
from repro.model.components import as_components
from repro.model.serialization import (
    _tasks_from_entries,
    taskset_from_dict,
    taskset_to_dict,
)

AGGREGATES = (
    "utilization",
    "total_wcet",
    "max_deadline",
    "min_deadline",
    "max_period",
    "min_period",
    "period_ratio",
    "hyperperiod",
    "average_gap_ratio",
    "is_synchronous",
    "has_constrained_deadlines",
)


@contextmanager
def counted_tasks():
    """Count the `SporadicTask`s built inside the block."""
    built = []
    original = SporadicTask.__post_init__

    def counting(task):
        built.append(task)
        original(task)

    SporadicTask.__post_init__ = counting
    try:
        yield built
    finally:
        SporadicTask.__post_init__ = original


@st.composite
def integer_rows(draw, names=True):
    """Valid rows: some ``C = 0``, some ``D > T``, some phases and names
    (unique, as a set requires)."""
    count = draw(st.integers(0, 12))
    labels = draw(
        st.lists(
            st.sampled_from("abcdefghijkl"), min_size=count, max_size=count, unique=True
        )
    )
    rows = []
    for label in labels:
        period = draw(st.integers(1, 200))
        rows.append(
            (
                draw(st.integers(0, period)),
                draw(st.integers(1, 2 * period)),
                period,
                draw(st.sampled_from([0, 0, 3, 17])),
                draw(st.sampled_from(["", label])) if names else "",
            )
        )
    return rows


def from_objects(rows, name=""):
    return TaskSet([SporadicTask(*row) for row in rows], name=name)


def task_values(tasks):
    return [(t.wcet, t.deadline, t.period, t.phase, t.name) for t in tasks]


def outcome(build):
    try:
        return build(), None
    except (ModelError, TypeError, ValueError) as err:
        return None, (type(err), str(err))


@given(integer_rows(), st.sampled_from(["", "set"]))
def test_rows_behave_like_tasks(rows, name):
    with counted_tasks() as built:
        stored = TaskSet.from_rows(rows, name)
        fingerprint = fingerprint_of(stored)
        components = as_components(stored)
        document = json.dumps(taskset_to_dict(stored))
        aggregates = [getattr(stored, attribute) for attribute in AGGREGATES]
        unnamed = TaskSet.from_rows([row[:4] + ("",) for row in rows])
        assert stored == unnamed and hash(stored) == hash(unnamed)
        copy = pickle.loads(pickle.dumps(stored))
        assert not built  # none of the above reads a task
    reference = from_objects(rows, name)

    assert stored == reference and reference == stored
    assert hash(stored) == hash(reference) == hash(tuple(reference))
    assert len(stored) == len(reference)
    assert stored.name == reference.name == name
    assert stored.rows == reference.rows == tuple(rows)
    assert fingerprint == fingerprint_of(reference) == fingerprint_of(list(reference))
    expected = as_components(list(reference))
    assert components == expected
    assert [c.source for c in components] == [c.source for c in expected]
    assert aggregates == [getattr(reference, attribute) for attribute in AGGREGATES]
    assert document == json.dumps(
        {
            "format": "repro/taskset-v1",
            "name": name,
            "tasks": [
                {"name": t.name, "wcet": t.wcet, "deadline": t.deadline,
                 "period": t.period, "phase": t.phase}
                for t in reference
            ],
        }
    )
    assert copy == stored and copy.name == name and copy.rows == stored.rows
    assert task_values(copy) == task_values(reference)
    assert pickle.loads(pickle.dumps(reference)) == reference

    assert task_values(stored) == task_values(reference)
    for index in range(-len(rows), len(rows)):
        assert stored[index] == reference[index]
        assert stored[index] is stored[index]
    for part in (slice(1, None), slice(None, -1), slice(None, None, 2)):
        assert stored[part] == reference[part]
        assert stored[part].name == name
        assert task_values(stored[part]) == task_values(reference[part])


@given(integer_rows(names=False))
def test_of_on_plain_tuples_stores_rows(rows):
    triples = [row[:3] for row in rows]
    with counted_tasks() as built:
        stored = TaskSet.of(*triples)
        fingerprint = fingerprint_of(stored)
        document = taskset_to_dict(stored)
        utilization = stored.utilization
        assert not built
    reference = TaskSet.of(*[SporadicTask(*triple) for triple in triples])
    assert stored == reference
    assert fingerprint == fingerprint_of(list(reference))
    assert document == taskset_to_dict(reference)
    assert utilization == reference.utilization


@given(integer_rows(), st.sampled_from(["", "set"]))
def test_decoded_document_stores_rows(rows, name):
    document = taskset_to_dict(from_objects(rows, name))
    with counted_tasks() as built:
        decoded = taskset_from_dict(json.loads(json.dumps(document)))
        assert not built
    assert decoded.rows == tuple(rows)
    assert decoded.name == name


def test_fingerprint_labels_count_every_row():
    stored = TaskSet.of((0, 3, 4), (1, 5, 10))
    assert fingerprint_of(stored) == ((1, 5, 10, "tau2"),)


_bad_values = st.one_of(
    st.integers(-3, 0),
    st.booleans(),
    st.floats(-1, 5, allow_nan=False, allow_infinity=False),
    st.fractions(-1, 5, max_denominator=7),
)


@given(
    integer_rows(),
    st.integers(0, 3),
    _bad_values,
    st.data(),
)
def test_invalid_rows_raise_like_tasks(rows, field, value, data):
    """Negative, zero, bool, float and rational values (and duplicate
    names) take the object path: same value or same error."""
    if rows:
        at = data.draw(st.integers(0, len(rows) - 1))
        row = list(rows[at])
        row[field] = value
        rows[at] = tuple(row)
        if data.draw(st.booleans()):  # a duplicate name
            rows.append(rows[0][:4] + ("dup",))
            rows.append(rows[-1])
    stored, error = outcome(lambda: TaskSet.from_rows(rows))
    expected, expected_error = outcome(lambda: from_objects(rows))
    assert error == expected_error
    if error is None:
        assert task_values(stored) == task_values(expected)
        assert fingerprint_of(stored) == fingerprint_of(list(expected))
        assert stored.utilization == expected.utilization


@given(_bad_values, st.integers(0, 2))
def test_of_raises_like_tasks(value, field):
    triple = [2, 5, 10]
    triple[field] = value
    stored, error = outcome(lambda: TaskSet.of((1, 4, 8), tuple(triple)))
    expected, expected_error = outcome(
        lambda: TaskSet([SporadicTask(1, 4, 8), SporadicTask(*triple)])
    )
    assert error == expected_error
    if error is None:
        assert task_values(stored) == task_values(expected)


_document_values = st.one_of(
    st.integers(-2, 30),
    st.booleans(),
    st.floats(-1, 30, allow_nan=False, allow_infinity=False),
    st.sampled_from(["3/2", "4/2", "-1/3", "x", "1/0"]),
    st.none(),
)


_names = st.sampled_from(["", "a", "b", 3])
_entries = st.one_of(
    st.fixed_dictionaries(
        {"wcet": _document_values, "deadline": _document_values,
         "period": _document_values},
        optional={"phase": _document_values, "name": _names},
    ),
    st.fixed_dictionaries(
        {},
        optional={"wcet": _document_values, "deadline": _document_values,
                  "period": _document_values, "name": _names},
    ),
    st.just([1, 2, 3]),
)


@given(st.lists(_entries, max_size=5))
def test_decoder_rows_and_objects_agree(entries):
    """Any document decodes like the per-task path did: same set or the
    same error, whichever storage the decoder picks."""
    document = {"format": "repro/taskset-v1", "name": "", "tasks": entries}
    decoded, error = outcome(lambda: taskset_from_dict(document))
    expected, expected_error = outcome(
        lambda: TaskSet(_tasks_from_entries(entries), name="")
    )
    assert error == expected_error
    if error is None:
        assert task_values(decoded) == task_values(expected)
        assert decoded.rows == expected.rows


def test_rational_rows_keep_the_object_path():
    rows = [(Fraction(1, 2), 4, 8, 0, "a"), (Fraction(6, 3), 5, 10, 0, "")]
    stored = TaskSet.from_rows(rows)
    assert stored.rows == ((Fraction(1, 2), 4, 8, 0, "a"), (2, 5, 10, 0, ""))
    assert type(stored.rows[1][0]) is int
    assert stored == from_objects(rows)
