"""Constructor normalisation of the model: the plain-int fast path of
`SporadicTask` and `DemandComponent` against a reference that applies
`to_exact` to every field, as the model promises for every input."""

from enum import IntEnum
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.model import DemandComponent, ModelError, SporadicTask, TaskParameterError
from repro.model.numeric import to_exact


class _Level(IntEnum):
    ZERO = 0
    ONE = 1
    SEVEN = 7


_values = st.one_of(
    st.integers(-3, 40),
    st.booleans(),
    st.sampled_from(list(_Level)),
    st.floats(-3, 40, allow_nan=False, allow_infinity=False),
    st.fractions(-3, 40, max_denominator=9),
    st.integers(-3, 40).map(Fraction),  # integral Fractions
)


def _reference(fields, checks, error):
    """``to_exact`` on every field, then the range checks in field
    order: the exact fields, or the ``(type, message)`` of the error."""
    exact = [None if value is None else to_exact(value) for value in fields]
    for value, (label, ok) in zip(exact, checks):
        if value is not None and not ok(value):
            return None, (error, f"{label}, got {value}")
    return exact, None


def _outcome(build, fields):
    try:
        return build(*fields), None
    except (ModelError, TypeError, ValueError) as err:
        return None, (type(err), str(err))


def _same_object(built, exact, build, attributes):
    got = [getattr(built, name) for name in attributes]
    assert got == exact
    assert [type(v) for v in got] == [type(v) for v in exact]
    twin = build(*exact)
    assert built == twin and hash(built) == hash(twin)


_TASK_CHECKS = [
    ("wcet must be >= 0", lambda v: v >= 0),
    ("deadline must be > 0", lambda v: v > 0),
    ("period must be > 0", lambda v: v > 0),
    ("phase must be >= 0", lambda v: v >= 0),
]
_COMPONENT_CHECKS = [
    ("component wcet must be >= 0", lambda v: v >= 0),
    ("component first deadline must be > 0", lambda v: v > 0),
    ("component period must be > 0", lambda v: v > 0),
]


@given(_values, _values, _values, _values)
def test_task_fields_match_the_to_exact_reference(wcet, deadline, period, phase):
    fields = (wcet, deadline, period, phase)
    exact, expected_error = _reference(fields, _TASK_CHECKS, TaskParameterError)
    built, error = _outcome(SporadicTask, fields)
    assert error == expected_error
    if exact is not None:
        _same_object(
            built, exact, SporadicTask, ("wcet", "deadline", "period", "phase")
        )


@given(_values, _values, st.one_of(st.none(), _values))
def test_component_fields_match_the_to_exact_reference(wcet, first_deadline, period):
    fields = (wcet, first_deadline, period)
    exact, expected_error = _reference(fields, _COMPONENT_CHECKS, ModelError)
    built, error = _outcome(DemandComponent, fields)
    assert error == expected_error
    if exact is not None:
        _same_object(
            built, exact, DemandComponent, ("wcet", "first_deadline", "period")
        )

