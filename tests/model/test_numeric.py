"""Unit tests for exact-arithmetic helpers."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.numeric import (
    as_float,
    ceil_div,
    exact_gcd,
    exact_lcm,
    floor_div,
    frac_part,
    is_exact,
    rate_sum,
    to_exact,
)
from repro.model import numeric


class TestToExact:
    def test_int_passthrough(self):
        assert to_exact(7) == 7
        assert type(to_exact(7)) is int

    def test_integral_fraction_becomes_int(self):
        assert to_exact(Fraction(6, 2)) == 3
        assert type(to_exact(Fraction(6, 2))) is int

    def test_proper_fraction_preserved(self):
        assert to_exact(Fraction(1, 3)) == Fraction(1, 3)

    def test_float_is_exact_binary_rational(self):
        assert to_exact(0.5) == Fraction(1, 2)
        # 0.1 is NOT 1/10 in binary, and the conversion must not pretend it is.
        assert to_exact(0.1) == Fraction(0.1)
        assert to_exact(0.1) != Fraction(1, 10)

    def test_integral_float_becomes_int(self):
        assert to_exact(4.0) == 4
        assert type(to_exact(4.0)) is int

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            to_exact(float("nan"))
        with pytest.raises(ValueError):
            to_exact(float("inf"))

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            to_exact("3")  # type: ignore[arg-type]


class TestIsExact:
    def test_values(self):
        assert is_exact(3)
        assert is_exact(Fraction(1, 2))
        assert not is_exact(0.5)
        assert not is_exact(True)  # bools are not times


class TestDivisions:
    @given(
        st.integers(min_value=-10_000, max_value=10_000),
        st.integers(min_value=1, max_value=500),
    )
    def test_int_floor_ceil_consistent_with_math(self, a, b):
        assert floor_div(a, b) == math.floor(a / Fraction(b))
        assert ceil_div(a, b) == math.ceil(a / Fraction(b))

    @given(
        st.fractions(min_value=-100, max_value=100),
        st.fractions(min_value=Fraction(1, 50), max_value=50),
    )
    def test_fraction_floor_ceil(self, a, b):
        assert floor_div(a, b) == math.floor(a / b)
        assert ceil_div(a, b) == math.ceil(a / b)

    def test_exact_boundaries(self):
        assert floor_div(6, 3) == 2
        assert ceil_div(6, 3) == 2
        assert ceil_div(7, 3) == 3


class TestFracPart:
    def test_values(self):
        assert frac_part(5) == 0
        assert frac_part(Fraction(7, 2)) == Fraction(1, 2)
        assert frac_part(Fraction(-1, 4)) == Fraction(3, 4)

    @given(st.fractions(min_value=-50, max_value=50))
    def test_range(self, x):
        f = frac_part(x)
        assert 0 <= f < 1
        assert (x - f) % 1 == 0


class TestLcmGcd:
    def test_int_lcm(self):
        assert exact_lcm(4, 6) == 12

    def test_fraction_lcm(self):
        # lcm(1/2, 1/3) = 1: smallest rational both divide integrally.
        assert exact_lcm(Fraction(1, 2), Fraction(1, 3)) == 1
        assert exact_lcm(Fraction(3, 2), Fraction(1, 2)) == Fraction(3, 2)

    def test_fraction_gcd(self):
        assert exact_gcd(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
        assert exact_gcd(4, 6) == 2

    @given(
        st.fractions(min_value=Fraction(1, 20), max_value=20),
        st.fractions(min_value=Fraction(1, 20), max_value=20),
    )
    def test_lcm_is_common_multiple(self, a, b):
        m = exact_lcm(a, b)
        assert (Fraction(m) / Fraction(a)).denominator == 1
        assert (Fraction(m) / Fraction(b)).denominator == 1


def _fraction_sum(pairs):
    total = Fraction(0)
    for c, t in pairs:
        total += Fraction(c) / Fraction(t)
    return total


_int_pairs = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 100_000)), max_size=60
)


class TestRateSum:
    @given(_int_pairs)
    def test_integer_path_equals_the_fraction_sum(self, pairs):
        got = rate_sum(pairs)
        expected = _fraction_sum(pairs)
        assert got == expected
        assert type(got) is (int if expected.denominator == 1 else Fraction)

    def test_integral_sum_is_an_int(self):
        assert rate_sum([(1, 2), (1, 4), (1, 4)]) == 1
        assert type(rate_sum([(1, 2), (1, 4), (1, 4)])) is int
        assert type(rate_sum([(1, 3), (1, 2)])) is Fraction

    def test_empty_sum_is_int_zero(self):
        assert rate_sum([]) == 0 and type(rate_sum([])) is int
        assert rate_sum(iter([])) == 0

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 9), st.fractions(0, 9, max_denominator=7)),
                st.one_of(
                    st.integers(1, 40),
                    st.fractions(Fraction(1, 7), 40, max_denominator=7),
                ),
            ).map(lambda pair: tuple(map(to_exact, pair))),
            max_size=12,
        )
    )
    def test_rational_parameters_take_the_fraction_fallback(self, pairs):
        expected = _fraction_sum(pairs)
        if any(type(v) is Fraction for pair in pairs for v in pair):
            real = numeric.math
            numeric.math = SimpleNamespace(lcm=None)  # the int path would fail
            try:
                got = rate_sum(pairs)
            finally:
                numeric.math = real
        else:
            got = rate_sum(pairs)
        assert got == expected
        assert type(got) is (int if expected.denominator == 1 else Fraction)


def test_as_float():
    assert as_float(Fraction(1, 2)) == 0.5
    assert as_float(3) == 3.0
