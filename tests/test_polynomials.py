from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repzoo.polynomials import (
    MalformedSampleError,
    RationalPoly,
    interpolate,
)

x = RationalPoly.x()
half = Fraction(1, 2)


def test_eval_degree_one():
    assert (x + 1)(3) == 4


def test_eval_zero_poly():
    assert RationalPoly.zero()(17) == 0


def test_eval_half_x_x_minus_one():
    # multiplicity polynomial of the dimension-(q-1) row, at q = 5
    p = half * x * (x - 1)
    assert p(5) == 10


def test_interpolate_collinear():
    assert interpolate([(2, 3), (3, 4), (5, 6)]) == x + 1


def test_interpolate_quadratic_counts():
    assert interpolate([(2, 1), (3, 3), (5, 10)]) == half * x * (x - 1)


def test_interpolate_constant():
    assert interpolate([(7, 42)]) == RationalPoly((42,))


def test_interpolate_duplicate_argument_rejected():
    with pytest.raises(MalformedSampleError):
        interpolate([(2, 1), (2, 5)])


def test_canonical_no_trailing_zeros():
    p = RationalPoly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert (p - p).coeffs == ()


def test_exact_division():
    assert (x * x - 1).exact_div(x - 1) == x + 1
    with pytest.raises(ValueError):
        (x * x - 1).exact_div(x - 2)


def test_json_round_trip():
    p = half * x * x - 3 * x + Fraction(7, 3)
    assert RationalPoly(Fraction(s) for s in p.to_json()) == p
    assert p.to_json() == ["7/3", "-3/1", "1/2"]


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=20
)


@given(
    st.lists(
        st.tuples(st.integers(min_value=-30, max_value=30), rationals),
        min_size=1,
        max_size=6,
        unique_by=lambda t: t[0],
    )
)
def test_interpolation_round_trip(points):
    poly = interpolate(points)
    assert poly.degree < len(points)
    for arg, val in points:
        assert poly(arg) == val


@given(
    st.lists(rationals, max_size=5),
    st.lists(rationals, max_size=5),
    rationals,
)
def test_ring_axioms_and_exact_eval(a_coeffs, b_coeffs, point):
    a, b = RationalPoly(a_coeffs), RationalPoly(b_coeffs)
    assert (a + b)(point) == a(point) + b(point)
    assert (a * b)(point) == a(point) * b(point)
    assert not (a * b).coeffs or (a * b).coeffs[-1] != 0


def test_equal_polynomials_hash_equal():
    a = RationalPoly([Fraction(2, 4), 3, Fraction(-6, 9)])
    b = RationalPoly([half, Fraction(6, 2), Fraction(-2, 3), 0])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, a + 0, x * 0 + a}) == 1
    assert len({x, x + 1, x + half, 2 * x}) == 4
