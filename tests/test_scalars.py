"""Exact Gaussian-rational scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halfsphere.algebra import NCPoly
from halfsphere.projective import PExpr
from halfsphere.scalars import (
    DEFAULT_EPSILON,
    EC_I,
    EC_ONE,
    EC_ZERO,
    ExactComplex,
    approx_eq,
    approx_zero,
    exact_sqrt,
)
from halfsphere.sphere_ring import ZMonomial, ZPoly

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars = st.builds(ExactComplex, rationals, rationals)


def test_construction_coerces_and_freezes():
    c = ExactComplex(1, Fraction(1, 2))
    assert c.re == Fraction(1) and c.im == Fraction(1, 2)
    with pytest.raises(Exception):
        c.re = Fraction(2)


def test_basic_identities():
    assert EC_ONE * EC_I == EC_I
    assert EC_I * EC_I == -EC_ONE
    assert EC_ZERO.is_zero()
    assert (EC_ONE - EC_ONE).is_zero()
    assert EC_I.conj() == -EC_I


def test_division():
    c = ExactComplex(Fraction(3, 5), Fraction(4, 5))
    assert c * c.conj() == ExactComplex(c.modulus_squared())
    assert c / c == EC_ONE
    assert (EC_ONE / c) * c == EC_ONE


def test_pow():
    c = ExactComplex(Fraction(1), Fraction(1))
    assert c ** 2 == ExactComplex(0, 2)
    assert c ** 0 == EC_ONE
    assert EC_I ** 4 == EC_ONE


def test_to_complex_and_str():
    c = ExactComplex(Fraction(1, 2), Fraction(-3, 4))
    assert c.to_complex() == complex(0.5, -0.75)
    assert "1/2" in str(c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scalars)
def test_conjugation_and_modulus(a):
    assert a.conj().conj() == a
    assert (a * a.conj()).re == a.modulus_squared()
    assert (a * a.conj()).im == 0
    assert a.is_real() == (a.im == 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rationals)
def test_exact_sqrt_of_squares(q):
    assert exact_sqrt(q * q) == abs(q)


def test_exact_sqrt_rejects_non_squares():
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(-1)) is None
    assert exact_sqrt(Fraction(4, 9)) == Fraction(2, 3)


def test_approx_helpers():
    assert approx_eq(1.0, 1.0 + DEFAULT_EPSILON / 2)
    assert not approx_eq(1.0, 1.1)
    assert approx_zero(1e-12)
    assert not approx_zero(1e-3)


# -- the shared sparse core, through each of its subclasses at n = 2 ----

SPARSE_KEYS = {
    NCPoly: st.lists(st.integers(1, 2), max_size=3).map(tuple),
    ZPoly: st.lists(st.integers(0, 2), min_size=4, max_size=4).map(
        lambda e: ZMonomial(e[:2], e[2:])
    ),
    # unsorted pair lists, so distinct inputs can merge into one key
    PExpr: st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), max_size=2).map(tuple),
}
small_scalars = st.builds(
    ExactComplex,
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
)


def sparse_strategy(cls):
    term = st.tuples(SPARSE_KEYS[cls], small_scalars)
    return st.lists(term, max_size=4).map(lambda ts: cls(2, dict(ts)))


@pytest.mark.parametrize("cls", list(SPARSE_KEYS), ids=lambda c: c.__name__)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_sparse_core_laws(cls, data):
    a, b, c = (data.draw(sparse_strategy(cls)) for _ in range(3))
    assert (a - a).terms == {}
    lhs, rhs = (a + b) * c, a * c + b * c
    assert lhs == rhs and hash(lhs) == hash(rhs)
    rebuilt = cls(2, dict(reversed(list(a.terms.items()))))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    for x in (a, b, c, a - a, lhs, rhs):
        assert not any(v.is_zero() for v in x.terms.values())
    assert all(cls.zero(2) != other.zero(2) for other in SPARSE_KEYS if other is not cls)
