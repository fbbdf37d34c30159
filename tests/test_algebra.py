"""Crossed-product model: pi, canonical forms, gamma, grading, lifting."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from halfsphere.algebra import (
    CrossedElem,
    NCPoly,
    nc_equal,
    nc_lift,
    pi,
    sum_of_squares,
)
from halfsphere.scalars import EC_ONE, ExactComplex
from halfsphere.sphere_ring import ZMonomial, ZPoly


def v(n, i):
    return NCPoly.generator(n, i)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def ncpoly_strategy(n, max_len=4):
    word = st.lists(st.integers(1, n), min_size=0, max_size=max_len).map(tuple)
    term = st.tuples(word, st.builds(ExactComplex, rationals, rationals))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda ts: NCPoly(n, {w: c for w, c in ts})
    )


# -- frozen small values ------------------------------------------------


def test_pi_word_alternates_conjugation():
    x = pi(NCPoly.from_word(3, (1, 2)))
    assert x.f1.is_zero()
    assert x.f0 == ZPoly(3, {ZMonomial((1, 0, 0), (0, 1, 0)): EC_ONE})


def test_pi_of_word_star():
    n = 3
    x = pi(v(n, 1) * v(n, 2)).star()
    assert x.f0 == ZPoly(n, {ZMonomial((0, 1, 0), (1, 0, 0)): EC_ONE})


def test_pi_square_reduces():
    n = 2
    x = pi(v(n, 1) * v(n, 1))
    z2 = ZPoly.generator(n, 2)
    z2b = ZPoly.conj_generator(n, 2)
    assert x.f0 == (ZPoly.one(n) - z2 * z2b)
    assert x.f1.is_zero()


def test_odd_word_lands_in_odd_part():
    n = 2
    x = pi(v(n, 2))
    assert x.f0.is_zero()
    assert x.f1 == ZPoly.generator(n, 2)


# -- defining relations -------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sum_of_squares_is_unit(n):
    total = NCPoly.zero(n)
    for i in range(1, n + 1):
        total = total + v(n, i) * v(n, i)
    assert pi(total) == CrossedElem.unit(n)


@pytest.mark.parametrize("n", [2, 3])
def test_half_commutation(n):
    for i, j, k in product(range(1, n + 1), repeat=3):
        p = v(n, i) * v(n, j) * v(n, k) - v(n, k) * v(n, j) * v(n, i)
        assert pi(p).is_zero()


def test_generators_self_adjoint():
    n = 3
    for i in range(1, n + 1):
        assert pi(v(n, i)).star() == pi(v(n, i))


# -- homomorphism properties --------------------------------------------


@settings(max_examples=50, deadline=None, derandomize=True)
@given(ncpoly_strategy(3), ncpoly_strategy(3))
def test_pi_is_multiplicative_and_additive(p, q):
    assert pi(p * q) == pi(p) * pi(q)
    assert pi(p + q) == pi(p) + pi(q)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(ncpoly_strategy(3))
def test_pi_respects_star(p):
    assert pi(p.star()) == pi(p).star()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(ncpoly_strategy(2), ncpoly_strategy(2), ncpoly_strategy(2))
def test_crossed_product_associative(p, q, r):
    x, y, w = pi(p), pi(q), pi(r)
    assert (x * y) * w == x * (y * w)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(ncpoly_strategy(2), ncpoly_strategy(2))
def test_star_antimultiplicative(p, q):
    x, y = pi(p), pi(q)
    assert (x * y).star() == y.star() * x.star()


# -- grading, nu, gamma -------------------------------------------------


def test_grade_components_sum_back():
    n = 3
    x = pi(v(n, 1) * v(n, 2) + v(n, 3))
    even, odd = x.grade()
    assert even + odd == x
    assert even == x.even_part() and odd == x.odd_part()
    assert even.f1.is_zero() and odd.f0.is_zero()


def test_nu_is_an_involution_fixing_even():
    n = 2
    x = pi(v(n, 1) * v(n, 2) + v(n, 2))
    assert x.nu().nu() == x
    assert x.even_part().nu() == x.even_part()
    assert x.odd_part().nu() == -x.odd_part()


def test_gamma_against_defining_sum():
    n = 3
    rng = Random(7)
    for _ in range(25):
        words = [
            tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(1, 3))
        ]
        p = NCPoly(
            n,
            {
                w: ExactComplex(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                for w in words
            },
        )
        x = pi(p)
        total = CrossedElem.zero(n)
        for i in range(1, n + 1):
            g = CrossedElem.generator(n, i)
            total = total + g * x * g
        assert x.gamma() == total


def test_gamma_uses_sum_of_squares_twist():
    n = 2
    s = sum_of_squares(n)
    x = pi(v(n, 1))
    assert x.gamma() == CrossedElem(ZPoly.zero(n), s * x.f1.tau())


# -- lifting -------------------------------------------------------------


@settings(max_examples=50, deadline=None, derandomize=True)
@given(ncpoly_strategy(3))
def test_lift_section_of_pi(p):
    x = pi(p)
    assert pi(nc_lift(x)) == x


def test_lift_of_even_monomial_is_even_word():
    n = 2
    x = pi(v(n, 1) * v(n, 2))
    lifted = nc_lift(x)
    assert all(len(w) % 2 == 0 for w in lifted.terms)


def test_nc_equal_on_half_commutation():
    n = 3
    assert nc_equal(v(n, 1) * v(n, 2) * v(n, 3), v(n, 3) * v(n, 2) * v(n, 1))
    assert not nc_equal(v(n, 1) * v(n, 2), v(n, 2) * v(n, 1))


def test_degree_and_zero():
    n = 2
    assert NCPoly.zero(n).degree == 0
    assert (v(n, 1) * v(n, 2)).degree == 2
    assert CrossedElem.zero(n).is_zero()
