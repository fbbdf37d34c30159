"""Weighted sphere-coordinate ring and its single-rule normal form."""

from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from halfsphere.errors import DimensionError
from halfsphere.representations import rational_unit_vector
from halfsphere.scalars import EC_ONE, ExactComplex
from halfsphere.sphere_ring import (
    ZPoly,
    compositions,
    monomial_degree,
    monomial_sort_key,
    reduced_monomials,
    sphere_relation,
)


def z(n, i):
    return ZPoly.generator(n, i)


def zb(n, i):
    return ZPoly.conj_generator(n, i)


# deterministic random ZPolys for property tests
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
exponents = st.integers(min_value=0, max_value=2)


def zpoly_strategy(n):
    mono = st.tuples(st.tuples(*[exponents] * n), st.tuples(*[exponents] * n))
    term = st.tuples(mono, st.builds(ExactComplex, rationals, rationals))
    return st.lists(term, min_size=1, max_size=4).map(
        lambda ts: ZPoly(n, {m: c for m, c in ts})
    )


def test_monomial_product_and_weight():
    m = ((1, 0), (0, 2))
    p = ZPoly(2, {m: EC_ONE})
    assert monomial_degree(m) == 3
    assert p.is_homogeneous_of_weight(-1)
    assert (p * p).terms == {((2, 0), (0, 4)): EC_ONE}
    assert (p * p).degree == 6
    assert p.tau() == ZPoly(2, {((0, 2), (1, 0)): EC_ONE})


def test_sort_key_is_degree_major():
    low = ((1, 0), (0, 0))
    high = ((1, 1), (1, 0))
    assert monomial_sort_key(low) < monomial_sort_key(high)
    # deglex with z_1 > z_1~ > z_2 > z_2~ within one degree
    assert monomial_sort_key(((0, 1), (0, 0))) < monomial_sort_key(((0, 0), (1, 0)))
    assert monomial_sort_key(((0, 0), (1, 0))) < monomial_sort_key(((1, 0), (0, 0)))


@pytest.mark.parametrize(
    "key",
    [
        ((-1, 0), (0, 0)),  # negative exponent of z_1
        ((0, 0), (0, -2)),  # negative exponent of z_2~
        ((1, 0, 0), (0, 0)),  # a too long
        ((1,), (1,)),  # both too short
    ],
)
def test_malformed_monomial_keys_fail_at_construction(key):
    with pytest.raises(DimensionError):
        ZPoly(2, {key: EC_ONE})


def test_relation_rewrites_to_zero():
    n = 3
    assert sphere_relation(n).reduce().is_zero()
    total = ZPoly.zero(n)
    for i in range(1, n + 1):
        total = total + z(n, i) * zb(n, i)
    assert (total - ZPoly.one(n)).reduce().is_zero()


def test_reduce_eliminates_z1_z1bar():
    n = 2
    p = (z(n, 1) * zb(n, 1)).reduce()
    assert p == (ZPoly.one(n) - z(n, 2) * zb(n, 2)).reduce()
    for a, b in p.terms:
        assert not (a[0] > 0 and b[0] > 0)


def test_reduce_is_idempotent_and_linear():
    n = 2
    p = z(n, 1) * zb(n, 1) * z(n, 2) + z(n, 1)
    r = p.reduce()
    assert r.reduce() == r
    q = zb(n, 1) * z(n, 1)
    assert (p + q).reduce() == (p.reduce() + q.reduce()).reduce()


def test_star_and_tau():
    n = 2
    p = ExactComplex(0, 1) * z(n, 1) * zb(n, 2)
    assert p.star() == ExactComplex(0, -1) * z(n, 2) * zb(n, 1)
    assert p.tau() == ExactComplex(0, 1) * z(n, 2) * zb(n, 1)
    assert p.star().star() == p
    assert p.tau().tau() == p


def test_is_homogeneous_of_weight():
    n = 2
    p = z(n, 1) + z(n, 1) * zb(n, 2) + ZPoly.one(n)
    assert p.is_homogeneous_of_weight(1) is False
    assert z(n, 1).is_homogeneous_of_weight(1)


def test_evaluation_exact_and_float():
    n = 2
    p = z(n, 1) * zb(n, 2) + ZPoly.one(n)
    c1 = ExactComplex(Fraction(3, 5))
    c2 = ExactComplex(0, Fraction(4, 5))
    v = p.evaluate([c1, c2])
    assert v == ExactComplex(1, Fraction(-12, 25))
    fv = p.evaluate([0.6, 0.8j])
    assert isinstance(fv, complex)
    assert abs(fv - v.to_complex()) < 1e-12


def test_reduction_preserves_evaluation_on_sphere():
    # the rewrite rule is the sphere relation, so on-sphere values are fixed
    n = 2
    p = z(n, 1) * zb(n, 1) * z(n, 2) * zb(n, 2)
    pt = [ExactComplex(Fraction(3, 5)), ExactComplex(0, Fraction(4, 5))]
    assert p.evaluate(pt) == p.reduce().evaluate(pt)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(zpoly_strategy(2), zpoly_strategy(2))
def test_reduce_respects_products(p, q):
    lhs = (p * q).reduce()
    rhs = (p.reduce() * q.reduce()).reduce()
    assert lhs == rhs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(zpoly_strategy(3))
def test_reduced_forms_have_no_redex(p):
    for a, b in p.reduce().terms:
        assert not (a[0] > 0 and b[0] > 0)


def test_compositions_count():
    assert len(list(compositions(3, 2))) == 4
    assert list(compositions(0, 2)) == [(0, 0)]


def test_reduced_monomials_enumeration():
    ms = list(reduced_monomials(2, 0, 2))
    # weight 0, degree <= 2, no z1 z1~ redex: 1, z1 z2~, z2 z1~, z2 z2~
    assert len(ms) == 4
    assert all(sum(a) == sum(b) and monomial_degree((a, b)) <= 2 for a, b in ms)
    odd = list(reduced_monomials(2, 1, 3))
    assert all(sum(a) - sum(b) == 1 for a, b in odd)


# -- independent oracles for the rewrite ---------------------------------

deep_exponents = st.integers(min_value=0, max_value=6)
small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def deep_monomials(n):
    return st.tuples(st.tuples(*[deep_exponents] * n), st.tuples(*[deep_exponents] * n))


def sphere_point(n, params):
    """An exact point of S^{2n-1} in C^n: real and imaginary parts interleaved."""
    xs = rational_unit_vector(params)
    return [ExactComplex(xs[2 * k], xs[2 * k + 1]) for k in range(n)]


def value_at(p, point):
    """sum c z^a conj(z)^b, computed from the terms alone."""
    total = ExactComplex()
    for (a, b), c in p.terms.items():
        for zk, ak, bk in zip(point, a, b):
            c = c * zk**ak * zk.conj() ** bk
        total = total + c
    return total


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_deep_reduce_leaves_no_redex_and_keeps_sphere_values(data):
    n = data.draw(st.sampled_from([2, 3, 4]))
    term = st.tuples(deep_monomials(n), st.builds(ExactComplex, small_rationals, small_rationals))
    p = ZPoly(n, dict(data.draw(st.lists(term, min_size=1, max_size=3))))
    params = data.draw(st.lists(small_rationals, min_size=2 * n - 1, max_size=2 * n - 1))
    r = p.reduce()
    assert all(a[0] == 0 or b[0] == 0 for a, b in r.terms)
    point = sphere_point(n, params)
    assert sum((zk.modulus_squared() for zk in point), Fraction(0)) == 1
    assert value_at(r, point) == value_at(p, point)


def multinomial_power(n, k):
    """(1 - sum_{i>=2} z_i z_i~)^k expanded by the multinomial theorem."""
    terms = {}
    for js in product(range(k + 1), repeat=n - 1):
        rest = k - sum(js)
        if rest < 0:
            continue
        coeff = factorial(k) // (factorial(rest) * prod(map(factorial, js)))
        pairs = (0,) + js
        terms[(pairs, pairs)] = ExactComplex((-1) ** sum(js) * coeff)
    return ZPoly(n, terms)


@pytest.mark.parametrize("k", range(11))
def test_power_of_leading_pair_is_multinomial(k):
    n = 4
    lead = (k,) + (0,) * (n - 1)
    reduced = ZPoly(n, {(lead, lead): EC_ONE}).reduce()
    assert reduced == multinomial_power(n, k)


# -- exact evaluation against the term-by-term oracle ---------------------


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_evaluate_matches_term_by_term_at_points_and_conjugates(data):
    # a wrongly keyed or stale per-point table shows as a mismatch between
    # the two passes, between z and conj(z), or after the table is evicted
    n = data.draw(st.sampled_from([2, 3, 4]))
    term = st.tuples(deep_monomials(n), st.builds(ExactComplex, small_rationals, small_rationals))
    polys = [
        ZPoly(n, dict(data.draw(st.lists(term, min_size=1, max_size=4))))
        for _ in range(2)
    ]
    params = st.lists(small_rationals, min_size=2 * n - 1, max_size=2 * n - 1)
    points = []
    for _ in range(data.draw(st.integers(1, 5))):
        point = sphere_point(n, data.draw(params))
        points += [point, [zk.conj() for zk in point]]
    want = [[value_at(p, point) for p in polys] for point in points]
    for _ in range(2):
        for point, values in zip(points, want):
            for p, value in zip(polys, values):
                assert p.evaluate(point) == value
