"""Point classification, theta/phi representations, orbits, decomposition."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from halfsphere.algebra import NCPoly, pi
from halfsphere.errors import PreconditionError
from halfsphere.representations import (
    REAL,
    REGULAR,
    TORUS_REAL,
    Mat2,
    SpherePoint,
    character,
    classify_point,
    commutant_dimension,
    decompose_nonregular,
    is_irreducible,
    orbit_equivalent,
    phi_rep,
    rational_unit_vector,
    sample_points,
    sample_real_point,
    sample_regular_point,
    sample_torus_real_point,
    theta,
)
from halfsphere.scalars import EC_I, ExactComplex


def ec(a, b=0):
    return ExactComplex(Fraction(a), Fraction(b))


def pt(*pairs):
    return SpherePoint.from_exact([ec(a, b) for a, b in pairs])


REGULAR_PT = pt((Fraction(3, 5), 0), (0, Fraction(4, 5)))
TORUS_PT = pt((0, Fraction(3, 5)), (0, Fraction(4, 5)))
REAL_PT = pt((Fraction(3, 5), 0), (Fraction(4, 5), 0))


def test_point_validation():
    with pytest.raises(PreconditionError):
        SpherePoint.from_exact([ec(1), ec(1)])
    SpherePoint.from_floats([0.6, 0.8])
    with pytest.raises(PreconditionError):
        SpherePoint.from_floats([0.6, 0.9])


def test_classification_frozen_cases():
    assert classify_point(REAL_PT).tag == REAL
    cls = classify_point(TORUS_PT)
    assert cls.tag == TORUS_REAL
    assert abs(cls.witness - (-1j)) < 1e-12
    assert classify_point(REGULAR_PT).tag == REGULAR


def test_classification_float_path():
    z = SpherePoint.from_floats([0.6, 0.8j])
    assert classify_point(z).tag == REGULAR
    y = SpherePoint.from_floats([0.6, 0.8])
    assert classify_point(y).tag == REAL


def test_theta_of_generator():
    x = theta(REGULAR_PT, pi(NCPoly.generator(2, 1)))
    assert x.a == ec(0) and x.d == ec(0)
    assert x.b == ec(Fraction(3, 5)) and x.c == ec(Fraction(3, 5))


def test_theta_star_homomorphism_at_fixed_point():
    n = 2
    rng = Random(3)
    for _ in range(10):
        words = [tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3)))]
        pe = NCPoly(n, {w: ec(rng.randint(-2, 2), rng.randint(-2, 2)) for w in words})
        qe = NCPoly.from_word(n, (rng.randint(1, n), rng.randint(1, n)))
        x, y = pi(pe), pi(qe)
        assert theta(REGULAR_PT, x * y).eq(theta(REGULAR_PT, x) * theta(REGULAR_PT, y))
        assert theta(REGULAR_PT, x.star()).eq(theta(REGULAR_PT, x).adjoint())


def test_phi_rep_real_only():
    x = pi(NCPoly.generator(2, 1))
    assert phi_rep(REAL_PT, x) == ec(Fraction(3, 5))
    with pytest.raises(PreconditionError):
        phi_rep(REGULAR_PT, x)


def test_character_is_trace():
    x = pi(NCPoly.from_word(2, (1, 1)))
    assert character(REGULAR_PT, x) == theta(REGULAR_PT, x).trace()


def test_commutant_dimensions():
    assert commutant_dimension(REGULAR_PT) == 1
    assert commutant_dimension(TORUS_PT) == 2
    assert is_irreducible(REGULAR_PT)
    assert not is_irreducible(TORUS_PT)
    assert not is_irreducible(REAL_PT)


def test_orbit_equivalence():
    assert orbit_equivalent(REGULAR_PT, REGULAR_PT.scale(EC_I))
    assert orbit_equivalent(REGULAR_PT, REGULAR_PT.conjugate())
    other = pt((Fraction(5, 13), 0), (0, Fraction(12, 13)))
    assert not orbit_equivalent(REGULAR_PT, other)


def test_decompose_torus_real_exact():
    y, ym = decompose_nonregular(TORUS_PT)
    assert y.exact
    coords = [c.re for c in y.coords]
    assert sorted(map(abs, coords)) == [Fraction(3, 5), Fraction(4, 5)]
    assert ym == y.negate()
    with pytest.raises(PreconditionError):
        decompose_nonregular(REGULAR_PT)


def test_decompose_real_point():
    y, ym = decompose_nonregular(REAL_PT)
    assert y == REAL_PT and ym == REAL_PT.negate()


def test_eigenvalues_match_characters_at_torus_point():
    n = 2
    pe = NCPoly.from_word(n, (1, 2)) + NCPoly.from_word(n, (2, 1))
    x = pi(pe + pe.star())
    y, ym = decompose_nonregular(TORUS_PT)
    eig = theta(TORUS_PT, x).eigenvalues()
    want = {(v.re, v.im) for v in (phi_rep(y, x), phi_rep(ym, x))}
    assert {(v.re, v.im) for v in eig} == want


def test_mat2_eigenvalues_exact_and_float():
    m = Mat2(ec(2), ec(0), ec(0), ec(3))
    assert set(m.eigenvalues()) == {ec(2), ec(3)}
    f = Mat2(0.0, 1.0, 1.0, 0.0)
    vals = sorted(v.real for v in f.eigenvalues())
    assert abs(vals[0] + 1) < 1e-12 and abs(vals[1] - 1) < 1e-12


def test_rational_unit_vector():
    xs = rational_unit_vector([Fraction(1, 2), Fraction(-1, 3)])
    assert sum(x * x for x in xs) == 1
    assert all(isinstance(x, Fraction) for x in xs)


def test_sampling_classes_forced():
    rng = Random(11)
    for _ in range(5):
        assert classify_point(sample_real_point(3, rng)).tag == REAL
        assert classify_point(sample_torus_real_point(3, rng)).tag == TORUS_REAL
        assert classify_point(sample_regular_point(3, rng)).tag == REGULAR


def test_sample_regular_needs_two_dims():
    with pytest.raises(PreconditionError):
        sample_regular_point(1, Random(0))


def test_sample_points_mixture():
    rng = Random(5)
    pts = sample_points(2, rng)
    tags = [classify_point(z).tag for z in pts]
    assert tags.count(REAL) == 8  # 4 base points plus negations
    assert tags.count(TORUS_REAL) == 2
    assert tags.count(REGULAR) == 4


def test_scale_validates():
    with pytest.raises(PreconditionError):
        REGULAR_PT.scale(ec(2))
    with pytest.raises(PreconditionError):
        REGULAR_PT.scale(0.5j)  # exact point needs an exact scalar


# -- multiplicativity at exact sphere points ------------------------------

small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def ncpolys(n):
    word = st.lists(st.integers(1, n), max_size=4).map(tuple)
    term = st.tuples(word, st.builds(ExactComplex, small_rationals, small_rationals))
    return st.lists(term, min_size=1, max_size=3).map(lambda ts: NCPoly(n, dict(ts)))


def unit_point(params, n):
    """An exact point of S^{2n-1}: real and imaginary parts from one rational unit vector."""
    xs = rational_unit_vector(params)
    return SpherePoint.from_exact([ExactComplex(xs[2 * k], xs[2 * k + 1]) for k in range(n)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_theta_and_phi_are_multiplicative_at_exact_points(data):
    n = data.draw(st.sampled_from([2, 3]))
    a, b = data.draw(ncpolys(n)), data.draw(ncpolys(n))
    params = st.lists(small_rationals, min_size=2 * n - 1, max_size=2 * n - 1)
    points = [unit_point(data.draw(params), n) for _ in range(2)]
    points += [z.conjugate() for z in points]
    y = SpherePoint.from_exact(
        [ExactComplex(x) for x in rational_unit_vector(data.draw(params)[: n - 1])]
    )
    pa, pb = pi(a), pi(b)
    # each image is evaluated twice, at z and at conj(z), in varying order
    for _ in range(2):
        for z in points:
            product = theta(z, pa) * theta(z, pb)
            assert theta(z, pi(a * b)).entries() == product.entries()
            assert theta(z, pa * pb).entries() == product.entries()
        assert phi_rep(y, pi(a * b)) == phi_rep(y, pa) * phi_rep(y, pb)
        assert phi_rep(y, pa * pb) == phi_rep(y, pa) * phi_rep(y, pb)
