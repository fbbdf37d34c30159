"""Approximate mode: float points through every representation function.

The expected values were recorded from the float code paths before exact and
approximate points shared one body; they are compared to 1e-12 relative
(|a - b| <= 1e-12 * max(1, |a|, |b|)).
"""

from fractions import Fraction
from random import Random

import pytest

from halfsphere.errors import PreconditionError
from halfsphere.linalg import echelon_from
from halfsphere.parsing import parse_expr, parse_model
from halfsphere.representations import (
    REAL,
    REGULAR,
    Mat2,
    SpherePoint,
    character,
    classify_point,
    commutant_dimension,
    decompose_nonregular,
    is_irreducible,
    orbit_equivalent,
    phi_rep,
    sample_real_point,
    sample_regular_point,
    sample_torus_real_point,
    theta,
)
from halfsphere.scalars import ExactComplex
from halfsphere.subspaces import IdealSpec, PairEF, classify_pair

TOL = 1e-12


def close(a, b):
    return abs(complex(a) - complex(b)) <= TOL * max(1.0, abs(complex(a)), abs(complex(b)))


def all_close(xs, ys):
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(close(x, y) for x, y in zip(xs, ys))


def _points():
    rng = Random(2024)
    return {
        "reg2": SpherePoint.from_floats([0.6, 0.8j]),
        "torus2": SpherePoint.from_floats([0.6j, 0.8j]),
        "real2": SpherePoint.from_floats([0.6, 0.8]),
        "reg3": sample_regular_point(3, rng).to_floats(),
        "torus3": sample_torus_real_point(3, rng).to_floats(),
        "real3": sample_real_point(3, rng).to_floats(),
        "oddtorus2": SpherePoint.from_floats([(0.6 + 0.8j) * 0.6, (0.6 + 0.8j) * 0.8]),
        "irr3": SpherePoint.from_floats([0.5, 0.5j, 0.5 + 0.5j]),
    }


POINTS = _points()

# point -> (class tag, witness, commutant dimension, decomposition y or None)
CLASSES = {
    "reg2": ("Regular", None, 1, None),
    "torus2": ("TorusReal", -1j, 2, (0.6, 0.8)),
    "real2": ("Real", None, 2, (0.6, 0.8)),
    "reg3": ("Regular", None, 1, None),
    "torus3": ("TorusReal", -1j, 2, (0.5238095238095238, 0.7619047619047619, -0.38095238095238093)),
    "real3": ("Real", None, 2, (0.46938775510204084, 0.7346938775510204, -0.4897959183673469)),
    "oddtorus2": ("TorusReal", 0.6 - 0.8000000000000002j, 2, (0.6000000000000001, 0.8000000000000003)),
    "irr3": ("Regular", None, 1, None),
}

# (point, expression) -> theta entries
THETA = {
    ("reg2", "v1"): (0j, 0.6, 0.6, 0j),
    ("reg2", "v1*v2"): (-0.48j, 0j, 0j, 0.48j),
    ("reg2", "(v1 + 2*v2)^3"): (0j, 1.7520000000000002 + 4.672000000000001j,
                                1.7520000000000002 - 4.672000000000001j, 0j),
    ("reg2", "(1/2+i)*v2*v1*v1 - v1^4"): (-0.12959999999999994, -0.2879999999999999 + 0.14399999999999996j,
                                          0.2879999999999999 - 0.14399999999999996j, -0.12959999999999994),
    ("reg2", "3"): (3, 0j, 0j, 3),
    ("torus2", "v1"): (0j, 0.6j, -0.6j, 0j),
    ("torus2", "v1*v2"): (0.48, 0j, 0j, 0.48),
    ("torus2", "(v1 + 2*v2)^3"): (0j, 10.648j, -10.648j, 0j),
    ("torus2", "(1/2+i)*v2*v1*v1 - v1^4"): (-0.12959999999999994, -0.2879999999999999 + 0.14399999999999996j,
                                            0.2879999999999999 - 0.14399999999999996j, -0.12959999999999994),
    ("torus2", "3"): (3, 0j, 0j, 3),
    ("real2", "v1"): (0j, 0.6, 0.6, 0j),
    ("real2", "v1*v2"): (0.48, 0j, 0j, 0.48),
    ("real2", "(v1 + 2*v2)^3"): (0j, 10.648, 10.648, 0j),
    ("real2", "(1/2+i)*v2*v1*v1 - v1^4"): (-0.12959999999999994, 0.14399999999999996 + 0.2879999999999999j,
                                           0.14399999999999996 + 0.2879999999999999j, -0.12959999999999994),
    ("real2", "3"): (3, 0j, 0j, 3),
    ("oddtorus2", "v1"): (0j, 0.36 + 0.48j, 0.36 - 0.48j, 0j),
    ("oddtorus2", "v1*v2"): (0.48 - 5.551115123125783e-17j, 0j, 0j, 0.48 + 5.551115123125783e-17j),
    ("oddtorus2", "(v1 + 2*v2)^3"): (0j, 6.388800000000001 + 8.518400000000002j,
                                     6.388800000000001 - 8.518400000000002j, 0j),
    ("oddtorus2", "(1/2+i)*v2*v1*v1 - v1^4"): (-0.12959999999999988, -0.14400000000000002 + 0.2879999999999999j,
                                               0.31679999999999997 + 0.05760000000000001j, -0.12959999999999988),
    ("oddtorus2", "3"): (3, 0j, 0j, 3),
    ("reg3", "v1"): (0j, -0.32075471698113206, -0.32075471698113206, 0j),
    ("reg3", "v2*v3"): (0.19223923104307586 - 0.38447846208615166j, 0j, 0j,
                        0.19223923104307586 + 0.38447846208615166j),
    ("reg3", "(v1 + v2 - v3)^3"): (0j, -0.4162698066188866 - 0.5167487254579284j,
                                   -0.4162698066188866 + 0.5167487254579284j, 0j),
    ("reg3", "(1/2+i)*v3*v1*v2*v1 - v2^4"): (-0.07298794585526538 + 0.039556523867176153j, 0j, 0j,
                                             -0.08881055540213584 + 0.04746782864061138j),
    ("torus3", "v1"): (0j, 0.5238095238095238j, -0.5238095238095238j, 0j),
    ("torus3", "v2*v3"): (-0.2902494331065759, 0j, 0j, -0.2902494331065759),
    ("torus3", "(v1 + v2 - v3)^3"): (0j, 4.62962962962963j, -4.62962962962963j, 0j),
    ("torus3", "(1/2+i)*v3*v1*v2*v1 - v2^4"): (-0.3767977334546818 - 0.07963759955985417j, 0j, 0j,
                                               -0.3767977334546818 - 0.07963759955985417j),
    ("real3", "v1"): (0j, 0.46938775510204084, 0.46938775510204084, 0j),
    ("real3", "v2*v3"): (-0.35985006247396917, 0j, 0j, -0.35985006247396917),
    ("real3", "(v1 + v2 - v3)^3"): (0j, 4.8601093081964155, 4.8601093081964155, 0j),
    ("real3", "(1/2+i)*v3*v1*v2*v1 - v2^4"): (-0.33099910994325743 - 0.0792839163051769j, 0j, 0j,
                                              -0.33099910994325743 - 0.0792839163051769j),
    ("irr3", "v1"): (0j, 0.5, 0.5, 0j),
    ("irr3", "v2*v3"): (0.25 + 0.25j, 0j, 0j, 0.25 - 0.25j),
    ("irr3", "(v1 + v2 - v3)^3"): (0j, 0j, 0j, 0j),
    ("irr3", "(1/2+i)*v3*v1*v2*v1 - v2^4"): (-0.15625 - 0.03125j, 0j, 0j, -0.03125 - 0.09375j),
}

# (real point, expression) -> phi_rep value
PHI = {
    ("real2", "v1"): 0.6,
    ("real2", "v1*v2"): 0.48,
    ("real2", "(v1 + 2*v2)^3"): 10.648,
    ("real2", "(1/2+i)*v2*v1*v1 - v1^4"): 0.014400000000000024 + 0.2879999999999999j,
    ("real2", "3"): 3,
    ("real3", "v1"): 0.46938775510204084,
    ("real3", "v2*v3"): -0.35985006247396917,
    ("real3", "(v1 + v2 - v3)^3"): 4.8601093081964155,
    ("real3", "(1/2+i)*v3*v1*v2*v1 - v2^4"): -0.33099910994325743 - 0.0792839163051769j,
}


@pytest.mark.parametrize("key", sorted(THETA))
def test_float_theta_and_character(key):
    name, expr = key
    z, x = POINTS[name], parse_model(expr, POINTS[name].n)
    m = theta(z, x)
    assert all_close(m.entries(), THETA[key])
    assert all(isinstance(e, complex) for e in m.entries())
    want = THETA[key]
    assert close(character(z, x), want[0] + want[3])


@pytest.mark.parametrize("key", sorted(PHI))
def test_float_phi_rep(key):
    name, expr = key
    z = POINTS[name]
    assert close(phi_rep(z, parse_model(expr, z.n)), PHI[key])


def test_float_phi_rep_rejects_non_real_points():
    with pytest.raises(PreconditionError):
        phi_rep(POINTS["torus2"], parse_model("v1", 2))


@pytest.mark.parametrize("name", sorted(POINTS))
def test_float_classification_commutant_and_decomposition(name):
    tag, witness, dim, y = CLASSES[name]
    z = POINTS[name]
    cls = classify_point(z)
    assert cls.tag == tag
    assert (cls.witness is None) == (witness is None)
    if witness is not None:
        assert close(cls.witness, witness)
    assert commutant_dimension(z) == dim
    if y is None:
        with pytest.raises(PreconditionError):
            decompose_nonregular(z)
    else:
        yp, ym = decompose_nonregular(z)
        assert all_close(yp.coords, y)
        assert all_close(ym.coords, [-c for c in y])
        assert all(isinstance(c, complex) and c.imag == 0 for c in yp.coords)


def test_classification_tolerance():
    assert classify_point(SpherePoint.from_floats([0.6, 0.8 + 1e-10j])).tag == REAL
    # imaginary parts just above eps = 1e-9, in the coordinate and in z_1 conj(z_2)
    assert classify_point(SpherePoint.from_floats([0.6, 0.8 + 2e-9j])).tag == REGULAR
    assert classify_point(SpherePoint.from_floats([0.6, 0.8 + 1e-6j])).tag == REGULAR


def test_exact_point_with_irrational_modulus_decomposes_in_floats():
    h = Fraction(1, 2)
    z = SpherePoint.from_exact([ExactComplex(h, h), ExactComplex(h, h)])
    cls = classify_point(z)
    assert cls.tag == "TorusReal"
    assert close(cls.witness, 0.7071067811865475 - 0.7071067811865475j)
    y, ym = decompose_nonregular(z)
    assert not y.exact
    assert all_close(y.coords, [0.7071067811865475] * 2)
    assert all_close(ym.coords, [-0.7071067811865475] * 2)


def test_eigenvalues_fall_back_to_floats():
    one, zero = ExactComplex(1), ExactComplex(0)
    golden = Mat2(one, one, one, zero).eigenvalues()
    assert all_close(golden, [1.618033988749895, -0.6180339887498949])
    assert all(isinstance(v, complex) for v in golden)
    f = Mat2(0.6 + 0j, 0.8j, 0.3, 1.0).eigenvalues()
    assert all_close(f, [1.1763711606990692 + 0.31883420551434616j,
                         0.423628839300931 - 0.31883420551434616j])


def test_float_and_mixed_orbit_equivalence():
    a = SpherePoint.from_floats([0.6, 0.8j])
    exact = SpherePoint.from_exact([ExactComplex(Fraction(3, 5)), ExactComplex(0, Fraction(4, 5))])
    rotated = SpherePoint.from_floats([0.6j, -0.8])
    other = SpherePoint.from_floats([0.8, 0.6j])
    assert orbit_equivalent(a, rotated)
    assert orbit_equivalent(a, a.conjugate())
    assert not orbit_equivalent(a, other)
    assert orbit_equivalent(exact, rotated) and orbit_equivalent(rotated, exact)
    assert not orbit_equivalent(exact, other)
    assert not orbit_equivalent(exact, SpherePoint.from_floats([0.6, -0.8j + 1e-7]))
    assert orbit_equivalent(exact, SpherePoint.from_floats([0.6, -0.8j + 1e-10]))


def test_mixed_mat2_eq():
    m = Mat2(ExactComplex(Fraction(3, 5)), ExactComplex(0, 1), ExactComplex(0), ExactComplex(-2))
    f = Mat2(0.6, 1j, 0.0, -2.0)
    assert m.eq(f) and f.eq(m)
    assert not m.eq(Mat2(0.6 + 1e-6, 1j, 0, -2.0))
    assert m.eq(Mat2(0.6 + 1e-11, 1j, 0, -2.0))


def test_float_scale_keeps_unit_scalars_and_rejects_others():
    z = SpherePoint.from_floats([0.6, 0.8j])
    assert all_close(z.scale(1j).coords, [0.6j, -0.8])
    with pytest.raises(PreconditionError):
        z.scale(0.5j)


def test_float_point_carries_its_tolerance():
    z = SpherePoint.from_floats([0.6, 0.8 + 1e-6j], 1e-3)
    strict = SpherePoint.from_floats([0.6, 0.8 + 1e-6j])
    assert (classify_point(z).tag, commutant_dimension(z), is_irreducible(z)) == (REAL, 2, False)
    assert (classify_point(strict).tag, commutant_dimension(strict)) == (REGULAR, 1)
    # a pair compares within the larger tolerance, in either order
    for w in (SpherePoint.from_floats([0.6, 0.8], 1e-3), SpherePoint.from_floats([0.6, 0.8]),
              SpherePoint.from_exact([ExactComplex(Fraction(3, 5)), ExactComplex(Fraction(4, 5))])):
        assert orbit_equivalent(z, w) and orbit_equivalent(w, z)
    real = SpherePoint.from_floats([0.6, 0.8])
    assert not orbit_equivalent(strict, real) and not orbit_equivalent(real, strict)
    torus = SpherePoint.from_floats([0.6j, 0.8j + 1e-6], 1e-3)
    assert classify_point(torus).tag == "TorusReal"
    derived = [z.negate(), z.conjugate(), z.scale(1j * (1 + 1e-6)),
               *decompose_nonregular(z), *decompose_nonregular(torus)]
    assert all(p.ops.eps == 1e-3 for p in derived)
    with pytest.raises(PreconditionError):
        strict.scale(1j * (1 + 1e-6))
    spec = IdealSpec(2, (parse_expr("v2 - 4/5", 2).as_nc(),), 2)
    assert classify_pair(spec, [z, strict]) == PairEF((), (z,))


def _reference_commutant_dimension(z: SpherePoint) -> int:
    """4 - rank of the commutation equations, by sparse exact elimination."""
    rows = []
    for w in z.coords:
        wb = w.conj()
        rows += [{1: -wb, 2: w}, {0: -w, 3: w}, {0: wb, 3: -wb}, {1: wb, 2: -w}]
    clean = [{k: v for k, v in row.items() if not v.is_zero()} for row in rows]
    return 4 - echelon_from(r for r in clean if r).dimension


def test_commutant_dimension_matches_sparse_elimination():
    rng = Random(17)
    samplers = (sample_real_point, sample_torus_real_point, sample_regular_point)
    seen = set()
    for n in (2, 3, 4):
        for _ in range(20):
            for sample in samplers:
                z = sample(n, rng)
                want = _reference_commutant_dimension(z)
                seen.add(want)
                assert commutant_dimension(z) == want
                assert commutant_dimension(z.to_floats()) == want
    # axis points: zero coordinates exercise the pivot search
    for n in (2, 3):
        for k in range(n):
            e = [ExactComplex(0)] * n
            e[k] = ExactComplex(0, 1)
            z = SpherePoint.from_exact(e)
            assert commutant_dimension(z) == _reference_commutant_dimension(z)
    assert seen == {1, 2}
