"""Value semantics of the package's immutable values and result records.

Equality, hashing, immutability, repr, pickling and deep copies of
ExactComplex, SpherePoint, IdealSpec and the records the library and the
CLI return.  The repr strings are pinned.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from halfsphere.algebra import NCPoly
from halfsphere.cli import Output
from halfsphere.parsing import parse_expr
from halfsphere.projective import ProjectorReport, check_projector_relations
from halfsphere.representations import (
    PointClass,
    SpherePoint,
    classify_point,
)
from halfsphere.scalars import EC_ONE, EC_ZERO, ApproxOps, ExactComplex
from halfsphere.subspaces import IdealSpec, PairEF, ideal_span
from halfsphere.verify import SuiteResult


def exact_point():
    return SpherePoint.from_exact([ExactComplex(Fraction(3, 5)), ExactComplex(0, Fraction(4, 5))])


def spec():
    return IdealSpec(2, (NCPoly.generator(2, 1) * NCPoly.generator(2, 2),), 3)


def round_trips(value):
    return [pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)]


# ----------------------------------------------------------------------
# ExactComplex


def test_exact_complex_equality_and_hash():
    assert ExactComplex(1) == ExactComplex(Fraction(1), 0) == EC_ONE
    assert hash(ExactComplex(1)) == hash(ExactComplex(Fraction(1), 0))
    assert ExactComplex() == EC_ZERO
    assert ExactComplex(1, 2) != ExactComplex(2, 1)
    assert ExactComplex(1) != 1  # never equal to a plain number
    assert len({ExactComplex(Fraction(2, 4)), ExactComplex(Fraction(1, 2), 0)}) == 1
    assert ExactComplex(re=1, im=-1) == ExactComplex(1, -1)


def test_exact_complex_rejects_floats():
    with pytest.raises(TypeError):
        ExactComplex(0.5)


def test_exact_complex_is_immutable():
    c = ExactComplex(1, 2)
    for name in ("re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, Fraction(3))
    assert c == ExactComplex(1, 2)


def test_exact_complex_repr():
    assert repr(ExactComplex(1, Fraction(-1, 2))) == (
        "ExactComplex(re=Fraction(1, 1), im=Fraction(-1, 2))"
    )
    assert repr(EC_ZERO) == "ExactComplex(re=Fraction(0, 1), im=Fraction(0, 1))"


def test_exact_complex_round_trips():
    c = ExactComplex(Fraction(-7, 3), Fraction(5, 2))
    for copied in round_trips(c):
        assert type(copied) is ExactComplex
        assert copied == c and hash(copied) == hash(c)
        assert copied * EC_ONE == c


# ----------------------------------------------------------------------
# SpherePoint


def test_sphere_point_equality_ignores_ops():
    z = exact_point()
    assert z == SpherePoint(z.coords) and hash(z) == hash(SpherePoint(z.coords))
    f = SpherePoint.from_floats([0.6, 0.8j], eps=1e-5)
    g = SpherePoint((0.6 + 0j, 0.8j), ApproxOps())
    assert f == g and hash(f) == hash(g)
    assert f.ops.eps == 1e-5 and g.ops.eps != f.ops.eps
    assert z != z.negate()


def test_sphere_point_is_immutable():
    z = exact_point()
    for name in ("coords", "ops", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, ())


def test_sphere_point_repr():
    assert repr(exact_point()) == (
        "SpherePoint(coords=(ExactComplex(re=Fraction(3, 5), im=Fraction(0, 1)), "
        "ExactComplex(re=Fraction(0, 1), im=Fraction(4, 5))))"
    )
    assert repr(SpherePoint((1 + 0j,))) == "SpherePoint(coords=((1+0j),))"


def test_sphere_point_round_trips():
    z = exact_point()
    f = SpherePoint.from_floats([0.6, 0.8j], eps=1e-5)
    for point in (z, f):
        for copied in round_trips(point):
            assert type(copied) is SpherePoint
            assert copied == point and hash(copied) == hash(point)
    for copied in round_trips(f):
        assert copied.ops.eps == 1e-5


def test_exact_point_stays_exact_through_copies():
    z = exact_point()
    assert all(copied.exact for copied in round_trips(z))


# ----------------------------------------------------------------------
# IdealSpec


def test_ideal_spec_equality_hash_and_coercion():
    a = spec()
    b = IdealSpec(n=2, generators=[NCPoly.generator(2, 1) * NCPoly.generator(2, 2)], degree_bound=3)
    assert isinstance(b.generators, tuple)
    assert a == b and hash(a) == hash(b)
    assert a != IdealSpec(2, a.generators, 4)


def test_ideal_spec_is_immutable():
    a = spec()
    for name in ("n", "generators", "degree_bound", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 5)


def test_ideal_spec_repr():
    assert repr(spec()) == (
        "IdealSpec(n=2, generators=(NCPoly(n=2, 1 terms),), degree_bound=3)"
    )


def test_ideal_spec_round_trips():
    a = spec()
    for copied in round_trips(a):
        assert type(copied) is IdealSpec
        assert copied == a and hash(copied) == hash(a)


def test_equal_specs_share_one_cached_span():
    ideal_span.cache_clear()
    first = ideal_span(spec())
    second = ideal_span(pickle.loads(pickle.dumps(spec())))
    assert second is first
    info = ideal_span.cache_info()
    assert (info.hits, info.misses) == (1, 1)


# ----------------------------------------------------------------------
# records


def records():
    z = exact_point()
    return [
        PairEF((z,), ()),
        classify_point(SpherePoint.from_exact([ExactComplex(0, 1)])),
        PointClass("Real"),
        check_projector_relations(2),
    ]


def test_record_reprs():
    z = repr(exact_point())
    assert [repr(r) for r in records()] == [
        f"PairEF(E=({z},), F=())",
        "PointClass(tag='TorusReal', witness=-1j)",
        "PointClass(tag='Real', witness=None)",
        "ProjectorReport(n=2, adjoint_ok=True, idempotent_ok=True, trace_ok=True)",
    ]
    assert repr(parse_expr("v1", 2)) == "ParsedExpr(kind='v', n=2, nc=NCPoly(n=2, 1 terms), p=None)"
    assert repr(Output("text", [])) == "Output(fmt='text', lines=[])"
    assert repr(SuiteResult("a", True, "s", ["x"], 1.5)) == (
        "SuiteResult(name='a', passed=True, summary='s', details=['x'], seconds=1.5)"
    )


def test_records_are_immutable_values():
    for r, field in zip(records(), ("E", "tag", "witness", "trace_ok")):
        with pytest.raises(AttributeError):
            setattr(r, field, None)
        for copied in round_trips(r):
            assert type(copied) is type(r)
            assert copied == r and hash(copied) == hash(r)


def test_record_fields_and_properties():
    z = exact_point()
    pair = PairEF(E=(z,), F=())
    assert (pair.E, pair.F, pair.non_classical) == ((z,), (), True)
    assert not PairEF((), (z,)).non_classical
    assert PointClass("Real") == PointClass(tag="Real", witness=None)
    report = ProjectorReport(3, True, True, False)
    assert (report.n, report.trace_ok, report.passed) == (3, False, False)
    assert check_projector_relations(2).passed
    parsed = parse_expr("2*v1", 2)
    assert (parsed.kind, parsed.n, parsed.p) == ("v", 2, None)
    assert parsed.as_nc() == NCPoly.generator(2, 1) * 2
    result = SuiteResult("a", False, "s", [], 0.25)
    assert (result.name, result.passed, result.summary, result.details, result.seconds) == (
        "a", False, "s", [], 0.25,
    )
