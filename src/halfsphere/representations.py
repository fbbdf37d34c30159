"""Representations of the half-liberated sphere algebra from sphere points.

Every irreducible representation is 2-dimensional and attached to a point z
of the complex sphere:

    theta_z(f0, f1) = [[f0(z), f1(z)], [f1(z*), f0(z*)]]

where z* is the coordinatewise conjugate point.  theta_z is irreducible iff z
is regular, meaning z is not a unit-scalar multiple of a real point; the
latter happens exactly when every Gram product z_i conj(z_j) is real.  At a
non-regular z = lambda y (y real) theta_z splits into the two characters
phi_y and phi_{-y}, with phi_y(f0, f1) = f0(y) + f1(y).  Two points induce
equivalent representations iff their Gram matrices agree entrywise or agree
entrywise after conjugation.

Exact points have Gaussian-rational coordinates and all answers are exact;
float points compare within the tolerance they were made with.  Both run the
same function bodies: each point carries its scalar ops (scalars.EXACT or
scalars.ApproxOps(eps)), and no operation takes a tolerance of its own.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .algebra import CrossedElem
from .errors import DimensionError, PreconditionError
from .scalars import DEFAULT_EPSILON, EXACT, ApproxOps, ExactComplex, Frozen, ops_for

REAL = "Real"
TORUS_REAL = "TorusReal"
REGULAR = "Regular"


class PointClass(NamedTuple):
    tag: str
    witness: Optional[complex] = None


class SpherePoint(Frozen):
    """A point of the complex unit sphere: coordinates with sum |z_i|^2 = 1.

    Coordinates are all ExactComplex (exact point) or all complex (float
    point).  ops is the point's scalar policy: EXACT, or ApproxOps(eps) with
    the tolerance the point was made with; without one it is picked by type
    (ops_for).  Derived points (negate, conjugate, scale) keep it.  It takes
    no part in equality or hashing.
    """

    __slots__ = ("coords", "ops")
    _compared = ("coords",)

    def __init__(self, coords: tuple, ops=None):
        if not coords:
            raise DimensionError("a sphere point needs at least one coordinate")
        self._init(coords, ops_for(coords) if ops is None else ops)

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def exact(self) -> bool:
        return self.ops is EXACT

    @classmethod
    def from_exact(cls, coords: Sequence[ExactComplex]) -> "SpherePoint":
        return cls._on_sphere(tuple(coords), EXACT)

    @classmethod
    def from_floats(cls, coords: Sequence, eps: float = DEFAULT_EPSILON) -> "SpherePoint":
        """A float point; ExactComplex coordinates are converted."""
        ops = ApproxOps(eps)
        return cls._on_sphere(tuple(map(ops.coerce, coords)), ops)

    @classmethod
    def _on_sphere(cls, coords: tuple, ops) -> "SpherePoint":
        total = sum(map(ops.abs2, coords))
        if not ops.eq(total, 1):
            raise PreconditionError(f"not a sphere point: sum of squared moduli is {total}")
        return cls(coords, ops)

    def to_floats(self) -> "SpherePoint":
        """The float copy, at the default tolerance."""
        return SpherePoint(tuple(map(ApproxOps.coerce, self.coords)))

    def conjugate(self) -> "SpherePoint":
        return SpherePoint(tuple(map(self.ops.conj, self.coords)), self.ops)

    def negate(self) -> "SpherePoint":
        return SpherePoint(tuple(-c for c in self.coords), self.ops)

    def scale(self, lam) -> "SpherePoint":
        """Multiply by a unit scalar (ExactComplex for exact points)."""
        if self.exact and not isinstance(lam, ExactComplex):
            raise PreconditionError("exact points need an ExactComplex scalar")
        ops = self.ops
        lam = ops.coerce(lam)
        if not ops.eq(ops.abs2(lam), 1):
            raise PreconditionError("scalar must lie on the unit circle")
        return SpherePoint(tuple(lam * c for c in self.coords), ops)

    def __iter__(self):
        return iter(self.coords)


def classify_point(z: SpherePoint) -> PointClass:
    """Real, TorusReal (unit multiple of a real point) or Regular.

    z lies on the torus orbit of a real point iff every product
    z_i conj(z_j) is real; the witness multiplier is conj(z_k)/|z_k| for
    the pivot coordinate k (the first nonzero one of an exact point, the
    largest one of a float point), reported as a float.
    """
    ops, c = z.ops, z.coords
    if all(map(ops.is_real, c)):
        return PointClass(REAL)
    products_real = all(
        ops.is_real(c[i] * ops.conj(c[j])) for i in range(z.n) for j in range(i + 1, z.n)
    )
    if not products_real:
        return PointClass(REGULAR)
    ck = ApproxOps.coerce(c[ops.pivot(c)])
    return PointClass(TORUS_REAL, ck.conjugate() / abs(ck))


class Mat2:
    """A 2x2 matrix with ExactComplex or complex entries (row major)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def adjoint(self) -> "Mat2":
        conj = ops_for(self.entries()).conj
        return Mat2(conj(self.a), conj(self.c), conj(self.b), conj(self.d))

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def entries(self) -> Tuple:
        return (self.a, self.b, self.c, self.d)

    def eq(self, other: "Mat2") -> bool:
        """Entrywise equality; exact for two exact matrices, else in floats
        within the default tolerance."""
        ops = ops_for(self.entries() + other.entries())
        return all(
            ops.eq(ops.coerce(x), ops.coerce(y))
            for x, y in zip(self.entries(), other.entries())
        )

    def eigenvalues(self) -> Tuple:
        """Roots of the characteristic polynomial; exact when the discriminant
        is a real rational perfect square, floats otherwise."""
        for ops in (ops_for(self.entries()), ApproxOps()):
            tr, det = ops.coerce(self.trace()), ops.coerce(self.det())
            root = ops.sqrt(tr * tr - det * 4)
            if root is not None:
                return ((tr + root) / 2, (tr - root) / 2)

    def __repr__(self) -> str:
        return f"Mat2({self.a}, {self.b}; {self.c}, {self.d})"


def _check_dims(z: SpherePoint, x: CrossedElem):
    if z.n != x.n:
        raise DimensionError(
            f"point has {z.n} coordinates, element lives in dimension {x.n}"
        )


def theta(z: SpherePoint, x: CrossedElem) -> Mat2:
    """The 2-dimensional representation attached to z."""
    _check_dims(z, x)
    zc, zb = z.coords, z.conjugate().coords
    return Mat2(x.f0.evaluate(zc), x.f1.evaluate(zc), x.f1.evaluate(zb), x.f0.evaluate(zb))


def phi_rep(y: SpherePoint, x: CrossedElem):
    """The character f0(y) + f1(y) attached to a real point y."""
    _check_dims(y, x)
    if classify_point(y).tag != REAL:
        raise PreconditionError("phi_rep requires a real point")
    return x.f0.evaluate(y.coords) + x.f1.evaluate(y.coords)


def character(z: SpherePoint, x: CrossedElem):
    """The trace of theta_z, i.e. f0(z) + f0(z*)."""
    m = theta(z, x)
    return m.trace()


def commutant_dimension(z: SpherePoint) -> int:
    """Dimension of the commutant of theta_z, by Gaussian elimination.

    For each generator image A = [[0, w], [w*, 0]] the commutation equations
    in the unknown matrix M = [[m0, m1], [m2, m3]] are linear; the commutant
    is the joint kernel.  Pivots come from the point's ops: exact points
    take the first nonzero entry, float points the largest one above eps.
    """
    ops = z.ops
    o = ops.zero
    rows = []
    for w in z.coords:
        wb = ops.conj(w)
        rows += [[o, -wb, w, o], [-w, o, o, w], [wb, o, o, -wb], [o, wb, -w, o]]
    rank = 0
    for col in range(4):
        k = ops.pivot([r[col] for r in rows[rank:]])
        if k is None:
            continue
        rows[rank], rows[rank + k] = rows[rank + k], rows[rank]
        prow = rows[rank]
        rank += 1
        for r in rows[rank:]:
            f = r[col] / prow[col]
            r[col:] = [x - f * p for x, p in zip(r[col:], prow[col:])]
    return 4 - rank


def is_irreducible(z: SpherePoint) -> bool:
    """True iff theta_z is irreducible, i.e. iff z is regular.

    commutant_dimension provides the independent algebraic cross-check
    (irreducible iff the commutant is the scalars).
    """
    return classify_point(z).tag == REGULAR


def _gram(coords: Sequence, ops):
    return [[a * ops.conj(b) for b in coords] for a in coords]


def orbit_equivalent(z: SpherePoint, x: SpherePoint) -> bool:
    """Whether theta_z and theta_x are unitarily equivalent.

    The Gram matrix (z_i conj(z_j)) is a complete invariant of the orbit of z
    under unit scalars; conjugating the point conjugates the Gram matrix and
    swaps theta_z for an equivalent representation, so equivalence holds iff
    the Gram matrices agree entrywise or agree entrywise after conjugation.
    A pair with a float point is compared in floats, within the larger of
    the two points' tolerances (an exact point's is 0).
    """
    if z.n != x.n:
        raise DimensionError("points live on spheres of different dimension")
    ops = max(z.ops, x.ops, key=lambda o: o.eps)
    gz, gx = (
        [e for row in _gram([ops.coerce(c) for c in p.coords], ops) for e in row]
        for p in (z, x)
    )
    same = all(map(ops.eq, gz, gx))
    conj = all(map(ops.eq, gz, map(ops.conj, gx)))
    return same or conj


def decompose_nonregular(z: SpherePoint) -> Tuple[SpherePoint, SpherePoint]:
    """For non-regular z return real points (y, -y) with theta_z ~ phi_y + phi_{-y}.

    The untwisting scalar is lambda = conj(z_k)/|z_k| at the pivot
    coordinate k.  The results keep z's ops, except that an exact z whose
    |z_k| is irrational yields float points at the default tolerance.
    """
    cls = classify_point(z)
    if cls.tag == REGULAR:
        raise PreconditionError("decompose_nonregular requires a non-regular point")
    if cls.tag == REAL:
        return z, z.negate()
    for ops in (z.ops, ApproxOps()):
        coords = [ops.coerce(c) for c in z.coords]
        ck = coords[ops.pivot(coords)]
        root = ops.sqrt(ops.abs2(ck))
        if root is not None:
            lam = ops.conj(ck) / root
            y = SpherePoint(tuple(ops.real(lam * c) for c in coords), ops)
            return y, y.negate()


# ----------------------------------------------------------------------
# exact sampling via the rational parametrization of the sphere


def rational_unit_vector(params: Sequence[Fraction]) -> List[Fraction]:
    """Map u in Q^{m-1} to ((1-|u|^2) e_1 + 2u) / (1+|u|^2) in S^{m-1}.

    Stereographic inverse from the first coordinate axis; always lands on
    rational points of the unit sphere.
    """
    s = sum((u * u for u in params), Fraction(0))
    den = 1 + s
    return [(1 - s) / den] + [2 * u / den for u in params]


def _random_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 4))


def sample_real_point(n: int, rng: Random) -> SpherePoint:
    xs = rational_unit_vector([_random_fraction(rng) for _ in range(n - 1)])
    return SpherePoint.from_exact([ExactComplex(x) for x in xs])


def sample_torus_real_point(n: int, rng: Random) -> SpherePoint:
    """i times a real point: never real, always on the torus of a real point."""
    y = sample_real_point(n, rng)
    return SpherePoint(tuple(ExactComplex(-c.im, c.re) for c in y.coords))


def sample_regular_point(n: int, rng: Random) -> SpherePoint:
    """A generic exact point; rejection-samples until Regular.

    Draws 2n real coordinates on S^{2n-1} and packs consecutive pairs into
    complex coordinates, so the modulus constraint holds exactly.
    """
    if n < 2:
        raise PreconditionError("no regular points exist for n = 1")
    for _ in range(500):
        xs = rational_unit_vector([_random_fraction(rng) for _ in range(2 * n - 1)])
        coords = [
            ExactComplex(xs[2 * k], xs[2 * k + 1]) for k in range(n)
        ]
        z = SpherePoint.from_exact(coords)
        if classify_point(z).tag == REGULAR:
            return z
    raise PreconditionError("failed to sample a regular point")


def sample_points(
    n: int,
    rng: Random,
    n_real: int = 4,
    n_torus: int = 2,
    n_regular: int = 4,
) -> List[SpherePoint]:
    """A deterministic mixed sample for pair classification reports."""
    points: List[SpherePoint] = []
    for _ in range(n_real):
        y = sample_real_point(n, rng)
        points.extend([y, y.negate()])
    for _ in range(n_torus):
        points.append(sample_torus_real_point(n, rng))
    if n >= 2:
        for _ in range(n_regular):
            points.append(sample_regular_point(n, rng))
    return points
