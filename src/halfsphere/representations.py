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
float points fall back to tolerance comparisons.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import List, Optional, Sequence, Tuple

from .algebra import CrossedElem
from .errors import DimensionError, PreconditionError
from .scalars import (
    DEFAULT_EPSILON,
    ExactComplex,
    approx_eq,
    approx_zero,
    exact_sqrt,
)

REAL = "Real"
TORUS_REAL = "TorusReal"
REGULAR = "Regular"


@dataclass(frozen=True)
class PointClass:
    tag: str
    witness: Optional[complex] = None


@dataclass(frozen=True)
class SpherePoint:
    """A point of the complex unit sphere: coordinates with sum |z_i|^2 = 1.

    Coordinates are all ExactComplex (exact point) or all complex (float
    point); validation is exact or within eps accordingly.
    """

    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise DimensionError("a sphere point needs at least one coordinate")

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def exact(self) -> bool:
        return isinstance(self.coords[0], ExactComplex)

    @classmethod
    def from_exact(cls, coords: Sequence[ExactComplex], check: bool = True) -> "SpherePoint":
        coords = tuple(coords)
        if check:
            total = sum((c.modulus_squared() for c in coords), Fraction(0))
            if total != 1:
                raise PreconditionError(
                    f"not a sphere point: sum of squared moduli is {total}"
                )
        return cls(coords)

    @classmethod
    def from_floats(
        cls, coords: Sequence[complex], eps: float = DEFAULT_EPSILON, check: bool = True
    ) -> "SpherePoint":
        coords = tuple(complex(c) for c in coords)
        if check:
            total = sum(abs(c) ** 2 for c in coords)
            if not approx_eq(total, 1.0, eps):
                raise PreconditionError(
                    f"not a sphere point: sum of squared moduli is {total}"
                )
        return cls(coords)

    def to_floats(self) -> "SpherePoint":
        if not self.exact:
            return self
        return SpherePoint(tuple(c.to_complex() for c in self.coords))

    def conjugate(self) -> "SpherePoint":
        if self.exact:
            return SpherePoint(tuple(c.conj() for c in self.coords))
        return SpherePoint(tuple(c.conjugate() for c in self.coords))

    def negate(self) -> "SpherePoint":
        return SpherePoint(tuple(-c for c in self.coords))

    def scale(self, lam) -> "SpherePoint":
        """Multiply by a unit scalar (ExactComplex for exact points)."""
        if self.exact:
            if not isinstance(lam, ExactComplex):
                raise PreconditionError("exact points need an ExactComplex scalar")
            if lam.modulus_squared() != 1:
                raise PreconditionError("scalar must lie on the unit circle")
            return SpherePoint(tuple(lam * c for c in self.coords))
        return SpherePoint(tuple(complex(lam) * c for c in self.coords))

    def __iter__(self):
        return iter(self.coords)


def classify_point(z: SpherePoint, eps: float = DEFAULT_EPSILON) -> PointClass:
    """Real, TorusReal (unit multiple of a real point) or Regular.

    z lies on the torus orbit of a real point iff every product
    z_i conj(z_j) is real; the witness multiplier is conj(z_k)/|z_k| for
    the first nonzero coordinate (reported as a float).
    """
    if z.exact:
        if all(c.is_real() for c in z.coords):
            return PointClass(REAL)
        products_real = all(
            (z.coords[i] * z.coords[j].conj()).is_real()
            for i in range(z.n)
            for j in range(i + 1, z.n)
        )
        if not products_real:
            return PointClass(REGULAR)
        k = next(i for i, c in enumerate(z.coords) if not c.is_zero())
        ck = z.coords[k].to_complex()
        witness = ck.conjugate() / abs(ck)
        return PointClass(TORUS_REAL, witness)
    if all(approx_zero(c.imag, eps) for c in z.coords):
        return PointClass(REAL)
    products_real = all(
        approx_zero((z.coords[i] * z.coords[j].conjugate()).imag, eps)
        for i in range(z.n)
        for j in range(i + 1, z.n)
    )
    if not products_real:
        return PointClass(REGULAR)
    k = max(range(z.n), key=lambda i: abs(z.coords[i]))
    ck = z.coords[k]
    witness = ck.conjugate() / abs(ck)
    return PointClass(TORUS_REAL, witness)


class Mat2:
    """A 2x2 matrix with ExactComplex or complex entries (row major)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def exact(self) -> bool:
        return isinstance(self.a, ExactComplex)

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
        if self.exact:
            return Mat2(self.a.conj(), self.c.conj(), self.b.conj(), self.d.conj())
        return Mat2(
            self.a.conjugate(), self.c.conjugate(), self.b.conjugate(), self.d.conjugate()
        )

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def entries(self) -> Tuple:
        return (self.a, self.b, self.c, self.d)

    def is_zero(self, eps: float = DEFAULT_EPSILON) -> bool:
        if self.exact:
            return all(e.is_zero() for e in self.entries())
        return all(approx_zero(e, eps) for e in self.entries())

    def eq(self, other: "Mat2", eps: float = DEFAULT_EPSILON) -> bool:
        if self.exact and other.exact:
            return self.entries() == other.entries()
        mine = [e.to_complex() if isinstance(e, ExactComplex) else e for e in self.entries()]
        theirs = [
            e.to_complex() if isinstance(e, ExactComplex) else e for e in other.entries()
        ]
        return all(approx_eq(x, y, eps) for x, y in zip(mine, theirs))

    def eigenvalues(self) -> Tuple:
        """Roots of the characteristic polynomial; exact when the discriminant
        is a real rational perfect square, floats otherwise."""
        tr = self.trace()
        det = self.det()
        if self.exact:
            disc = tr * tr - det * 4
            if disc.is_real():
                root = exact_sqrt(disc.re)
                if root is not None:
                    r = ExactComplex(root)
                    return ((tr + r) / 2, (tr - r) / 2)
            trc, detc = tr.to_complex(), det.to_complex()
        else:
            trc, detc = tr, det
        root = cmath.sqrt(trc * trc - 4 * detc)
        return ((trc + root) / 2, (trc - root) / 2)

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
    if z.exact:
        zc = z.coords
        zb = tuple(c.conj() for c in z.coords)
        return Mat2(
            x.f0.evaluate(zc),
            x.f1.evaluate(zc),
            x.f1.evaluate(zb),
            x.f0.evaluate(zb),
        )
    zc = list(z.coords)
    zb = [c.conjugate() for c in z.coords]
    return Mat2(
        x.f0.evaluate_float(zc),
        x.f1.evaluate_float(zc),
        x.f1.evaluate_float(zb),
        x.f0.evaluate_float(zb),
    )


def phi_rep(y: SpherePoint, x: CrossedElem, eps: float = DEFAULT_EPSILON):
    """The character f0(y) + f1(y) attached to a real point y."""
    _check_dims(y, x)
    if classify_point(y, eps).tag != REAL:
        raise PreconditionError("phi_rep requires a real point")
    if y.exact:
        return x.f0.evaluate(y.coords) + x.f1.evaluate(y.coords)
    return x.f0.evaluate_float(list(y.coords)) + x.f1.evaluate_float(list(y.coords))


def character(z: SpherePoint, x: CrossedElem):
    """The trace of theta_z, i.e. f0(z) + f0(z*)."""
    m = theta(z, x)
    return m.trace()


def commutant_dimension(z: SpherePoint, eps: float = DEFAULT_EPSILON) -> int:
    """Dimension of the commutant of theta_z, by exact or float linear solve.

    For each generator image A = [[0, w], [w*, 0]] the commutation equations
    in the unknown matrix M = [[m0, m1], [m2, m3]] are linear; the commutant
    is the joint kernel.
    """
    if z.exact:
        from .linalg import echelon_from

        rows = []
        for w in z.coords:
            wb = w.conj()
            rows.append({1: -wb, 2: w})
            rows.append({0: -w, 3: w})
            rows.append({0: wb, 3: -wb})
            rows.append({1: wb, 2: -w})
        clean = [
            {k: v for k, v in row.items() if not v.is_zero()} for row in rows
        ]
        rank = echelon_from(r for r in clean if r).dimension
        return 4 - rank
    rows_f: List[List[complex]] = []
    for w in z.coords:
        wb = w.conjugate()
        rows_f.append([0, -wb, w, 0])
        rows_f.append([-w, 0, 0, w])
        rows_f.append([wb, 0, 0, -wb])
        rows_f.append([0, wb, -w, 0])
    return 4 - _float_rank(rows_f, eps)


def _float_rank(rows: List[List[complex]], eps: float) -> int:
    mat = [list(map(complex, r)) for r in rows]
    ncols = 4
    rank = 0
    for col in range(ncols):
        pivot = None
        best = eps
        for r in range(rank, len(mat)):
            if abs(mat[r][col]) > best:
                best = abs(mat[r][col])
                pivot = r
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        scale = prow[col]
        for r in range(len(mat)):
            if r == rank:
                continue
            factor = mat[r][col] / scale
            if abs(factor) > 0:
                for c in range(ncols):
                    mat[r][c] -= factor * prow[c]
        rank += 1
    return rank


def is_irreducible(z: SpherePoint, eps: float = DEFAULT_EPSILON) -> bool:
    """True iff theta_z is irreducible, i.e. iff z is regular.

    commutant_dimension provides the independent algebraic cross-check
    (irreducible iff the commutant is the scalars).
    """
    return classify_point(z, eps).tag == REGULAR


def _gram(z: SpherePoint):
    if z.exact:
        return [
            [z.coords[i] * z.coords[j].conj() for j in range(z.n)] for i in range(z.n)
        ]
    return [
        [z.coords[i] * z.coords[j].conjugate() for j in range(z.n)] for i in range(z.n)
    ]


def orbit_equivalent(z: SpherePoint, x: SpherePoint, eps: float = DEFAULT_EPSILON) -> bool:
    """Whether theta_z and theta_x are unitarily equivalent.

    The Gram matrix (z_i conj(z_j)) is a complete invariant of the orbit of z
    under unit scalars; conjugating the point conjugates the Gram matrix and
    swaps theta_z for an equivalent representation, so equivalence holds iff
    the Gram matrices agree entrywise or agree entrywise after conjugation.
    """
    if z.n != x.n:
        raise DimensionError("points live on spheres of different dimension")
    if z.exact and x.exact:
        gz = _gram(z)
        gx = _gram(x)
        same = all(gz[i][j] == gx[i][j] for i in range(z.n) for j in range(z.n))
        conj = all(
            gz[i][j] == gx[i][j].conj() for i in range(z.n) for j in range(z.n)
        )
        return same or conj
    gzf = _gram(z.to_floats())
    gxf = _gram(x.to_floats())
    same = all(
        approx_eq(gzf[i][j], gxf[i][j], eps) for i in range(z.n) for j in range(z.n)
    )
    conj = all(
        approx_eq(gzf[i][j], gxf[i][j].conjugate(), eps)
        for i in range(z.n)
        for j in range(z.n)
    )
    return same or conj


def decompose_nonregular(
    z: SpherePoint, eps: float = DEFAULT_EPSILON
) -> Tuple[SpherePoint, SpherePoint]:
    """For non-regular z return real points (y, -y) with theta_z ~ phi_y + phi_{-y}.

    The untwisting scalar is lambda = conj(z_k)/|z_k|; it stays exact when
    |z_k| is rational, otherwise the result degrades to a float point.
    """
    cls = classify_point(z, eps)
    if cls.tag == REGULAR:
        raise PreconditionError("decompose_nonregular requires a non-regular point")
    if cls.tag == REAL:
        return z, z.negate()
    if z.exact:
        k = next(i for i, c in enumerate(z.coords) if not c.is_zero())
        msq = z.coords[k].modulus_squared()
        root = exact_sqrt(msq)
        if root is not None:
            lam = z.coords[k].conj() / root
            coords = [lam * c for c in z.coords]
            if all(c.is_real() for c in coords):
                y = SpherePoint(tuple(coords))
                return y, y.negate()
        zf = z.to_floats()
    else:
        zf = z
    k = max(range(zf.n), key=lambda i: abs(zf.coords[i]))
    lam_f = zf.coords[k].conjugate() / abs(zf.coords[k])
    coords_f = tuple(complex((lam_f * c).real) for c in zf.coords)
    y = SpherePoint(coords_f)
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


def _random_fraction(rng: Random, span: int = 3, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def sample_real_point(n: int, rng: Random) -> SpherePoint:
    xs = rational_unit_vector([_random_fraction(rng) for _ in range(n - 1)])
    return SpherePoint.from_exact([ExactComplex(x) for x in xs])


def sample_torus_real_point(n: int, rng: Random) -> SpherePoint:
    """i times a real point: never real, always on the torus of a real point."""
    y = sample_real_point(n, rng)
    return SpherePoint(tuple(ExactComplex(-c.im, c.re) for c in y.coords))


def sample_regular_point(n: int, rng: Random, max_tries: int = 500) -> SpherePoint:
    """A generic exact point; rejection-samples until Regular.

    Draws 2n real coordinates on S^{2n-1} and packs consecutive pairs into
    complex coordinates, so the modulus constraint holds exactly.
    """
    if n < 2:
        raise PreconditionError("no regular points exist for n = 1")
    for _ in range(max_tries):
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
    include_negations: bool = True,
) -> List[SpherePoint]:
    """A deterministic mixed sample for pair classification reports."""
    points: List[SpherePoint] = []
    for _ in range(n_real):
        y = sample_real_point(n, rng)
        points.append(y)
        if include_negations:
            points.append(y.negate())
    for _ in range(n_torus):
        points.append(sample_torus_real_point(n, rng))
    if n >= 2:
        for _ in range(n_regular):
            points.append(sample_regular_point(n, rng))
    return points
