"""Degree-truncated ideal spans and the classification of quantum subspaces.

All computations happen inside the finite-dimensional truncation spanned by
canonical monomials of degree <= d (even and odd components together), with
exact row reduction over the Gaussian rationals.  ideal_span realizes the
span of {pi(m1 * g * m2)} over all noncommutative words m1, m2 subject to
|m1| + deg(g) + |m2| <= d.  Rather than enumerating the pairs (m1, m2), the
implementation closes the seed pi(g) under single-letter left and right
multiplications while tracking the remaining degree budget of each element;
elements already in the span are not expanded, which loses nothing because
left and right multiplication are linear and every spanning element sitting
in the echelon has at least as much remaining budget as the element it
absorbed.  The resulting subspace is identical to the literal enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import CrossedElem, NCPoly, pi, nc_lift
from .errors import DimensionError, PreconditionError
from .linalg import Echelon, Vector, echelon_from, nullspace
from .representations import (
    REAL,
    REGULAR,
    SpherePoint,
    classify_point,
    phi_rep,
    theta,
)
from .scalars import DEFAULT_EPSILON, EC_ONE, ExactComplex
from .sphere_ring import ZMonomial, reduced_monomials


class TruncationBasis:
    """Canonical monomial coordinates for the degree <= d truncation.

    Columns are (grade, monomial) pairs ordered by descending degree, so any
    element of degree <= D reduces against pivots of degree <= D only.
    """

    __slots__ = ("n", "d", "columns", "index")

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        cols: List[Tuple[int, ZMonomial]] = []
        for grade in (0, 1):
            for m in reduced_monomials(n, grade, d):
                cols.append((grade, m))
        cols.sort(key=lambda c: (c[1].degree, c[0]) + c[1].sort_key()[1:], reverse=True)
        self.columns = cols
        self.index = {c: i for i, c in enumerate(cols)}

    @property
    def column_count(self) -> int:
        return len(self.columns)

    def vector(self, x: CrossedElem) -> Vector:
        if x.n != self.n:
            raise DimensionError("element dimension does not match the truncation")
        vec: Vector = {}
        for grade, f in ((0, x.f0), (1, x.f1)):
            for m, c in f.terms.items():
                idx = self.index.get((grade, m))
                if idx is None:
                    raise PreconditionError(
                        f"degree overflow: monomial of degree {m.degree} exceeds bound {self.d}"
                    )
                vec[idx] = c
        return vec

    def element(self, vec: Vector) -> CrossedElem:
        from .sphere_ring import ZPoly

        even: Dict[ZMonomial, ExactComplex] = {}
        odd: Dict[ZMonomial, ExactComplex] = {}
        for idx, c in vec.items():
            grade, m = self.columns[idx]
            (even if grade == 0 else odd)[m] = c
        return CrossedElem(ZPoly(self.n, even), ZPoly(self.n, odd))


@lru_cache(maxsize=32)
def _basis(n: int, d: int) -> TruncationBasis:
    return TruncationBasis(n, d)


@dataclass(frozen=True)
class IdealSpec:
    """A two-sided ideal presentation: generators plus the truncation degree."""

    n: int
    generators: Tuple[NCPoly, ...]
    degree_bound: int

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.n != self.n:
                raise DimensionError("generator dimension does not match n")
            if g.degree > self.degree_bound:
                raise PreconditionError(
                    "degree bound must be at least the maximal generator degree"
                )
        if self.degree_bound < 0:
            raise PreconditionError("degree bound must be nonnegative")


class SpanBasis:
    """Unique row-reduced basis of a subspace of the truncation.

    Equality of SpanBasis objects decides equality of subspaces because the
    reduced row echelon form is unique.
    """

    __slots__ = ("basis", "echelon")

    def __init__(self, basis: TruncationBasis, echelon: Echelon):
        self.basis = basis
        self.echelon = echelon

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def degree_bound(self) -> int:
        return self.basis.d

    @property
    def dimension(self) -> int:
        return self.echelon.dimension

    def vectors(self) -> List[CrossedElem]:
        return [self.basis.element(row) for row in self.echelon.rows()]

    def contains(self, x: CrossedElem) -> bool:
        return self.echelon.contains(self.basis.vector(x))

    def contains_vector(self, vec: Vector) -> bool:
        return self.echelon.contains(vec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanBasis):
            return NotImplemented
        return (
            self.n == other.n
            and self.degree_bound == other.degree_bound
            and self.echelon == other.echelon
        )

    def __repr__(self) -> str:
        return (
            f"SpanBasis(n={self.n}, d={self.degree_bound}, dim={self.dimension})"
        )


def _closure(
    tb: TruncationBasis,
    ech: Echelon,
    seeds: Sequence[Tuple[CrossedElem, int]],
    left_steps: Sequence[Tuple[CrossedElem, int]],
    right_steps: Sequence[Tuple[CrossedElem, int]],
):
    """Close the seeds under the given multiplications within degree budgets.

    Each pending element carries its remaining formal budget; levels are
    processed in descending budget order so that whenever an element reduces
    to zero against the echelon, the rows absorbing it all carry at least as
    much budget and their expansions subsume its own.
    """
    if not seeds:
        return
    pending: Dict[int, List[CrossedElem]] = {}
    for elem, budget in seeds:
        if budget < 0:
            raise PreconditionError("degree bound must cover every seed")
        pending.setdefault(budget, []).append(elem)
    seen = set()
    top = max(pending)
    for level in range(top, -1, -1):
        batch = pending.pop(level, [])
        fresh: List[CrossedElem] = []
        for elem in batch:
            if elem.is_zero() or elem in seen:
                continue
            seen.add(elem)
            if ech.insert(tb.vector(elem)):
                fresh.append(elem)
        for elem in fresh:
            for step, cost in left_steps:
                if level >= cost:
                    pending.setdefault(level - cost, []).append(step * elem)
            for step, cost in right_steps:
                if level >= cost:
                    pending.setdefault(level - cost, []).append(elem * step)


def _generator_steps(n: int) -> List[Tuple[CrossedElem, int]]:
    return [(CrossedElem.generator(n, i), 1) for i in range(1, n + 1)]


def _even_pair_steps(n: int) -> List[Tuple[CrossedElem, int]]:
    steps = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            steps.append(
                (CrossedElem.generator(n, i) * CrossedElem.generator(n, j), 2)
            )
    return steps


@lru_cache(maxsize=64)
def ideal_span(spec: IdealSpec) -> SpanBasis:
    """Row-reduced span of {pi(m1 g m2) : |m1| + deg(g) + |m2| <= d}."""
    tb = _basis(spec.n, spec.degree_bound)
    ech = Echelon()
    seeds = [
        (pi(g), spec.degree_bound - g.degree)
        for g in spec.generators
        if not g.is_zero()
    ]
    steps = _generator_steps(spec.n)
    _closure(tb, ech, seeds, steps, steps)
    return SpanBasis(tb, ech)


def even_ideal_span(
    gens: Sequence[NCPoly], degree_bound: int, n: Optional[int] = None
) -> SpanBasis:
    """Span of {pi(w1 g w2)} over even words w1, w2 within the degree bound.

    This is the ideal generated inside the even subalgebra when every
    generator is even.
    """
    if n is None:
        if not gens:
            raise DimensionError("need n when the generator list is empty")
        n = gens[0].n
    tb = _basis(n, degree_bound)
    ech = Echelon()
    seeds = [(pi(g), degree_bound - g.degree) for g in gens if not g.is_zero()]
    steps = _even_pair_steps(n)
    _closure(tb, ech, seeds, steps, steps)
    return SpanBasis(tb, ech)


def membership(spec: IdealSpec, x: NCPoly) -> bool:
    if x.n != spec.n:
        raise DimensionError("dimension mismatch")
    if x.degree > spec.degree_bound:
        raise PreconditionError(
            f"degree overflow: element degree {x.degree} exceeds bound {spec.degree_bound}"
        )
    return ideal_span(spec).contains(pi(x))


def _even_restriction(tb: TruncationBasis, row: Vector) -> Vector:
    return {c: v for c, v in row.items() if tb.columns[c][0] == 0}


def is_graded(spec: IdealSpec) -> bool:
    """Whether the truncated span contains the even and odd parts of each of
    its elements; equivalently, whether it is stable under the sign map nu."""
    span = ideal_span(spec)
    tb = span.basis
    for row in span.echelon.rows():
        even = _even_restriction(tb, row)
        if not span.contains_vector(even):
            return False
    return True


def graded_to_even(spec: IdealSpec) -> SpanBasis:
    """Even part of a graded truncated ideal span."""
    if not is_graded(spec):
        raise PreconditionError("the truncated span is not graded")
    span = ideal_span(spec)
    tb = span.basis
    ech = echelon_from(
        _even_restriction(tb, row) for row in span.echelon.rows()
    )
    return SpanBasis(tb, ech)


def even_to_graded(
    gens: Sequence[NCPoly], degree_bound: int, n: Optional[int] = None
) -> IdealSpec:
    """From even generators to the graded ideal with the same even part.

    The result adjoins v_i * g for every generator; its span decomposes as
    J + A_1 J.  Preconditions: every generator must be even, and the even
    ideal span of the generators must be stable under gamma (otherwise no
    graded ideal has this even part and a PreconditionError is raised).
    """
    if n is None:
        if not gens:
            raise DimensionError("need n when the generator list is empty")
        n = gens[0].n
    images = []
    for g in gens:
        if g.n != n:
            raise DimensionError("generator dimension does not match n")
        img = pi(g)
        if not img.f1.is_zero():
            raise PreconditionError("even_to_graded requires even generators")
        images.append(img)
    span = even_ideal_span(gens, degree_bound, n)
    for b in span.vectors():
        if not span.contains(b.gamma()):
            raise PreconditionError(
                "the even ideal span is not gamma-stable at this degree bound"
            )
    new_gens: List[NCPoly] = list(gens)
    for i in range(1, n + 1):
        vi = NCPoly.generator(n, i)
        for g in gens:
            # a product v_i g beyond the bound admits no product within it,
            # so dropping it leaves the truncated span unchanged
            if g.degree + 1 <= degree_bound:
                new_gens.append(vi * g)
    return IdealSpec(n, tuple(new_gens), degree_bound)


@dataclass(frozen=True)
class PairEF:
    """Sampled subspace data: E regular points, F real points."""

    E: Tuple[SpherePoint, ...]
    F: Tuple[SpherePoint, ...]

    @property
    def non_classical(self) -> bool:
        return len(self.E) > 0


def classify_pair(
    spec: IdealSpec, sample: Sequence[SpherePoint], eps: float = DEFAULT_EPSILON
) -> PairEF:
    """Sort sampled points into the pair (E, F) cut out by the generators.

    A regular point joins E when theta kills every generator; a real point
    joins F when the character phi kills every generator.  Unit multiples of
    real points that are not real belong to neither list.
    """
    images = [pi(g) for g in spec.generators]
    e_points: List[SpherePoint] = []
    f_points: List[SpherePoint] = []
    for z in sample:
        if z.n != spec.n:
            raise DimensionError("sample point dimension does not match n")
        tag = classify_point(z, eps).tag
        if tag == REGULAR:
            if all(theta(z, img).is_zero(eps) for img in images):
                e_points.append(z)
        elif tag == REAL:
            vals = [phi_rep(z, img, eps) for img in images]
            if z.exact:
                ok = all(v.is_zero() for v in vals)
            else:
                ok = all(abs(v) <= eps for v in vals)
            if ok:
                f_points.append(z)
    return PairEF(tuple(e_points), tuple(f_points))


def sampled_f_symmetric(pair: PairEF) -> bool:
    """Whether the sampled real zero set satisfies F = -F."""
    coords = {p.coords for p in pair.F}
    return all(p.negate().coords in coords for p in pair.F)


def vanishing_ideal(
    points: Sequence[SpherePoint], degree_bound: int, n: Optional[int] = None
) -> SpanBasis:
    """All truncated canonical forms annihilated by the given points.

    A real point y imposes the single functional phi_y; any other point z
    imposes the four matrix entries of theta_z.  Points must be exact since
    the kernel is computed by exact elimination.
    """
    if n is None:
        if not points:
            raise DimensionError("need n when the point list is empty")
        n = points[0].n
    tb = _basis(n, degree_bound)
    rows: List[Vector] = []
    for z in points:
        if not z.exact:
            raise PreconditionError("vanishing_ideal requires exact points")
        if z.n != n:
            raise DimensionError("point dimension does not match n")
        zc = list(z.coords)
        zb = [c.conj() for c in z.coords]
        if classify_point(z).tag == REAL:
            row: Vector = {}
            for idx, (grade, m) in enumerate(tb.columns):
                val = m.evaluate(zc, zb, EC_ONE)
                if not val.is_zero():
                    row[idx] = val
            rows.append(row)
        else:
            r00: Vector = {}
            r01: Vector = {}
            r10: Vector = {}
            r11: Vector = {}
            for idx, (grade, m) in enumerate(tb.columns):
                at_z = m.evaluate(zc, zb, EC_ONE)
                at_zb = m.evaluate(zb, zc, EC_ONE)
                if grade == 0:
                    if not at_z.is_zero():
                        r00[idx] = at_z
                    if not at_zb.is_zero():
                        r11[idx] = at_zb
                else:
                    if not at_z.is_zero():
                        r01[idx] = at_z
                    if not at_zb.is_zero():
                        r10[idx] = at_zb
            rows.extend(r for r in (r00, r01, r10, r11) if r)
    kernel = nullspace(rows, tb.column_count)
    return SpanBasis(tb, echelon_from(kernel))


def lift_basis(span: SpanBasis) -> List[NCPoly]:
    """Noncommutative representatives of a span basis, via nc_lift."""
    return [nc_lift(b) for b in span.vectors()]
