"""Degree-truncated ideal spans and the classification of quantum subspaces.

All computations happen inside the finite-dimensional truncation spanned by
canonical monomials of degree <= d (even and odd components together), with
exact row reduction over the Gaussian rationals.  ideal_span realizes the
span of {pi(m1 * g * m2)} over all noncommutative words m1, m2 subject to
|m1| + deg(g) + |m2| <= d.  Rather than enumerating the pairs (m1, m2), the
implementation closes the seed pi(g) under single-letter left and right
multiplications while tracking the remaining degree budget of each element;
elements already in the span are not expanded, which loses nothing because
every step is a linear map and every spanning element sitting in the echelon
has at least as much remaining budget as the element it absorbed.  The
resulting subspace is identical to the literal enumeration.

The closure runs on coordinate vectors.  Multiplying by a generator v_i on
either side is a fixed linear map on the truncation's columns: a canonical
monomial times one letter has at most one redex, so each column goes to one
column with sign +1, or to n columns with signs +1, -1, ..., -1.  Each
TruncationBasis builds these shift tables once, as the tuple of target
columns per column, and a step is one table lookup per term.  The closure
works on Gaussian-integer vectors (linalg.integral): each seed is scaled to
integers once, which never changes a span, and a step only flips signs.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import CrossedElem, CrossedKey, CrossedTerms, NCPoly, Word, lift_word, pi
from .errors import DimensionError, PreconditionError
from .linalg import Echelon, Vector, ZVector, echelon_from, integral, nullspace
from .representations import (
    REAL,
    REGULAR,
    SpherePoint,
    classify_point,
    phi_rep,
    theta,
)
from .scalars import Frozen
from .sphere_ring import monomial_degree, monomial_sort_key, point_table, reduced_monomials

# column -> the target columns of its product with one generator, the first
# with sign +1 and the rest with sign -1; None for columns of degree d
ShiftTable = List[Optional[Tuple[int, ...]]]


class TruncationBasis:
    """Canonical monomial coordinates for the degree <= d truncation.

    Columns are CrossedTerms keys (grade, (a, b)) of canonical monomials,
    ordered by descending degree, so any element of degree <= D reduces
    against pivots of degree <= D only.  index maps each key to its column,
    and words gives each column's lift_word.
    """

    __slots__ = ("n", "d", "columns", "index", "_shifts", "_words")

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        # grade is the parity of the degree, so the monomial's key orders columns
        cols = [(grade, m) for grade in (0, 1) for m in reduced_monomials(n, grade, d)]
        cols.sort(key=lambda c: monomial_sort_key(c[1]), reverse=True)
        self.columns: List[CrossedKey] = cols
        self.index = {key: i for i, key in enumerate(cols)}
        self._shifts: Dict[Tuple[int, int], ShiftTable] = {}
        self._words: Optional[List[Word]] = None

    @property
    def column_count(self) -> int:
        return len(self.columns)

    def vector(self, x: CrossedElem) -> Vector:
        if x.n != self.n:
            raise DimensionError("element dimension does not match the truncation")
        vec: Vector = {}
        for key, c in CrossedTerms.of(x).terms.items():
            idx = self.index.get(key)
            if idx is None:
                raise PreconditionError(
                    f"degree overflow: monomial of degree {monomial_degree(key[1])} "
                    f"exceeds bound {self.d}"
                )
            vec[idx] = c
        return vec

    def element(self, vec: Vector) -> CrossedElem:
        columns = self.columns
        return CrossedTerms._trusted(self.n, {columns[i]: c for i, c in vec.items()}).crossed()

    @property
    def words(self) -> List[Word]:
        """Column -> the word whose image under pi is the column.  Built on
        first use."""
        if self._words is None:
            self._words = [lift_word(grade, m) for grade, m in self.columns]
        return self._words

    def shift(self, side: int, i: int) -> ShiftTable:
        """Multiplication by v_i on the left (side 0) or the right (side 1).

        Indexed by column: a column of degree < d maps to the columns of its
        product, signed +1 for the first and -1 for the rest; a column of
        degree d maps to None.  Built on first use.
        """
        table = self._shifts.get((side, i))
        if table is None:
            table = self._shifts[(side, i)] = self._build_shift(side, i)
        return table

    def _build_shift(self, side: int, i: int) -> ShiftTable:
        # (0, z_i)(f0, f1) = (z_i tau(f1), z_i tau(f0)), (f0, f1)(0, z_i) =
        # (f1 z_i~, f0 z_i): the product raises one exponent tuple p of the
        # column at i and keeps the other, q.  The column is canonical, so a
        # redex arises only for i = 1 and q_1 > 0; the rewrite gives the base
        # (p, q - e_1) and the base times z_j z_j~ for each j >= 2.
        n, index, columns = self.n, self.index, self.columns
        if not 1 <= i <= n:
            raise DimensionError(f"generator index {i} out of range 1..{n}")
        k = i - 1
        # columns run by descending degree: the first top have degree d
        top = bisect_left(columns, 1 - self.d, key=lambda c: -monomial_degree(c[1]))
        table: ShiftTable = [None] * top
        for grade, (a, b) in columns[top:]:
            p, q = (a, b) if side == 1 and grade == 0 else (b, a)
            if k == 0 and q[0]:
                q = (q[0] - 1,) + q[1:]
                pairs = [(p, q)] + [
                    (p[:j] + (p[j] + 1,) + p[j + 1:], q[:j] + (q[j] + 1,) + q[j + 1:])
                    for j in range(1, n)
                ]
            else:
                pairs = [(p[:k] + (p[k] + 1,) + p[k + 1:], q)]
            if side == 1 and grade == 1:  # p is the b tuple
                pairs = [(y, x) for x, y in pairs]
            table.append(tuple([index[(1 - grade, pair)] for pair in pairs]))
        return table


@lru_cache(maxsize=32)
def _basis(n: int, d: int) -> TruncationBasis:
    return TruncationBasis(n, d)


class IdealSpec(Frozen):
    """A two-sided ideal presentation: generators plus the truncation degree."""

    __slots__ = _compared = ("n", "generators", "degree_bound")

    def __init__(self, n: int, generators: Sequence[NCPoly], degree_bound: int):
        generators = tuple(generators)
        for g in generators:
            if g.n != n:
                raise DimensionError("generator dimension does not match n")
            if g.degree > degree_bound:
                raise PreconditionError(
                    "degree bound must be at least the maximal generator degree"
                )
        if degree_bound < 0:
            raise PreconditionError("degree bound must be nonnegative")
        self._init(n, generators, degree_bound)


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
    gens: Sequence[NCPoly],
    steps: Sequence[Tuple[ShiftTable, ...]],
) -> Echelon:
    """Span of the images pi(g) closed under the steps within degree budgets.

    A step is a sequence of shift tables applied in turn and costs one unit
    of budget per table.  Each pending vector carries its remaining budget,
    starting at d - deg(g); levels are processed in descending budget order,
    so whenever a vector reduces to zero against the echelon, the rows
    absorbing it all carry at least as much budget, and since every step is
    linear their expansions subsume its own.  A vector of budget b has degree
    at most d - b, so a step never meets a column of degree d.
    """
    ech = Echelon()
    pending: Dict[int, List[ZVector]] = {}
    for g in gens:
        if g.is_zero():
            continue
        budget = tb.d - g.degree
        if budget < 0:
            raise PreconditionError("degree bound must cover every seed")
        pending.setdefault(budget, []).append(integral(tb.vector(pi(g))))
    seen = set()
    for level in range(max(pending, default=-1), -1, -1):
        fresh: List[ZVector] = []
        for vec in pending.pop(level, []):
            # v_i g v_j is reached both ways
            key = frozenset(vec.items())
            if not vec or key in seen:
                continue
            seen.add(key)
            if ech.insert(vec):
                fresh.append(vec)
        for vec in fresh:
            for step in steps:
                if level >= len(step):
                    out = vec
                    for table in step:
                        out = _apply_shift(table, out)
                    pending.setdefault(level - len(step), []).append(out)
    return ech


def _apply_shift(table: ShiftTable, vec: ZVector) -> ZVector:
    out: ZVector = {}
    for col, x in vec.items():
        sign = 1
        for target in table[col]:
            cur = out.get(target)
            if cur is None:
                out[target] = x if sign > 0 else (-x[0], -x[1])
            else:
                re, im = cur[0] + sign * x[0], cur[1] + sign * x[1]
                if re or im:
                    out[target] = (re, im)
                else:
                    del out[target]
            sign = -1
    return out


@lru_cache(maxsize=64)
def ideal_span(spec: IdealSpec) -> SpanBasis:
    """Row-reduced span of {pi(m1 g m2) : |m1| + deg(g) + |m2| <= d}."""
    tb = _basis(spec.n, spec.degree_bound)
    letters = range(1, spec.n + 1)
    steps = [(tb.shift(side, i),) for side in (0, 1) for i in letters]
    return SpanBasis(tb, _closure(tb, spec.generators, steps))


def even_ideal_span(gens: Sequence[NCPoly], degree_bound: int, n: int) -> SpanBasis:
    """Span of {pi(w1 g w2)} over even words w1, w2 within the degree bound.

    This is the ideal generated inside the even subalgebra when every
    generator is even.
    """
    tb = _basis(n, degree_bound)
    letters = range(1, n + 1)
    # v_i v_j x = v_i (v_j x) and x v_i v_j = (x v_i) v_j
    left = [(tb.shift(0, j), tb.shift(0, i)) for i in letters for j in letters]
    right = [(tb.shift(1, i), tb.shift(1, j)) for i in letters for j in letters]
    return SpanBasis(tb, _closure(tb, gens, left + right))


def membership(spec: IdealSpec, x: NCPoly) -> bool:
    if x.n != spec.n:
        raise DimensionError("dimension mismatch")
    if x.degree > spec.degree_bound:
        raise PreconditionError(
            f"degree overflow: element degree {x.degree} exceeds bound {spec.degree_bound}"
        )
    return ideal_span(spec).contains(pi(x))


def _even_restriction(tb: TruncationBasis, row: ZVector) -> ZVector:
    return {c: v for c, v in row.items() if tb.columns[c][0] == 0}


def is_graded(spec: IdealSpec) -> bool:
    """Whether the truncated span contains the even and odd parts of each of
    its elements; equivalently, whether it is stable under the sign map nu."""
    span = ideal_span(spec)
    tb = span.basis
    for row in span.echelon.int_rows.values():
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
        _even_restriction(tb, row) for row in span.echelon.int_rows.values()
    )
    return SpanBasis(tb, ech)


def even_to_graded(gens: Sequence[NCPoly], degree_bound: int, n: int) -> IdealSpec:
    """From even generators to the graded ideal with the same even part.

    The result adjoins v_i * g for every generator; its span decomposes as
    J + A_1 J.  Preconditions: every generator must be even, and the even
    ideal span of the generators must be stable under gamma (otherwise no
    graded ideal has this even part and a PreconditionError is raised).
    """
    for g in gens:
        if g.n != n:
            raise DimensionError("generator dimension does not match n")
        if not pi(g).f1.is_zero():
            raise PreconditionError("even_to_graded requires even generators")
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


class PairEF(NamedTuple):
    """Sampled subspace data: E regular points, F real points."""

    E: Tuple[SpherePoint, ...]
    F: Tuple[SpherePoint, ...]

    @property
    def non_classical(self) -> bool:
        return len(self.E) > 0


def classify_pair(spec: IdealSpec, sample: Sequence[SpherePoint]) -> PairEF:
    """Sort sampled points into the pair (E, F) cut out by the generators.

    A regular point joins E when theta kills every generator; a real point
    joins F when the character phi kills every generator.  Unit multiples of
    real points that are not real belong to neither list.  Each point's
    own ops decide what is zero.
    """
    images = [pi(g) for g in spec.generators]
    e_points: List[SpherePoint] = []
    f_points: List[SpherePoint] = []
    for z in sample:
        if z.n != spec.n:
            raise DimensionError("sample point dimension does not match n")
        tag, is_zero = classify_point(z).tag, z.ops.is_zero
        if tag == REGULAR:
            if all(all(map(is_zero, theta(z, img).entries())) for img in images):
                e_points.append(z)
        elif tag == REAL:
            if all(is_zero(phi_rep(z, img)) for img in images):
                f_points.append(z)
    return PairEF(tuple(e_points), tuple(f_points))


def sampled_f_symmetric(pair: PairEF) -> bool:
    """Whether the sampled real zero set satisfies F = -F."""
    coords = {p.coords for p in pair.F}
    return all(p.negate().coords in coords for p in pair.F)


def vanishing_ideal(points: Sequence[SpherePoint], degree_bound: int, n: int) -> SpanBasis:
    """All truncated canonical forms annihilated by the given points.

    A real point y imposes the single functional phi_y; any other point z
    imposes the four matrix entries of theta_z.  Points must be exact since
    the kernel is computed by exact elimination.
    """
    tb = _basis(n, degree_bound)
    rows: List[Vector] = []
    for z in points:
        if not z.exact:
            raise PreconditionError("vanishing_ideal requires exact points")
        if z.n != n:
            raise DimensionError("point dimension does not match n")
        at_z = point_table(tuple(z.coords)).value
        if classify_point(z).tag == REAL:
            row: Vector = {}
            for idx, (grade, m) in enumerate(tb.columns):
                val = at_z(m)
                if not val.is_zero():
                    row[idx] = val
            rows.append(row)
        else:
            r00: Vector = {}
            r01: Vector = {}
            r10: Vector = {}
            r11: Vector = {}
            at_zb = point_table(tuple(c.conj() for c in z.coords)).value
            for idx, (grade, m) in enumerate(tb.columns):
                vz, vzb = at_z(m), at_zb(m)
                if grade == 0:
                    if not vz.is_zero():
                        r00[idx] = vz
                    if not vzb.is_zero():
                        r11[idx] = vzb
                else:
                    if not vz.is_zero():
                        r01[idx] = vz
                    if not vzb.is_zero():
                        r10[idx] = vzb
            rows.extend(r for r in (r00, r01, r10, r11) if r)
    return SpanBasis(tb, nullspace(rows, tb.column_count))


def lift_basis(span: SpanBasis) -> List[NCPoly]:
    """Noncommutative representatives of the span's RREF rows, read off the
    truncation's word table: the k-th is nc_lift of span.vectors()[k]."""
    n, words = span.n, span.basis.words
    return [
        NCPoly._trusted(n, {words[c]: x for c, x in row.items()})
        for row in span.echelon.rows()
    ]
