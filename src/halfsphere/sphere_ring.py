"""Polynomial functions on the complex unit sphere S^{n-1}_C.

A monomial z^a z~^b is the pair (a, b) of exponent tuples for the
coordinates z_i and their conjugates (written z_i~ in output); it is the key
of a ZPoly term and, with a grade, of a crossed-product term
(algebra.CrossedTerms).  The circle weight of a monomial is
(number of z letters) - (number of z~ letters); products add weights, and
both the *-operation and the conjugation automorphism tau negate them.

Canonical forms are taken modulo the single sphere relation

    z_1 z_1~ + ... + z_n z_n~ = 1

oriented as z_1 z_1~ -> 1 - sum_{i>=2} z_i z_i~ under the degree-lex order
z_1 > z_1~ > z_2 > z_2~ > ...  One linear relation is trivially a Groebner
basis, so a polynomial is canonical exactly when no monomial contains both
z_1 and z_1~, and normal forms are unique.  Reduction is lazy: arithmetic
never reduces on its own, callers invoke reduce() where canonicality matters.

Evaluation goes through a small table per point (point_table): the
powers z_i^e, z_i~^e and the value of each monomial are computed once per
point and shared by every polynomial evaluated there.  Classifying a sample
evaluates dozens of polynomials at the same few points, over the same
truncation monomials, so the table turns each term into one multiplication.
Only the last few points are kept.  Exact and float points share this path:
the table takes its unit, conjugation and coefficient coercion from the
point's scalar ops (scalars.ops_for).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import DimensionError
from .scalars import EC_ONE, ExactComplex, SparseTerms, add_term, ops_for


Monomial = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (a, b) for z^a z~^b


def monomial_degree(m: Monomial) -> int:
    return sum(m[0]) + sum(m[1])


def monomial_sort_key(m: Monomial):
    """Deglex with z_1 > z_1~ > z_2 > z_2~ > ..."""
    a, b = m
    return (sum(a) + sum(b), tuple(e for pair in zip(a, b) for e in pair))


class PointTable:
    """Powers and monomial values at one point, each computed once.

    The point's scalar ops (ops_for) supply the unit and the conjugation, so
    exact and float points share the table.  Powers are filled in order,
    z_i^e = z_i^(e-1) * z_i, so a float value does not depend on which
    monomials were asked for first.  Entries are only ever added, each with
    its final value, so callers in different threads may share a table.
    """

    __slots__ = ("ops", "_powers", "_values")

    def __init__(self, coords: tuple):
        self.ops = ops = ops_for(coords)
        coords = [ops.coerce(c) for c in coords]
        # _powers[0][i][e] = z_i^e and _powers[1][i][e] = z_i~^e, filled on demand
        self._powers: Tuple[List[dict], ...] = (
            [{0: ops.one, 1: c} for c in coords],
            [{0: ops.one, 1: ops.conj(c)} for c in coords],
        )
        self._values: dict = {}

    def value(self, m: Monomial):
        """z^a z~^b at this point, for m = (a, b)."""
        v = self._values.get(m)
        if v is None:
            one = v = self.ops.one
            for powers, exps in zip(self._powers, m):
                for i, e in enumerate(exps):
                    if e:
                        pw = powers[i]
                        if e not in pw:
                            # keys run 0..top; rewriting a key stores the same value
                            for k in range(len(pw), e + 1):
                                pw[k] = pw[k - 1] * pw[1]
                        v = pw[e] if v is one else v * pw[e]
            self._values[m] = v
        return v


@lru_cache(maxsize=8)
def point_table(coords: tuple) -> PointTable:
    """The shared table of the point coords (a tuple, used as the key)."""
    return PointTable(coords)


class ZPoly(SparseTerms):
    """A polynomial in z_1..z_n, z_1~..z_n~ with Gaussian-rational coefficients.

    Keys are monomials (a, b): z^a z~^b with a and b exponent tuples of
    length n.
    """

    __slots__ = ("_reduced",)

    def __init__(self, n: int, terms: Dict[Monomial, ExactComplex] | None = None):
        super().__init__(n, terms)
        self._reduced = not self.terms

    @classmethod
    def _trusted(cls, n: int, terms: dict, reduced: bool = False) -> "ZPoly":
        out = super()._trusted(n, terms)
        out._reduced = reduced or not terms
        return out

    @staticmethod
    def _key(n: int, m) -> Monomial:
        a, b = m
        a, b = tuple(a), tuple(b)
        if len(a) != n or len(b) != n or min(a + b) < 0:
            raise DimensionError(f"not a monomial in dimension {n}: {m}")
        return a, b

    @staticmethod
    def _key_mul(m1: Monomial, m2: Monomial) -> Monomial:
        return tuple(map(operator.add, m1[0], m2[0])), tuple(map(operator.add, m1[1], m2[1]))

    @staticmethod
    def _unit_key(n: int) -> Monomial:
        return (0,) * n, (0,) * n

    _key_degree = staticmethod(monomial_degree)
    _sort_key = staticmethod(monomial_sort_key)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def generator(cls, n: int, i: int) -> "ZPoly":
        """z_i, 1-based."""
        if not 1 <= i <= n:
            raise DimensionError(f"generator index {i} out of range 1..{n}")
        a = [0] * n
        a[i - 1] = 1
        return cls(n, {(tuple(a), (0,) * n): EC_ONE})

    @classmethod
    def conj_generator(cls, n: int, i: int) -> "ZPoly":
        """z_i~, 1-based."""
        if not 1 <= i <= n:
            raise DimensionError(f"generator index {i} out of range 1..{n}")
        b = [0] * n
        b[i - 1] = 1
        return cls(n, {((0,) * n, tuple(b)): EC_ONE})

    # ring operations are lazy: no reduction here
    __mul__ = __rmul__ = SparseTerms.__mul__

    # ------------------------------------------------------------------
    # involutions and grading

    def star(self) -> "ZPoly":
        """Pointwise complex conjugation: coefficients conjugated, z <-> z~."""
        terms = {(b, a): c.conj() for (a, b), c in self.terms.items()}
        return ZPoly._trusted(self.n, terms, self._reduced)  # redexes are symmetric in a, b

    def tau(self) -> "ZPoly":
        """The conjugation automorphism z_i -> z_i~ with coefficients untouched."""
        terms = {(b, a): c for (a, b), c in self.terms.items()}
        return ZPoly._trusted(self.n, terms, self._reduced)

    def is_homogeneous_of_weight(self, w: int) -> bool:
        return all(sum(a) - sum(b) == w for a, b in self.terms)

    # ------------------------------------------------------------------
    # canonical form

    def reduce(self) -> "ZPoly":
        """Normal form modulo z_1 z_1~ -> 1 - sum_{i>=2} z_i z_i~.

        Monomials are bucketed by redex depth min(a_1, b_1).  One rewrite
        sends depth d to depth d - 1 exactly (the raised pairs have i >= 2),
        so draining the buckets from the deepest down merges every path into
        a monomial before it is expanded, and each distinct monomial is
        expanded once.  The normal form is unique by confluence of the single
        rule, whatever the order.
        """
        if self._reduced:
            return self
        levels: Dict[int, Dict[Monomial, ExactComplex]] = {}
        for m, c in self.terms.items():
            levels.setdefault(min(m[0][0], m[1][0]), {})[m] = c
        for depth in range(max(levels), 0, -1):
            lower = levels.setdefault(depth - 1, {})
            for (a, b), c in levels.pop(depth, {}).items():
                a, b = (a[0] - 1,) + a[1:], (b[0] - 1,) + b[1:]
                add_term(lower, (a, b), c)
                neg = -c
                for i in range(1, self.n):  # times z_{i+1} z_{i+1}~
                    raised = (a[:i] + (a[i] + 1,) + a[i + 1:], b[:i] + (b[i] + 1,) + b[i + 1:])
                    add_term(lower, raised, neg)
        return ZPoly._trusted(self.n, levels[0], True)

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, coords: Sequence):
        """The value at a point: exact for ExactComplex coordinates, else complex."""
        self._check_point(coords)
        table = point_table(tuple(coords))
        value, coerce = table.value, table.ops.coerce
        total = table.ops.zero
        for m, coeff in self.terms.items():
            total = total + coerce(coeff) * value(m)
        return total

    def _check_point(self, coords: Sequence) -> None:
        if len(coords) != self.n:
            raise DimensionError(
                f"point has {len(coords)} coordinates, polynomial expects {self.n}"
            )


def sphere_relation(n: int) -> ZPoly:
    """sum_i z_i z_i~ - 1, the defining relation of the sphere."""
    terms: Dict[Monomial, ExactComplex] = {}
    for i in range(n):
        pair = (0,) * i + (1,) + (0,) * (n - i - 1)
        terms[(pair, pair)] = EC_ONE
    add_term(terms, ZPoly._unit_key(n), -EC_ONE)
    return ZPoly(n, terms)


@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> Tuple[tuple, ...]:
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 0:
        return ((),) if total == 0 else ()
    return tuple(
        (first,) + rest
        for first in range(total + 1)
        for rest in compositions(total - first, parts - 1)
    )


def reduced_monomials(n: int, weight: int, max_degree: int) -> Iterator[Monomial]:
    """All canonical monomials (a_1 = 0 or b_1 = 0) of the given weight and
    degree <= max_degree."""
    start = abs(weight)
    for deg in range(start, max_degree + 1, 2):
        sa = (deg + weight) // 2
        sb = (deg - weight) // 2
        zero_b1 = [(0,) + rest for rest in compositions(sb, n - 1)]
        for a in compositions(sa, n):
            for b in zero_b1 if a[0] else compositions(sb, n):
                yield a, b
