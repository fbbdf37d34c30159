"""Polynomial functions on the complex unit sphere S^{n-1}_C.

Monomials carry separate exponent vectors for the coordinates z_i and their
conjugates (written z_i~ in output).  The circle weight of a monomial is
(number of z letters) - (number of z~ letters); products add weights, and
both the *-operation and the conjugation automorphism tau negate them.

Canonical forms are taken modulo the single sphere relation

    z_1 z_1~ + ... + z_n z_n~ = 1

oriented as z_1 z_1~ -> 1 - sum_{i>=2} z_i z_i~ under the degree-lex order
z_1 > z_1~ > z_2 > z_2~ > ...  One linear relation is trivially a Groebner
basis, so a polynomial is canonical exactly when no monomial contains both
z_1 and z_1~, and normal forms are unique.  Reduction is lazy: arithmetic
never reduces on its own, callers invoke reduce() where canonicality matters.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

from .errors import DimensionError
from .scalars import EC_ONE, EC_ZERO, ExactComplex, SparseTerms, add_term


class ZMonomial:
    """z^a z~^b with a, b nonnegative integer exponent tuples of length n."""

    __slots__ = ("a", "b", "_hash")

    def __init__(self, a: Sequence[int], b: Sequence[int]):
        self.a = tuple(a)
        self.b = tuple(b)
        if len(self.a) != len(self.b):
            raise DimensionError("exponent vectors must have equal length")
        self._hash = hash((self.a, self.b))

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def degree(self) -> int:
        return sum(self.a) + sum(self.b)

    @property
    def weight(self) -> int:
        return sum(self.a) - sum(self.b)

    def sort_key(self):
        # deglex with z_1 > z_1~ > z_2 > z_2~ > ...
        inter = []
        for x, y in zip(self.a, self.b):
            inter.append(x)
            inter.append(y)
        return (self.degree, tuple(inter))

    def __mul__(self, other: "ZMonomial") -> "ZMonomial":
        if len(self.a) != len(other.a):
            raise DimensionError("cannot multiply monomials of different dimension")
        return ZMonomial(
            tuple(x + y for x, y in zip(self.a, other.a)),
            tuple(x + y for x, y in zip(self.b, other.b)),
        )

    def swapped(self) -> "ZMonomial":
        """Exchange every z_i with z_i~ (the effect of tau on monomials)."""
        return ZMonomial(self.b, self.a)

    def has_redex(self) -> bool:
        return self.a[0] > 0 and self.b[0] > 0

    def strip_leading_pair(self) -> "ZMonomial":
        a = list(self.a)
        b = list(self.b)
        a[0] -= 1
        b[0] -= 1
        return ZMonomial(a, b)

    def raised_pair(self, i: int) -> "ZMonomial":
        """Multiply by z_{i+1} z_{i+1}~ (0-based index)."""
        a = list(self.a)
        b = list(self.b)
        a[i] += 1
        b[i] += 1
        return ZMonomial(a, b)

    def lowered_a(self, i: int) -> "ZMonomial":
        a = list(self.a)
        a[i] -= 1
        return ZMonomial(a, self.b)

    def evaluate(self, coords: Sequence, conj: Sequence, scale):
        """scale * z^a * z~^b with z = coords and z~ = conj, exact or float."""
        v = scale
        for i, e in enumerate(self.a):
            if e:
                v = v * coords[i] ** e
        for i, e in enumerate(self.b):
            if e:
                v = v * conj[i] ** e
        return v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZMonomial) and self.a == other.a and self.b == other.b
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ZMonomial({self.a}, {self.b})"


def _unit_monomial(n: int) -> ZMonomial:
    return ZMonomial((0,) * n, (0,) * n)


class ZPoly(SparseTerms):
    """A polynomial in z_1..z_n, z_1~..z_n~ with Gaussian-rational coefficients."""

    __slots__ = ("_reduced",)

    def __init__(self, n: int, terms: Dict[ZMonomial, ExactComplex] | None = None):
        super().__init__(n, terms)
        self._reduced = not self.terms

    @staticmethod
    def _key(n: int, m: ZMonomial) -> ZMonomial:
        if m.n != n:
            raise DimensionError("monomial dimension does not match n")
        return m

    _key_mul = staticmethod(ZMonomial.__mul__)
    _unit_key = staticmethod(_unit_monomial)
    _key_degree = staticmethod(lambda m: m.degree)
    _sort_key = staticmethod(ZMonomial.sort_key)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def generator(cls, n: int, i: int) -> "ZPoly":
        """z_i, 1-based."""
        if not 1 <= i <= n:
            raise DimensionError(f"generator index {i} out of range 1..{n}")
        a = [0] * n
        a[i - 1] = 1
        return cls(n, {ZMonomial(a, (0,) * n): EC_ONE})

    @classmethod
    def conj_generator(cls, n: int, i: int) -> "ZPoly":
        """z_i~, 1-based."""
        if not 1 <= i <= n:
            raise DimensionError(f"generator index {i} out of range 1..{n}")
        b = [0] * n
        b[i - 1] = 1
        return cls(n, {ZMonomial((0,) * n, b): EC_ONE})

    # ring operations are lazy: no reduction here
    __mul__ = __rmul__ = SparseTerms.__mul__

    # ------------------------------------------------------------------
    # involutions and grading

    def star(self) -> "ZPoly":
        """Pointwise complex conjugation: coefficients conjugated, z <-> z~."""
        out = ZPoly(self.n, {m.swapped(): c.conj() for m, c in self.terms.items()})
        out._reduced = self._reduced  # the redex condition is symmetric in a, b
        return out

    def tau(self) -> "ZPoly":
        """The conjugation automorphism z_i -> z_i~ with coefficients untouched."""
        out = ZPoly(self.n, {m.swapped(): c for m, c in self.terms.items()})
        out._reduced = self._reduced
        return out

    def weight_split(self) -> Dict[int, "ZPoly"]:
        parts: Dict[int, Dict[ZMonomial, ExactComplex]] = {}
        for m, c in self.terms.items():
            parts.setdefault(m.weight, {})[m] = c
        out = {}
        for w, terms in parts.items():
            p = ZPoly(self.n, terms)
            p._reduced = self._reduced
            out[w] = p
        return out

    def weight_part(self, w: int) -> "ZPoly":
        terms = {m: c for m, c in self.terms.items() if m.weight == w}
        p = ZPoly(self.n, terms)
        p._reduced = self._reduced
        return p

    def is_homogeneous_of_weight(self, w: int) -> bool:
        return all(m.weight == w for m in self.terms)

    # ------------------------------------------------------------------
    # canonical form

    def is_reduced(self) -> bool:
        return all(not m.has_redex() for m in self.terms)

    def reduce(self) -> "ZPoly":
        """Normal form modulo z_1 z_1~ -> 1 - sum_{i>=2} z_i z_i~.

        Unique by confluence of the single rule, so the worklist order below
        cannot affect the result.
        """
        if self._reduced:
            return self
        work = dict(self.terms)
        out: Dict[ZMonomial, ExactComplex] = {}
        while work:
            m, c = work.popitem()
            if c.is_zero():
                continue
            if m.has_redex():
                base = m.strip_leading_pair()
                add_term(work, base, c)
                for i in range(1, self.n):
                    add_term(work, base.raised_pair(i), -c)
            else:
                add_term(out, m, c)
        result = ZPoly(self.n, out)
        result._reduced = True
        return result

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, coords: Sequence[ExactComplex]) -> ExactComplex:
        self._check_point(coords)
        conj = [c.conj() for c in coords]
        total = EC_ZERO
        for m, coeff in self.terms.items():
            total = total + m.evaluate(coords, conj, coeff)
        return total

    def evaluate_float(self, coords: Sequence[complex]) -> complex:
        self._check_point(coords)
        coords = [complex(c) for c in coords]
        conj = [c.conjugate() for c in coords]
        total = 0j
        for m, coeff in self.terms.items():
            total += m.evaluate(coords, conj, coeff.to_complex())
        return total

    def _check_point(self, coords: Sequence) -> None:
        if len(coords) != self.n:
            raise DimensionError(
                f"point has {len(coords)} coordinates, polynomial expects {self.n}"
            )


def sphere_relation(n: int) -> ZPoly:
    """sum_i z_i z_i~ - 1, the defining relation of the sphere."""
    terms: Dict[ZMonomial, ExactComplex] = {}
    for i in range(n):
        a = [0] * n
        b = [0] * n
        a[i] = 1
        b[i] = 1
        terms[ZMonomial(a, b)] = EC_ONE
    add_term(terms, _unit_monomial(n), -EC_ONE)
    return ZPoly(n, terms)


def compositions(total: int, parts: int) -> Iterator[tuple]:
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def reduced_monomials(n: int, weight: int, max_degree: int) -> Iterator[ZMonomial]:
    """All canonical monomials of the given weight and degree <= max_degree."""
    start = abs(weight)
    for deg in range(start, max_degree + 1, 2):
        sa = (deg + weight) // 2
        sb = (deg - weight) // 2
        for a in compositions(sa, n):
            for b in compositions(sb, n):
                if a[0] > 0 and b[0] > 0:
                    continue
                yield ZMonomial(a, b)
