"""The half-liberated real sphere algebra via its faithful crossed-product model.

Generators v_1..v_n are self-adjoint, satisfy sum v_i^2 = 1 and half-commute:
v_i v_j v_k = v_k v_j v_i.  The model is the crossed product of the complex
sphere ring by conjugation tau, which swaps z and z~.  Its elements are sums
of terms c z^a z~^b tau^g, and one rule multiplies them:

    (m1 tau^g1)(m2 tau^g2) = m1 tau^g1(m2) tau^(g1+g2)

CrossedTerms holds such sums before reduction, keyed (g, m) with m = (a, b)
the ZPoly monomial z^a z~^b.  A canonical element, CrossedElem, is the pair
(f0, f1) = f0 x 1 + f1 x tau of reduced components, with f0 of circle
weight 0 and f1 of weight 1.  The embedding v_i -> (0, z_i) is faithful,
so two noncommutative polynomials in the v_i are equal iff their images
agree.  Canonical form of a word v_{i1} v_{i2} ... is the single monomial
z_{i1} z_{i2}~ z_{i3} z_{i4}~ ... with conjugations alternating, placed in
the even or odd component by the parity of the word length.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .errors import DimensionError
from .scalars import EC_ONE, ExactComplex, SparseTerms, add_term
from .sphere_ring import Monomial, ZPoly, monomial_degree

Word = Tuple[int, ...]


class NCPoly(SparseTerms):
    """A noncommutative polynomial in v_1..v_n; purely syntactic.

    __eq__ is structural (same words, same coefficients).  Equality in the
    algebra is nc_equal, decided through the crossed-product image.
    """

    __slots__ = ()

    @staticmethod
    def _key(n: int, w) -> Word:
        if any(not 1 <= i <= n for i in w):
            raise DimensionError(f"letter out of range 1..{n} in word {w}")
        return tuple(w)

    _key_mul = staticmethod(operator.add)  # word concatenation

    @classmethod
    def generator(cls, n: int, i: int) -> "NCPoly":
        if not 1 <= i <= n:
            raise DimensionError(f"generator index {i} out of range 1..{n}")
        return cls(n, {(i,): EC_ONE})

    @classmethod
    def from_word(cls, n: int, word: Word, coeff: ExactComplex = EC_ONE) -> "NCPoly":
        return cls(n, {tuple(word): coeff})

    __mul__ = __rmul__ = SparseTerms.__mul__

    def star(self) -> "NCPoly":
        # generators are self-adjoint, so * reverses words and conjugates coefficients
        return NCPoly(
            self.n, {tuple(reversed(w)): c.conj() for w, c in self.terms.items()}
        )


@lru_cache(maxsize=None)
def sum_of_squares(n: int) -> ZPoly:
    """s = z_1^2 + ... + z_n^2, the weight-two twist appearing in gamma."""
    zero = (0,) * n
    return ZPoly(n, {(zero[:i] + (2,) + zero[i + 1:], zero): EC_ONE for i in range(n)})


CrossedKey = Tuple[int, Monomial]


class CrossedTerms(SparseTerms):
    """Terms c z^a z~^b tau^g of the crossed product, keyed (g, (a, b)), unreduced.

    A key is a grade plus a ZPoly key, so of() and crossed() move monomials
    between the two without rebuilding them.  Reduction is a ring
    homomorphism onto the canonical forms, so products may be taken here and
    reduced once, by crossed().
    """

    __slots__ = ()

    @staticmethod
    def _key(n: int, k) -> CrossedKey:
        g, m = k
        if g not in (0, 1):
            raise DimensionError(f"crossed-product grade must be 0 or 1, got {g}")
        return g, ZPoly._key(n, m)

    @staticmethod
    def _key_mul(k1: CrossedKey, k2: CrossedKey) -> CrossedKey:
        (g1, (a1, b1)), (g2, (a2, b2)) = k1, k2
        if g1:
            a2, b2 = b2, a2
        return g1 ^ g2, (tuple(map(operator.add, a1, a2)), tuple(map(operator.add, b1, b2)))

    @staticmethod
    def _unit_key(n: int) -> CrossedKey:
        return 0, ZPoly._unit_key(n)

    _key_degree = staticmethod(lambda k: monomial_degree(k[1]))

    @classmethod
    def generator(cls, n: int, i: int) -> "CrossedTerms":
        """z_i tau, the image of v_i."""
        if not 1 <= i <= n:
            raise DimensionError(f"generator index {i} out of range 1..{n}")
        a = [0] * n
        a[i - 1] = 1
        return cls._trusted(n, {(1, (tuple(a), (0,) * n)): EC_ONE})

    @classmethod
    def of(cls, x: "CrossedElem") -> "CrossedTerms":
        terms = {(0, m): c for m, c in x.f0.terms.items()}
        terms.update({(1, m): c for m, c in x.f1.terms.items()})
        return cls._trusted(x.n, terms)

    __mul__ = __rmul__ = SparseTerms.__mul__

    def crossed(self) -> "CrossedElem":
        """The canonical element: split the terms by grade and reduce."""
        parts: Tuple[dict, dict] = ({}, {})
        for (g, m), c in self.terms.items():
            parts[g][m] = c
        return CrossedElem(*(ZPoly._trusted(self.n, part) for part in parts))


class CrossedElem:
    """A canonical element (f0, f1) = f0 x 1 + f1 x tau of the crossed product.

    The constructor reduces both components and enforces the weight grading:
    f0 must be circle-invariant, f1 of weight one.  Stored components are
    always canonical, so componentwise equality decides algebra equality.
    """

    __slots__ = ("f0", "f1", "_hash")

    def __init__(self, f0: ZPoly, f1: ZPoly):
        if f0.n != f1.n:
            raise DimensionError("component dimension mismatch")
        f0 = f0.reduce()
        f1 = f1.reduce()
        if not f0.is_homogeneous_of_weight(0):
            raise ValueError("even component must have circle weight 0")
        if not f1.is_homogeneous_of_weight(1):
            raise ValueError("odd component must have circle weight 1")
        self.f0 = f0
        self.f1 = f1
        self._hash = None

    @property
    def n(self) -> int:
        return self.f0.n

    @classmethod
    def zero(cls, n: int) -> "CrossedElem":
        return cls(ZPoly.zero(n), ZPoly.zero(n))

    @classmethod
    def unit(cls, n: int) -> "CrossedElem":
        return cls(ZPoly.one(n), ZPoly.zero(n))

    @classmethod
    def generator(cls, n: int, i: int) -> "CrossedElem":
        """The image (0, z_i) of v_i."""
        return cls(ZPoly.zero(n), ZPoly.generator(n, i))

    def __add__(self, other: "CrossedElem") -> "CrossedElem":
        return CrossedElem(self.f0 + other.f0, self.f1 + other.f1)

    def __sub__(self, other: "CrossedElem") -> "CrossedElem":
        return CrossedElem(self.f0 - other.f0, self.f1 - other.f1)

    def __neg__(self) -> "CrossedElem":
        return CrossedElem(-self.f0, -self.f1)

    def __mul__(self, other):
        if isinstance(other, CrossedElem):
            if self.n != other.n:
                raise DimensionError("dimension mismatch in multiplication")
            return (CrossedTerms.of(self) * CrossedTerms.of(other)).crossed()
        if isinstance(other, (ExactComplex, int, Fraction)):
            return CrossedElem(self.f0 * other, self.f1 * other)
        return NotImplemented

    def __rmul__(self, other):
        # scalars commute with everything; CrossedElem * CrossedElem goes via __mul__
        if isinstance(other, (ExactComplex, int, Fraction)):
            return CrossedElem(self.f0 * other, self.f1 * other)
        return NotImplemented

    def star(self) -> "CrossedElem":
        return CrossedElem(self.f0.star(), self.f1.star().tau())

    def grade(self) -> Tuple["CrossedElem", "CrossedElem"]:
        """Even and odd parts of the Z_2-grading by parity of word length."""
        return self.even_part(), self.odd_part()

    def even_part(self) -> "CrossedElem":
        return CrossedElem(self.f0, ZPoly.zero(self.n))

    def odd_part(self) -> "CrossedElem":
        return CrossedElem(ZPoly.zero(self.n), self.f1)

    def nu(self) -> "CrossedElem":
        """The sign automorphism v_i -> -v_i; fixes even, negates odd."""
        return CrossedElem(self.f0, -self.f1)

    def gamma(self) -> "CrossedElem":
        """The conjugation-transport map x -> sum_i v_i x v_i in closed form.

        Expanding (0, z_i)(f0, f1)(0, z_i) gives (z_i z_i~ tau(f0), z_i^2 tau(f1));
        summing over i and reducing yields (tau(f0), s tau(f1)) with s = sum z_i^2.
        """
        return CrossedElem(self.f0.tau(), sum_of_squares(self.n) * self.f1.tau())

    def is_zero(self) -> bool:
        return self.f0.is_zero() and self.f1.is_zero()

    @property
    def degree(self) -> int:
        return max(self.f0.degree, self.f1.degree)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CrossedElem)
            and self.f0 == other.f0
            and self.f1 == other.f1
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.f0, self.f1))
        return self._hash

    def __repr__(self) -> str:
        return f"CrossedElem(f0={self.f0!r}, f1={self.f1!r})"


def pi(p: NCPoly) -> CrossedElem:
    """The faithful representation: the word v_{i1}...v_{ik} goes to the
    monomial z_{i1} z_{i2}~ z_{i3} ... with alternating conjugation, times
    tau^k.  Letters are placed by the parity of their position, without the
    product rule of CrossedTerms, so pi(p q) == pi(p) pi(q) tests that rule."""
    n = p.n
    terms: Dict[CrossedKey, ExactComplex] = {}
    for word, coeff in p.terms.items():
        a = [0] * n
        b = [0] * n
        for pos, letter in enumerate(word):
            if pos % 2 == 0:
                a[letter - 1] += 1
            else:
                b[letter - 1] += 1
        add_term(terms, (len(word) % 2, (tuple(a), tuple(b))), coeff)
    return CrossedTerms._trusted(n, terms).crossed()


def nc_equal(p: NCPoly, q: NCPoly) -> bool:
    """Equality in the half-liberated sphere algebra, via the faithful model."""
    if p.n != q.n:
        raise DimensionError("dimension mismatch")
    return pi(p) == pi(q)


def _even_word(a: Tuple[int, ...], b: Tuple[int, ...]) -> Word:
    """Interleave the sorted z letters of z^a with the sorted z~ letters of z~^b."""
    zs = [i + 1 for i, e in enumerate(a) for _ in range(e)]
    ws = [i + 1 for i, e in enumerate(b) for _ in range(e)]
    word = []
    for x, y in zip(zs, ws):
        word.append(x)
        word.append(y)
    return tuple(word)


def lift_word(grade: int, m: Monomial) -> Word:
    """The word whose image under pi is the canonical monomial m tau^grade.

    An even monomial lifts to the interleaved word of its letters; a
    weight-one monomial factors out the lowest-index letter with surplus z
    exponent and appends it to the lift of the remaining weight-zero
    monomial.  Distinct canonical monomials produce distinct words.
    """
    a, b = m
    if not grade:
        return _even_word(a, b)
    k = next(i for i in range(len(a)) if a[i] > b[i])
    return _even_word(a[:k] + (a[k] - 1,) + a[k + 1:], b) + (k + 1,)


def nc_lift(x: CrossedElem) -> NCPoly:
    """A noncommutative representative with pi(nc_lift(x)) == x, lifting
    each term by lift_word, so no coefficients collide."""
    terms: Dict[Word, ExactComplex] = {}
    for grade, part in enumerate((x.f0, x.f1)):
        for m, c in part.terms.items():
            terms[lift_word(grade, m)] = c
    return NCPoly(x.n, terms)
