"""The half-liberated real sphere algebra via its faithful crossed-product model.

Generators v_1..v_n are self-adjoint, satisfy sum v_i^2 = 1 and half-commute:
v_i v_j v_k = v_k v_j v_i.  An element of the crossed product of the complex
sphere ring by conjugation is a pair (f0, f1), standing for f0 x 1 + f1 x tau,
with f0 of circle weight 0 and f1 of weight 1.  Multiplication twists by tau:

    (x0, x1) (y0, y1) = (x0 y0 + x1 tau(y1), x0 y1 + x1 tau(y0))

and the embedding v_i -> (0, z_i) is faithful, so two noncommutative
polynomials in the v_i are equal iff their images agree.  Canonical form of a
word v_{i1} v_{i2} ... is the single monomial z_{i1} z_{i2}~ z_{i3} z_{i4}~ ...
with conjugations alternating, placed in the even or odd component by the
parity of the word length.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Dict, Tuple

from .errors import DimensionError
from .scalars import EC_ONE, ExactComplex, Fraction, SparseTerms, add_term
from .sphere_ring import ZMonomial, ZPoly

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
    terms: Dict[ZMonomial, ExactComplex] = {}
    for i in range(n):
        a = [0] * n
        a[i] = 2
        terms[ZMonomial(a, (0,) * n)] = EC_ONE
    return ZPoly(n, terms)


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
            f0 = self.f0 * other.f0 + self.f1 * other.f1.tau()
            f1 = self.f0 * other.f1 + self.f1 * other.f0.tau()
            return CrossedElem(f0, f1)
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
        zero = ZPoly.zero(self.n)
        return CrossedElem(self.f0, zero), CrossedElem(zero, self.f1)

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
    monomial z_{i1} z_{i2}~ z_{i3} ... with alternating conjugation."""
    n = p.n
    even: Dict[ZMonomial, ExactComplex] = {}
    odd: Dict[ZMonomial, ExactComplex] = {}
    for word, coeff in p.terms.items():
        a = [0] * n
        b = [0] * n
        for pos, letter in enumerate(word):
            if pos % 2 == 0:
                a[letter - 1] += 1
            else:
                b[letter - 1] += 1
        target = even if len(word) % 2 == 0 else odd
        add_term(target, ZMonomial(a, b), coeff)
    return CrossedElem(ZPoly(n, even), ZPoly(n, odd))


def nc_equal(p: NCPoly, q: NCPoly) -> bool:
    """Equality in the half-liberated sphere algebra, via the faithful model."""
    if p.n != q.n:
        raise DimensionError("dimension mismatch")
    return pi(p) == pi(q)


def _even_word(m: ZMonomial) -> Word:
    """Interleave the sorted z letters with the sorted z~ letters."""
    zs = [i + 1 for i, e in enumerate(m.a) for _ in range(e)]
    ws = [i + 1 for i, e in enumerate(m.b) for _ in range(e)]
    word = []
    for x, y in zip(zs, ws):
        word.append(x)
        word.append(y)
    return tuple(word)


def nc_lift(x: CrossedElem) -> NCPoly:
    """A noncommutative representative with pi(nc_lift(x)) == x.

    Even monomials lift to the interleaved word of their letters; weight-one
    monomials factor out the lowest-index letter with surplus z exponent and
    append it to the lift of the remaining weight-zero monomial.  Distinct
    canonical monomials produce distinct words, so no coefficients collide.
    """
    terms: Dict[Word, ExactComplex] = {}
    for m, c in x.f0.terms.items():
        terms[_even_word(m)] = c
    for m, c in x.f1.terms.items():
        k = next(i for i in range(m.n) if m.a[i] > m.b[i])
        rest = m.lowered_a(k)
        terms[_even_word(rest) + (k + 1,)] = c
    return NCPoly(x.n, terms)
