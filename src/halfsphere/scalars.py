"""Exact Gaussian-rational scalars and the floating tolerance policy.

All canonical computation in this package runs over Q(i): complex numbers
whose real and imaginary parts are arbitrary-precision rationals, so equality
of canonical forms is decidable with zero tolerance.  Floating point enters
only through approximate evaluation at user-supplied float points; such
comparisons go through approx_eq with a relative epsilon.

SparseTerms is the shared core of the package's polynomial classes: a
finite linear combination of keys over Q(i) that never stores a zero
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DimensionError

Rational = Fraction

DEFAULT_EPSILON = 1e-9


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class ExactComplex:
    """A Gaussian rational re + im*i."""

    re: Rational = Fraction(0)
    im: Rational = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    @staticmethod
    def of(re, im=0) -> "ExactComplex":
        return ExactComplex(Fraction(re), Fraction(im))

    def conj(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def modulus_squared(self) -> Rational:
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, ExactComplex):
            return ExactComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return ExactComplex(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactComplex(self.re / other, self.im / other)
        if isinstance(other, ExactComplex):
            m = other.modulus_squared()
            if m == 0:
                raise ZeroDivisionError("division by zero ExactComplex")
            return (self * other.conj()) / m
        return NotImplemented

    def __pow__(self, exponent: int) -> "ExactComplex":
        if exponent < 0:
            raise ValueError("negative exponent on ExactComplex")
        result = EC_ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:  # debugging aid; canonical printing lives in parsing
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


EC_ZERO = ExactComplex()
EC_ONE = ExactComplex(Fraction(1))
EC_I = ExactComplex(Fraction(0), Fraction(1))


def exact_sqrt(value: Rational):
    """Square root of a nonnegative rational, or None when it is not rational.

    A reduced fraction is a square iff numerator and denominator both are.
    """
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def approx_eq(a, b, eps: float = DEFAULT_EPSILON) -> bool:
    """Relative comparison |a-b| <= eps * max(1, |a|, |b|) for floats/complex."""
    return abs(a - b) <= eps * max(1.0, abs(a), abs(b))


def approx_zero(a, eps: float = DEFAULT_EPSILON) -> bool:
    return abs(a) <= eps


def add_term(d: dict, key, c: ExactComplex) -> None:
    """Add c to the coefficient of key in d, dropping the key if it becomes zero."""
    cur = d.get(key)
    total = c if cur is None else cur + c
    if total.is_zero():
        d.pop(key, None)
    else:
        d[key] = total


class SparseTerms:
    """A linear combination sum c_k * k over Q(i) with no zero coefficient.

    Subclasses fix what a key is: _key validates and normalises one,
    _key_mul multiplies two, _unit_key is the key of the constants, and
    _key_degree and _sort_key order them.  The defaults below serve tuple
    keys whose degree is their length.  Equality and hashing are structural
    and never hold between different subclasses.  Each subclass binds
    __mul__ and __rmul__ in its own body, so a profiler that wraps methods
    found in one class's __dict__ (as perfbench's tracer does) counts each
    class apart.
    """

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: dict | None = None):
        if n < 1:
            raise DimensionError("dimension n must be at least 1")
        self.n = n
        clean: dict = {}
        if terms:
            key = self._key
            for k, c in terms.items():
                add_term(clean, key(n, k), c)
        self.terms = clean
        self._hash = None

    @staticmethod
    def _unit_key(n: int):
        return ()

    _key_degree = staticmethod(len)

    @staticmethod
    def _sort_key(k):
        return (len(k), k)

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    @classmethod
    def one(cls, n: int):
        return cls.constant(n, EC_ONE)

    @classmethod
    def constant(cls, n: int, c: ExactComplex):
        return cls(n, {cls._unit_key(n): c})

    def __add__(self, other):
        if self.n != other.n:
            raise DimensionError("dimension mismatch in addition")
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return type(self)(self.n, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.n, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, cls):
            if self.n != other.n:
                raise DimensionError("dimension mismatch in multiplication")
            key_mul = self._key_mul
            out: dict = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    add_term(out, key_mul(k1, k2), c1 * c2)
            return cls(self.n, out)
        if isinstance(other, (ExactComplex, int, Fraction)):
            c = other if isinstance(other, ExactComplex) else ExactComplex.of(other)
            return cls(self.n, {k: v * c for k, v in self.terms.items()})
        return NotImplemented

    @property
    def degree(self) -> int:
        """Maximal key degree; 0 for the zero polynomial."""
        return max(map(self._key_degree, self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        sort_key = self._sort_key
        return sorted(self.terms.items(), key=lambda t: sort_key(t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, {len(self.terms)} terms)"
