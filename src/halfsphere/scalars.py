"""Exact Gaussian-rational scalars and the floating tolerance policy.

All canonical computation in this package runs over Q(i): complex numbers
whose real and imaginary parts are arbitrary-precision rationals, so equality
of canonical forms is decidable with zero tolerance.  Floating point enters
only through user-supplied float points.  Code that works on points takes
its scalar policy from one ops object: EXACT for Gaussian-rational
coordinates, ApproxOps(eps) for floats.  A sphere point carries its own
(representations.SpherePoint.ops, with the tolerance it was made with);
ops_for picks one by value type, at the default tolerance, for values that
belong to no point.  Both offer eps, conj, is_zero, is_real, eq, abs2, real,
coerce, zero, one, sqrt and pivot, so the same body serves exact and
approximate points.

SparseTerms is the shared core of the package's polynomial classes: a
finite linear combination of keys over Q(i) that never stores a zero
coefficient.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from math import isqrt

from .errors import DimensionError, PreconditionError

DEFAULT_EPSILON = 1e-9


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


_new = object.__new__
_set = object.__setattr__


class Frozen:
    """Base of immutable slotted values.

    A subclass lists its fields in __slots__, in constructor order, and sets
    them once through _init.  The fields in _compared (those of _values)
    decide ==, hash and repr; pickles and copies call the constructor again.
    """

    __slots__ = ()
    _compared: tuple = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot change field {name!r} of an immutable value")

    __delattr__ = __setattr__


class ExactComplex(Frozen):
    """A Gaussian rational re + im*i."""

    __slots__ = _compared = ("re", "im")

    def __init__(self, re=0, im=0):
        self._init(_as_fraction(re), _as_fraction(im))

    def _values(self) -> tuple:  # the generic loop, unrolled: scalars compare often
        return self.re, self.im

    @staticmethod
    def of(re, im=0) -> "ExactComplex":
        return _mk(Fraction(re), Fraction(im))

    def conj(self) -> "ExactComplex":
        return _mk(self.re, -self.im)

    def modulus_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return _mk(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return _mk(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactComplex":
        return _mk(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, ExactComplex):
            return _mk(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return _mk(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _mk(self.re / other, self.im / other)
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


def _mk(re: Fraction, im: Fraction) -> ExactComplex:
    """ExactComplex(re, im) for two Fractions, unchecked: arithmetic results."""
    z = _new(ExactComplex)
    _set(z, "re", re)
    _set(z, "im", im)
    return z


EC_ZERO = ExactComplex()
EC_ONE = ExactComplex(Fraction(1))
EC_I = ExactComplex(Fraction(0), Fraction(1))


class ExactOps:
    """Scalar policy of exact points: Gaussian rationals, zero tolerance."""

    eps = 0
    zero = EC_ZERO
    one = EC_ONE
    conj = staticmethod(ExactComplex.conj)
    is_zero = staticmethod(ExactComplex.is_zero)
    is_real = staticmethod(ExactComplex.is_real)
    eq = staticmethod(operator.eq)
    abs2 = staticmethod(ExactComplex.modulus_squared)

    def __reduce__(self):
        return "EXACT"  # pickles and copies as the one module instance

    @staticmethod
    def real(c: ExactComplex) -> ExactComplex:
        return ExactComplex(c.re)

    @staticmethod
    def coerce(c: ExactComplex) -> ExactComplex:
        return c

    @staticmethod
    def sqrt(value):
        """The root of a real rational perfect square, else None.

        A reduced fraction is a square iff numerator and denominator both are.
        """
        if isinstance(value, ExactComplex):
            if not value.is_real():
                return None
            value = value.re
        if value < 0:
            return None
        num, den = value.numerator, value.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn == num and rd * rd == den:
            return ExactComplex(Fraction(rn, rd))
        return None

    @staticmethod
    def pivot(values):
        """Index of the first nonzero value, or None."""
        return next((i for i, v in enumerate(values) if not v.is_zero()), None)


class ApproxOps:
    """Scalar policy of float points: complex numbers compared within eps.

    is_zero and is_real are absolute tests, eq is relative:
    |a - b| <= eps * max(1, |a|, |b|).
    """

    __slots__ = ("eps",)

    zero = 0j
    one = 1 + 0j

    def __init__(self, eps: float = DEFAULT_EPSILON):
        self.eps = eps

    @staticmethod
    def conj(c: complex) -> complex:
        return c.conjugate()

    def is_zero(self, c) -> bool:
        return abs(c) <= self.eps

    def is_real(self, c) -> bool:
        return abs(c.imag) <= self.eps

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.eps * max(1.0, abs(a), abs(b))

    @staticmethod
    def abs2(c) -> float:
        return abs(c) ** 2

    @staticmethod
    def real(c) -> complex:
        return complex(c.real)

    @staticmethod
    def coerce(c) -> complex:
        try:
            return c.to_complex() if isinstance(c, ExactComplex) else complex(c)
        except OverflowError:
            raise PreconditionError("value out of float range") from None

    sqrt = staticmethod(cmath.sqrt)

    def pivot(self, values):
        """Index of the largest value above eps (the first among equals), or None."""
        best, k = self.eps, None
        for i, v in enumerate(values):
            if abs(v) > best:
                best, k = abs(v), i
        return k


EXACT = ExactOps()


def ops_for(values):
    """EXACT when every value is an ExactComplex, else ApproxOps()."""
    if all(isinstance(v, ExactComplex) for v in values):
        return EXACT
    return ApproxOps()


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
    and never hold between different subclasses; sums, differences and
    products across subclasses raise TypeError.  Each subclass binds
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

    @classmethod
    def _trusted(cls, n: int, terms: dict):
        """An instance over terms its own arithmetic built: keys valid, no zero."""
        out = _new(cls)
        out.n = n
        out.terms = terms
        out._hash = None
        return out

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
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError("dimension mismatch in addition")
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return self._trusted(self.n, out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._trusted(self.n, {k: -c for k, c in self.terms.items()})

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
            return self._trusted(self.n, out)
        if isinstance(other, (ExactComplex, int, Fraction)):
            c = other if isinstance(other, ExactComplex) else ExactComplex.of(other)
            if c.is_zero():
                return cls(self.n)
            return self._trusted(self.n, {k: v * c for k, v in self.terms.items()})
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
