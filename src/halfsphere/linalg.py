"""Exact sparse row reduction over the Gaussian rationals, in Gaussian-integer rows.

A vector is a dict mapping column index to a scalar: an ExactComplex, or a
Gaussian integer written as a pair (re, im) of ints.  A pair vector carries
no zero entries; an ExactComplex vector may, and integral drops them.
Scaling never changes a span, so every vector is first scaled to Gaussian
integers (integral) and elimination runs fraction-free from there on.

Echelon keeps a reduced row echelon form incrementally.  Each stored row is
an RREF row (pivot coefficient one, no support on any other pivot column)
times the one positive rational that makes it a primitive Gaussian-integer
vector: its pivot entry is a positive integer d and the gcd of all its real
and imaginary parts is 1.  That form is unique for each RREF row, so dict
equality of the stored rows decides span equality.  A row clears its pivot
column p from a vector v as d*v - v[p]*row, with no division; the integer
content of a new or updated row is divided out once.  rows() and pivots
give the Gaussian-rational RREF, each row divided by its pivot entry.

nullspace returns the kernel in that same form without a second elimination:
it eliminates the functionals on reversed column order, so each of their
pivots is the last column of its row, and the kernel vector of a free column
f then starts at f and meets no other free column.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Dict, Iterable, List, Tuple

from .scalars import ExactComplex

Vector = Dict[int, ExactComplex]
ZVector = Dict[int, Tuple[int, int]]


def integral(vec) -> ZVector:
    """vec times the lcm of its denominators, as (re, im) pairs of ints,
    without its zero entries.

    A vector that is already in pairs is returned as it is: pair vectors
    carry no zeros.
    """
    if type(next(iter(vec.values()), None)) is tuple:
        return vec
    den = reduce(lcm, (q.denominator for x in vec.values() for q in (x.re, x.im)), 1)
    return {
        c: (x.re.numerator * (den // x.re.denominator),
            x.im.numerator * (den // x.im.denominator))
        for c, x in vec.items()
        if x.re or x.im
    }


def _primitive(row: ZVector) -> ZVector:
    """row divided by the gcd of all its real and imaginary parts."""
    g = 0
    for a, b in row.values():
        g = gcd(g, a, b)
        if g == 1:
            return row
    return {c: (a // g, b // g) for c, (a, b) in row.items()}


def _subtract(out: ZVector, x: Tuple[int, int], row: ZVector, skip: int) -> None:
    """out -= x * row on every column but skip, dropping entries that cancel."""
    a, b = x
    for c, (s, t) in row.items():
        if c == skip:
            continue
        re, im = a * s - b * t, a * t + b * s
        cur = out.get(c)
        if cur is None:
            out[c] = (-re, -im)
        else:
            re, im = cur[0] - re, cur[1] - im
            if re or im:
                out[c] = (re, im)
            else:
                del out[c]


def _rational(row: ZVector, p: int) -> Vector:
    """The RREF row: row divided by its pivot entry."""
    d = row[p][0]
    return {c: ExactComplex(Fraction(a, d), Fraction(b, d)) for c, (a, b) in row.items()}


class Echelon:
    __slots__ = ("int_rows",)

    def __init__(self):
        # pivot column -> primitive Gaussian-integer row with a positive pivot entry
        self.int_rows: Dict[int, ZVector] = {}

    @property
    def dimension(self) -> int:
        return len(self.int_rows)

    @property
    def pivots(self) -> Dict[int, Vector]:
        """The Gaussian-rational RREF rows by pivot column, as a fresh dict."""
        return {p: _rational(row, p) for p, row in self.int_rows.items()}

    def reduce_vector(self, vec) -> ZVector:
        """A nonzero multiple of the residue of vec modulo the row space, as
        a Gaussian-integer vector (vec is not mutated).

        Stored rows have no support on any other pivot column, so subtracting
        one never creates a new pivot hit: the pivot columns to clear are
        exactly those of vec.  They are cleared in one pass over the lcm L of
        their pivot entries d_p: L*v - sum_p (L/d_p) v[p] row_p.
        """
        v = integral(vec)
        rows = self.int_rows
        hit = [c for c in v if c in rows]
        if not hit:
            return dict(v)
        scale = reduce(lcm, (rows[p][p][0] for p in hit))
        out = {c: (a * scale, b * scale) for c, (a, b) in v.items() if c not in rows}
        for p in hit:
            row = rows[p]
            f = scale // row[p][0]
            a, b = v[p]
            _subtract(out, (a * f, b * f), row, p)
        return out

    def contains(self, vec) -> bool:
        return not self.reduce_vector(vec)

    def insert(self, vec) -> bool:
        """Add vec to the span; returns True when the rank grows."""
        r = self.reduce_vector(vec)
        if not r:
            return False
        p = min(r)
        a, b = r[p]
        # make the pivot entry a positive integer
        if b:
            r = {c: (x * a + y * b, y * a - x * b) for c, (x, y) in r.items()}
        elif a < 0:
            r = {c: (-x, -y) for c, (x, y) in r.items()}
        row = _primitive(r)
        d = row[p][0]
        # restore full reduction: clear column p from the existing rows
        rows = self.int_rows
        for q, other in rows.items():
            x = other.get(p)
            if x is None:
                continue
            new = {c: (d * s, d * t) for c, (s, t) in other.items() if c != p}
            _subtract(new, x, row, p)
            rows[q] = _primitive(new)
        rows[p] = row
        return True

    def rows(self) -> List[Vector]:
        rows = self.int_rows
        return [_rational(rows[p], p) for p in sorted(rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Echelon):
            return NotImplemented
        return self.int_rows == other.int_rows

    def __repr__(self) -> str:
        return f"Echelon(rank={self.dimension})"


def echelon_from(vectors: Iterable) -> Echelon:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech


def nullspace(rows: Iterable, ncols: int) -> Echelon:
    """The joint kernel of the given functionals on Q(i)^ncols, as an Echelon.

    The functionals are row reduced on reversed column order, so each pivot p
    is the last column of its row.  The kernel vector of a free column f is
    e_f - sum_p (row_p[f] / d_p) e_p, and row_p[f] != 0 only for p > f: the
    vector has its lowest column at f and no other kernel vector has support
    on f.  That is the unique RREF of the kernel; its integer form is the
    vector times the lcm of the d_p it meets, made primitive.
    """
    last = ncols - 1
    flipped = echelon_from({last - c: x for c, x in r.items()} for r in rows)
    # pivot column -> (pivot entry, row on flipped columns)
    pivot_rows = {last - q: (row[q][0], row) for q, row in flipped.int_rows.items()}
    kernel = Echelon()
    for free in range(ncols):
        if free in pivot_rows:
            continue
        hits = [
            (p, d, row[last - free])
            for p, (d, row) in pivot_rows.items()
            if last - free in row
        ]
        scale = reduce(lcm, (d for _, d, _ in hits), 1)
        vec: ZVector = {free: (scale, 0)}
        for p, d, (a, b) in hits:
            f = scale // d
            vec[p] = (-a * f, -b * f)
        kernel.int_rows[free] = _primitive(vec)
    return kernel
