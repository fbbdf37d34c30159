"""Exact sparse row reduction over the Gaussian rationals.

Vectors are dicts mapping column index to a nonzero ExactComplex.  The
Echelon class keeps a reduced row echelon form incrementally: each stored row
has pivot coefficient one and no support on any other pivot column, so the
row set is the unique RREF of everything inserted and dict equality of rows
decides span equality.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from .scalars import EC_ONE, ExactComplex, add_term

Vector = Dict[int, ExactComplex]


class Echelon:
    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: Dict[int, Vector] = {}

    @property
    def dimension(self) -> int:
        return len(self.pivots)

    def reduce_vector(self, vec: Vector) -> Vector:
        """Residue of vec modulo the current row space (vec is not mutated)."""
        v = dict(vec)
        while True:
            hit = [c for c in v if c in self.pivots]
            if not hit:
                return v
            col = min(hit)
            ncoef = -v.pop(col)
            for c, rc in self.pivots[col].items():
                if c != col:
                    add_term(v, c, ncoef * rc)

    def contains(self, vec: Vector) -> bool:
        return not self.reduce_vector(vec)

    def insert(self, vec: Vector) -> bool:
        """Add vec to the span; returns True when the rank grows."""
        r = self.reduce_vector(vec)
        if not r:
            return False
        p = min(r)
        inv = EC_ONE / r[p]
        row = {c: coef * inv for c, coef in r.items()}
        # restore full reduction: clear column p from the existing rows
        for other in self.pivots.values():
            coef = other.pop(p, None)
            if coef is None:
                continue
            ncoef = -coef
            for c, rc in row.items():
                if c != p:
                    add_term(other, c, ncoef * rc)
        self.pivots[p] = row
        return True

    def rows(self) -> List[Vector]:
        return [dict(self.pivots[p]) for p in sorted(self.pivots)]

    def row_signature(self):
        """Hashable canonical presentation of the row space."""
        return tuple(
            (p, tuple(sorted(self.pivots[p].items())))
            for p in sorted(self.pivots)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Echelon):
            return NotImplemented
        return self.pivots == other.pivots

    def __repr__(self) -> str:
        return f"Echelon(rank={self.dimension})"


def echelon_from(vectors: Iterable[Vector]) -> Echelon:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech


def nullspace(rows: Iterable[Vector], ncols: int) -> List[Vector]:
    """Basis of the joint kernel of the given functionals on Q(i)^ncols."""
    ech = echelon_from(rows)
    pivot_cols = set(ech.pivots)
    kernel: List[Vector] = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec: Vector = {free: EC_ONE}
        for p, row in ech.pivots.items():
            coef = row.get(free)
            if coef is not None:
                vec[p] = -coef
        kernel.append(vec)
    return kernel
