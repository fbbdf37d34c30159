"""The complex projective space side and the subspace correspondence Phi.

Coordinates p_ij on P^{n-1}_C are realized inside the sphere ring as
p_ij -> z_i z_j~, the entries of the rank-one projector p = (z_i z_j~)_ij
with p = p* = p^2 and trace 1.  PExpr is the commutative *-algebra they
generate: each term is a multiset of index pairs, kept sorted.

Phi sends p_{i1 j1} ... p_{im jm} to the even word v_{i1} v_{j1} ... v_{im}
v_{jm}; composed with the crossed-product model this is exactly e -> (model
of e, 0), and on even elements the inverse is reading off the f0 component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .algebra import CrossedElem, NCPoly, Word
from .errors import DimensionError, PreconditionError
from .scalars import EC_ONE, ExactComplex, SparseTerms, add_term
from .sphere_ring import ZMonomial, ZPoly

Pair = Tuple[int, int]
PairSeq = Tuple[Pair, ...]


class PExpr(SparseTerms):
    """A polynomial in the projective coordinates p_ij (commuting variables)."""

    __slots__ = ()

    @staticmethod
    def _key(n: int, pairs) -> PairSeq:
        for i, j in pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise DimensionError(f"index pair ({i},{j}) out of range 1..{n}")
        return tuple(sorted(tuple(p) for p in pairs))

    @staticmethod
    def _key_mul(ps1: PairSeq, ps2: PairSeq) -> PairSeq:
        return tuple(sorted(ps1 + ps2))

    @classmethod
    def generator(cls, n: int, i: int, j: int) -> "PExpr":
        return cls(n, {((i, j),): EC_ONE})

    __mul__ = __rmul__ = SparseTerms.__mul__

    def star(self) -> "PExpr":
        """The involution p_ij* = p_ji with coefficients conjugated."""
        out: Dict[PairSeq, ExactComplex] = {}
        for pairs, c in self.terms.items():
            key = tuple(sorted((j, i) for i, j in pairs))
            out[key] = c.conj()
        return PExpr(self.n, out)

    def tau_p(self) -> "PExpr":
        """The conjugation automorphism p_ij -> p_ji, coefficients untouched."""
        out: Dict[PairSeq, ExactComplex] = {}
        for pairs, c in self.terms.items():
            key = tuple(sorted((j, i) for i, j in pairs))
            out[key] = c
        return PExpr(self.n, out)

    def to_model(self) -> ZPoly:
        """Canonical image in the sphere ring under p_ij -> z_i z_j~."""
        terms: Dict[ZMonomial, ExactComplex] = {}
        for pairs, c in self.terms.items():
            a = [0] * self.n
            b = [0] * self.n
            for i, j in pairs:
                a[i - 1] += 1
                b[j - 1] += 1
            add_term(terms, ZMonomial(a, b), c)
        return ZPoly(self.n, terms).reduce()

    def phi(self) -> NCPoly:
        """The subspace correspondence: each pair contributes two letters."""
        terms: Dict[Word, ExactComplex] = {}
        for pairs, c in self.terms.items():
            word: List[int] = []
            for i, j in pairs:
                word.append(i)
                word.append(j)
            add_term(terms, tuple(word), c)
        return NCPoly(self.n, terms)


def phi_inv(x: CrossedElem) -> ZPoly:
    """Inverse correspondence on even elements; the image determines a unique
    projective-space function, returned as its canonical sphere-ring form."""
    if not x.f1.is_zero():
        raise PreconditionError("phi_inv requires an even element (zero odd part)")
    return x.f0


def transport_ideal(gens: Iterable[PExpr]) -> List[NCPoly]:
    """Apply Phi to projective ideal generators, giving even NC generators."""
    return [g.phi() for g in gens]


@dataclass(frozen=True)
class ProjectorReport:
    n: int
    adjoint_ok: bool
    idempotent_ok: bool
    trace_ok: bool

    @property
    def passed(self) -> bool:
        return self.adjoint_ok and self.idempotent_ok and self.trace_ok


def check_projector_relations(n: int) -> ProjectorReport:
    """Verify p = p* = p^2 and tr(p) = 1 for the matrix p = (z_i z_j~) in the
    canonical model."""
    models = {
        (i, j): PExpr.generator(n, i, j).to_model()
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }
    adjoint_ok = all(
        models[(i, j)].star().reduce() == models[(j, i)]
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    idempotent_ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            acc = ZPoly.zero(n)
            for k in range(1, n + 1):
                acc = acc + models[(i, k)] * models[(k, j)]
            if acc.reduce() != models[(i, j)]:
                idempotent_ok = False
    trace = ZPoly.zero(n)
    for i in range(1, n + 1):
        trace = trace + models[(i, i)]
    trace_ok = trace.reduce() == ZPoly.one(n)
    return ProjectorReport(n, adjoint_ok, idempotent_ok, trace_ok)
