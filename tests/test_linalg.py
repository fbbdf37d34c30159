"""Exact row reduction: Gaussian-integer rows against a Fraction-based
reference, and the kernel returned by nullspace."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from halfsphere.linalg import Echelon, echelon_from, integral, nullspace
from halfsphere.scalars import EC_ONE, ExactComplex, add_term


class RationalEchelon:
    """Reference RREF with Gaussian-rational rows of pivot coefficient one."""

    def __init__(self, vectors=()):
        self.pivots = {}
        for v in vectors:
            self.insert(v)

    def reduce_vector(self, vec):
        v = dict(vec)
        for col in [c for c in vec if c in self.pivots]:
            ncoef = -v.pop(col)
            for c, rc in self.pivots[col].items():
                if c != col:
                    add_term(v, c, ncoef * rc)
        return v

    def contains(self, vec):
        return not self.reduce_vector(vec)

    def insert(self, vec):
        r = self.reduce_vector(vec)
        if not r:
            return False
        p = min(r)
        inv = EC_ONE / r[p]
        row = {c: coef * inv for c, coef in r.items()}
        for other in self.pivots.values():
            coef = other.pop(p, None)
            if coef is not None:
                for c, rc in row.items():
                    if c != p:
                        add_term(other, c, -coef * rc)
        self.pivots[p] = row
        return True

    def rows(self):
        return [dict(self.pivots[p]) for p in sorted(self.pivots)]


def reference_nullspace(rows, ncols):
    """The kernel's RREF from the reference rows on reversed column order."""
    last = ncols - 1
    flipped = RationalEchelon({last - c: x for c, x in r.items()} for r in rows)
    pivot_rows = {last - q: row for q, row in flipped.pivots.items()}
    kernel = RationalEchelon()
    for free in range(ncols):
        if free not in pivot_rows:
            vec = {free: EC_ONE}
            for p, row in pivot_rows.items():
                if last - free in row:
                    vec[p] = -row[last - free]
            kernel.pivots[free] = vec
    return kernel


def assert_primitive_rows(ech):
    """Every stored row is a primitive Gaussian-integer vector whose pivot
    entry is a positive integer."""
    for p, row in ech.int_rows.items():
        assert min(row) == p
        assert all(type(a) is int and type(b) is int for a, b in row.values())
        assert row[p][1] == 0 and row[p][0] > 0
        assert gcd(*(x for pair in row.values() for x in pair)) == 1


def as_exact(x):
    return ExactComplex(*x) if isinstance(x, tuple) else x


def monic(vec):
    """vec divided by its entry at the lowest column."""
    if not vec:
        return {}
    lead = as_exact(vec[min(vec)])
    return {c: as_exact(x) / lead for c, x in vec.items()}

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
nonzero = st.builds(ExactComplex, small, small).filter(lambda c: not c.is_zero())


@st.composite
def functionals(draw):
    ncols = draw(st.integers(0, 9))
    if ncols == 0:
        return [], 0
    row = st.dictionaries(st.integers(0, ncols - 1), nonzero, max_size=min(ncols, 5))
    return draw(st.lists(row, max_size=7)), ncols


def apply(row, vec):
    total = ExactComplex()
    for c, x in row.items():
        if c in vec:
            total = total + x * vec[c]
    return total


def min_column_kernel(rows, ncols):
    """The kernel by min-column elimination, re-echelonized afterwards."""
    reduced = {min(r): r for r in echelon_from(rows).rows()}
    kernel = []
    for free in range(ncols):
        if free in reduced:
            continue
        vec = {free: EC_ONE}
        for p, r in reduced.items():
            if free in r:
                vec[p] = -r[free]
        kernel.append(vec)
    return echelon_from(kernel)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(functionals())
def test_nullspace_is_the_rref_of_the_kernel(case):
    rows, ncols = case
    kernel = nullspace(rows, ncols)
    assert isinstance(kernel, Echelon)
    vectors = kernel.rows()
    for row in rows:
        for vec in vectors:
            assert apply(row, vec).is_zero()
    assert kernel.dimension == ncols - echelon_from(rows).dimension
    assert kernel == echelon_from(vectors)
    assert kernel == min_column_kernel(rows, ncols)


def test_nullspace_of_no_functionals_is_everything():
    kernel = nullspace([], 3)
    assert kernel.rows() == [{0: EC_ONE}, {1: EC_ONE}, {2: EC_ONE}]


def min_column_rescan(ech, vec):
    """Residue by repeatedly clearing the lowest pivot column still present."""
    v = dict(vec)
    while True:
        hit = [c for c in v if c in ech.pivots]
        if not hit:
            return v
        col = min(hit)
        coef = v.pop(col)
        for c, rc in ech.pivots[col].items():
            if c != col:
                v[c] = v.get(c, ExactComplex()) - coef * rc
                if v[c].is_zero():
                    del v[c]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(functionals(), st.data())
def test_reduce_vector_clears_every_pivot_in_one_pass(case, data):
    rows, ncols = case
    if ncols == 0:
        return
    ech = echelon_from(rows)
    vec = data.draw(
        st.dictionaries(st.integers(0, ncols - 1), nonzero, max_size=ncols)
    )
    before = {p: dict(r) for p, r in ech.pivots.items()}
    residue = ech.reduce_vector(vec)
    assert not set(residue) & set(ech.pivots)
    expected = min_column_rescan(ech, vec)
    diff = dict(vec)
    for c, x in expected.items():
        diff[c] = diff.get(c, ExactComplex()) - x
    assert ech.contains({c: x for c, x in diff.items() if not x.is_zero()})
    # the residue is returned up to a nonzero scalar
    assert monic(residue) == monic(expected)
    assert ech.pivots == before


# -- Gaussian-integer rows against the reference -----------------------------

wide = st.builds(
    Fraction,
    st.integers(-(2**64), 2**64),
    st.sampled_from([1, 2, 3, 7, 12, 2**32 + 15, 3**40]),
)
# real and imaginary scalars too, so residues meet negative real pivots
wide_scalar = st.one_of(
    st.builds(ExactComplex, wide, wide),
    st.builds(ExactComplex, wide),
    st.builds(ExactComplex, st.just(Fraction(0)), wide),
).filter(lambda c: not c.is_zero())


@st.composite
def spanning_sets(draw):
    """Vectors with mixed denominators, some of them combinations of others."""
    ncols = draw(st.integers(1, 8))
    cols = st.integers(0, ncols - 1)
    vectors = draw(
        st.lists(st.dictionaries(cols, wide_scalar, min_size=1, max_size=4), max_size=6)
    )
    for _ in range(draw(st.integers(0, 3)) if vectors else 0):
        u, w = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
        s = draw(wide_scalar)
        combo = dict(u)
        for c, x in w.items():
            add_term(combo, c, s * x)
        if combo:
            vectors.append(combo)
    return ncols, vectors


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spanning_sets(), st.data())
def test_integer_rows_match_the_rational_reference(case, data):
    ncols, vectors = case
    reference = RationalEchelon(vectors)
    order = data.draw(st.permutations(range(len(vectors))))
    ech = Echelon()
    for k in order:
        scale = data.draw(wide_scalar)
        scaled = {c: scale * x for c, x in vectors[k].items()}
        if data.draw(st.booleans()):
            scaled = integral(scaled)
        ech.insert(scaled)
    assert_primitive_rows(ech)
    assert ech.dimension == len(reference.pivots)
    assert ech.rows() == reference.rows()
    assert ech == echelon_from(vectors)
    probes = data.draw(
        st.lists(st.dictionaries(st.integers(0, ncols - 1), wide_scalar, max_size=3), max_size=4)
    )
    for probe in probes + vectors:
        assert ech.contains(probe) == reference.contains(probe)


@st.composite
def high_bit_functionals(draw):
    """Power rows sum_c w_c z^c, like point evaluations of monomials, plus a
    dependent sum of two of them."""
    ncols = draw(st.integers(1, 10))
    points = draw(st.lists(wide_scalar, min_size=1, max_size=4))
    weights = [draw(st.sampled_from([EC_ONE, ExactComplex(0, 1), ExactComplex(0)]))
               for _ in range(ncols)]
    rows = []
    for z in points:
        row = {c: w * z**c for c, w in enumerate(weights) if not w.is_zero()}
        if row:
            rows.append(row)
    if len(rows) >= 2:
        combo = dict(rows[0])
        for c, x in rows[1].items():
            add_term(combo, c, x)
        if combo:
            rows.append(combo)
    return rows, ncols


@settings(max_examples=60, deadline=None, derandomize=True)
@given(high_bit_functionals())
def test_nullspace_matches_the_rational_reference(case):
    rows, ncols = case
    kernel = nullspace(rows, ncols)
    reference = reference_nullspace(rows, ncols)
    assert_primitive_rows(kernel)
    assert kernel.rows() == reference.rows()
    assert kernel == echelon_from(reference.rows())


ZERO = ExactComplex(0)


def test_explicit_zero_entries_are_dropped():
    ech = Echelon()
    assert ech.insert({0: ZERO, 1: EC_ONE})
    assert ech.int_rows == {1: {1: (1, 0)}}
    assert ech.rows() == [{1: EC_ONE}]
    assert ech.contains({1: EC_ONE}) and ech.contains({0: ZERO, 1: EC_ONE})
    assert integral({0: ZERO, 2: ExactComplex(Fraction(1, 2))}) == {2: (1, 0)}
    assert nullspace([{0: ZERO, 1: EC_ONE}], 2) == nullspace([{1: EC_ONE}], 2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(functionals(), st.data())
def test_explicit_zeros_change_no_answer(case, data):
    rows, ncols = case
    if ncols == 0:
        return
    columns = st.sets(st.integers(0, ncols - 1), max_size=ncols)
    padded = [{**{c: ZERO for c in data.draw(columns)}, **r} for r in rows]
    vec = data.draw(st.dictionaries(st.integers(0, ncols - 1), nonzero, max_size=ncols))
    padded_vec = {**{c: ZERO for c in data.draw(columns)}, **vec}
    plain, with_zeros = echelon_from(rows), echelon_from(padded)
    assert with_zeros == plain
    assert_primitive_rows(with_zeros)
    assert with_zeros.rows() == plain.rows()
    assert with_zeros.contains(padded_vec) == plain.contains(vec)
    assert with_zeros.insert(padded_vec) == plain.insert(vec)
    assert with_zeros == plain
    assert nullspace(padded, ncols) == nullspace(rows, ncols)
