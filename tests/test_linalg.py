"""Exact row reduction: the kernel returned by nullspace."""

from hypothesis import given, settings, strategies as st

from halfsphere.linalg import Echelon, echelon_from, nullspace
from halfsphere.scalars import EC_ONE, ExactComplex

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
    diff = dict(vec)
    for c, x in residue.items():
        diff[c] = diff.get(c, ExactComplex()) - x
    assert ech.contains({c: x for c, x in diff.items() if not x.is_zero()})
    assert residue == min_column_rescan(ech, vec)
    assert ech.pivots == before
