"""Truncated ideal spans, the graded <-> even correspondence, pairs, kernels."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from halfsphere.algebra import CrossedElem, CrossedTerms, NCPoly, nc_lift, pi
from halfsphere.errors import DimensionError, PreconditionError
from halfsphere.linalg import echelon_from
from halfsphere.representations import (
    REAL,
    REGULAR,
    SpherePoint,
    classify_point,
    sample_points,
    sample_real_point,
)
from halfsphere.scalars import EC_ONE, ExactComplex
from halfsphere.sphere_ring import monomial_degree, reduced_monomials
from halfsphere.subspaces import (
    IdealSpec,
    TruncationBasis,
    _basis,
    classify_pair,
    even_ideal_span,
    even_to_graded,
    graded_to_even,
    ideal_span,
    is_graded,
    lift_basis,
    membership,
    sampled_f_symmetric,
    vanishing_ideal,
)


def v(n, i):
    return NCPoly.generator(n, i)


def ec(a, b=0):
    return ExactComplex(Fraction(a), Fraction(b))


def words(n, max_len):
    for length in range(max_len + 1):
        yield from product(range(1, n + 1), repeat=length)


def brute_force_span(spec):
    """Literal enumeration of pi(m1 g m2) over all words within the bound."""
    tb = _basis(spec.n, spec.degree_bound)
    vecs = []
    for g in spec.generators:
        img = pi(g)
        budget = spec.degree_bound - g.degree
        for m1 in words(spec.n, budget):
            left = pi(NCPoly.from_word(spec.n, m1)) * img
            for m2 in words(spec.n, budget - len(m1)):
                x = left * pi(NCPoly.from_word(spec.n, m2))
                vecs.append(tb.vector(x))
    return echelon_from(vecs)


# -- span construction ---------------------------------------------------


def test_empty_and_unit_ideals():
    spec = IdealSpec(2, (), 3)
    assert ideal_span(spec).dimension == 0
    one = IdealSpec(2, (NCPoly.one(2),), 0)
    span = ideal_span(one)
    assert span.dimension == 1
    assert span.contains(CrossedElem.unit(2))


@pytest.mark.parametrize(
    "n,gens_fn,d",
    [
        (2, lambda n: (v(n, 1) * v(n, 2) - v(n, 2) * v(n, 1),), 3),
        (2, lambda n: (v(n, 1),), 3),
        (2, lambda n: (v(n, 1) * v(n, 1),), 4),
        (3, lambda n: (v(n, 2), v(n, 1) * v(n, 3)), 3),
        (2, lambda n: (ec(2, 1) * v(n, 2) * v(n, 1),), 4),
    ],
)
def test_ideal_span_matches_brute_force(n, gens_fn, d):
    spec = IdealSpec(n, gens_fn(n), d)
    assert ideal_span(spec).echelon == brute_force_span(spec)


def brute_force_even_span(gens, d, n):
    """Literal enumeration of pi(w1 g w2) over even words within the bound."""
    tb = _basis(n, d)
    vecs = []
    for g in gens:
        img = pi(g)
        budget = d - g.degree
        for m1 in words(n, budget):
            if len(m1) % 2:
                continue
            left = pi(NCPoly.from_word(n, m1)) * img
            for m2 in words(n, budget - len(m1)):
                if len(m2) % 2:
                    continue
                vecs.append(tb.vector(left * pi(NCPoly.from_word(n, m2))))
    return echelon_from(vecs)


def test_even_ideal_span_matches_brute_force():
    n, d = 2, 4
    g = v(n, 1) * v(n, 1)
    assert even_ideal_span((g,), d, n).echelon == brute_force_even_span((g,), d, n)


small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)
gaussian = st.builds(ExactComplex, small_rationals, small_rationals).filter(
    lambda c: not c.is_zero()
)


def generator_strategy(n, lengths):
    word = st.sampled_from(lengths).flatmap(
        lambda k: st.tuples(*[st.integers(1, n)] * k)
    )
    terms = st.dictionaries(word, gaussian, min_size=1, max_size=3)
    return terms.map(lambda t: NCPoly(n, t)).filter(lambda g: g.degree >= 1)


@st.composite
def random_specs(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    top = 4 if n == 4 else 5
    d = top - draw(st.integers(0, top - 2))  # large truncations are the simplest draws
    lengths = tuple(range(min(3, d) + 1))
    gens = draw(st.lists(generator_strategy(n, lengths), min_size=1, max_size=2))
    return IdealSpec(n, tuple(gens), d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_specs())
def test_random_ideal_spans_match_brute_force(spec):
    assert ideal_span(spec).echelon == brute_force_span(spec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_specs())
def test_lift_basis_matches_nc_lift_on_random_spans(spec):
    span = ideal_span(spec)
    assert lift_basis(span) == [nc_lift(b) for b in span.vectors()]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(generator_strategy(3, (0, 2)), min_size=1, max_size=2),
    st.integers(0, 3).map(lambda k: 5 - k),
)
def test_random_even_ideal_spans_match_brute_force(gens, d):
    n = 3
    assert even_ideal_span(gens, d, n).echelon == brute_force_even_span(gens, d, n)


def test_spec_validates_degree_bound():
    with pytest.raises(PreconditionError):
        IdealSpec(2, (v(2, 1) * v(2, 2),), 1)


def test_span_monotonic_in_generators_and_degree():
    n = 2
    small = ideal_span(IdealSpec(n, (v(n, 1),), 3))
    bigger = ideal_span(IdealSpec(n, (v(n, 1), v(n, 2) * v(n, 2)), 3))
    assert all(bigger.contains_vector(r) for r in small.echelon.rows())
    deeper = ideal_span(IdealSpec(n, (v(n, 1),), 4))
    for r in small.echelon.rows():
        assert deeper.contains(small.basis.element(r))


# -- membership ----------------------------------------------------------


def test_membership_examples():
    n = 2
    spec = IdealSpec(n, (v(n, 2),), 3)
    assert membership(spec, v(n, 2))
    assert membership(spec, v(n, 1) * v(n, 2))
    assert not membership(spec, v(n, 1))
    # zero in canonical form, so inside every ideal
    n = 3
    zero = v(n, 1) * v(n, 2) * v(n, 3) - v(n, 3) * v(n, 2) * v(n, 1)
    assert membership(IdealSpec(n, (v(n, 2),), 3), zero)


def test_membership_degree_overflow():
    n = 2
    spec = IdealSpec(n, (v(n, 2),), 3)
    deep = v(n, 1) * v(n, 1) * v(n, 1) * v(n, 1)
    with pytest.raises(PreconditionError):
        membership(spec, deep)
    with pytest.raises(DimensionError):
        membership(spec, NCPoly.generator(3, 1))


# -- grading -------------------------------------------------------------


def test_is_graded_homogeneous_generators():
    n = 2
    assert is_graded(IdealSpec(n, (v(n, 1) * v(n, 1),), 4))
    assert is_graded(IdealSpec(n, (v(n, 1) * v(n, 2) - v(n, 2) * v(n, 1),), 4))


def test_is_graded_mixed_generator_matches_component_test():
    n, d = 2, 4
    g = v(n, 1) * v(n, 1) + v(n, 2)
    spec = IdealSpec(n, (g,), d)
    span = ideal_span(spec)
    split = span.contains(pi(v(n, 1) * v(n, 1))) and span.contains(pi(v(n, 2)))
    assert is_graded(spec) == split


def test_graded_to_even_requires_graded():
    n, d = 2, 3
    spec = IdealSpec(n, (v(n, 1) + v(n, 1) * v(n, 2),), d)
    if not is_graded(spec):
        with pytest.raises(PreconditionError):
            graded_to_even(spec)


def test_graded_to_even_is_even_slice():
    n, d = 2, 4
    spec = IdealSpec(n, (v(n, 1) * v(n, 1),), d)
    even = graded_to_even(spec)
    span = ideal_span(spec)
    for b in even.vectors():
        assert b.f1.is_zero()
        assert span.contains(b)
    assert even.dimension <= span.dimension


def test_odd_part_is_a1_times_even():
    # the odd slice of a graded span is spanned by v_i * (even slice)
    n, d = 2, 4
    spec = IdealSpec(n, (v(n, 1) * v(n, 1),), d)
    span = ideal_span(spec)
    even = graded_to_even(spec)
    tb = span.basis
    odd_rows = []
    for r in span.echelon.rows():
        odd = {c: val for c, val in r.items() if tb.columns[c][0] == 1}
        if odd:
            odd_rows.append(odd)
    products = []
    for b in even.vectors():
        if b.degree + 1 > d:
            continue
        for i in range(1, n + 1):
            products.append(tb.vector(CrossedElem.generator(n, i) * b))
    assert echelon_from(odd_rows) == echelon_from(products)


def test_even_to_graded_example_generators():
    n, d = 2, 4
    g = v(n, 1) * v(n, 1)
    spec = even_to_graded((g,), d, n)
    got = {tuple(sorted(p.terms)) for p in spec.generators}
    want = {
        tuple(sorted((v(n, 1) * v(n, 1)).terms)),
        tuple(sorted((v(n, 1) * v(n, 1) * v(n, 1)).terms)),
        tuple(sorted((v(n, 2) * v(n, 1) * v(n, 1)).terms)),
    }
    assert got == want


def test_even_to_graded_rejects_odd_generator():
    with pytest.raises(PreconditionError):
        even_to_graded((v(2, 1),), 3, 2)


def test_even_to_graded_rejects_gamma_unstable():
    # <v1 v2> at bound 2: gamma swaps the conjugation pattern and the span
    # admits no product to absorb it
    with pytest.raises(PreconditionError):
        even_to_graded((v(2, 1) * v(2, 2),), 2, 2)


def test_round_trips_fixed_cases():
    cases = [
        (2, (v(2, 1),), 3),
        (2, (v(2, 1) * v(2, 1),), 4),
        (2, (v(2, 1) * v(2, 2) - v(2, 2) * v(2, 1),), 4),
        (3, (v(3, 1) * v(3, 2) * v(3, 1),), 5),
    ]
    for n, gens, d in cases:
        spec = IdealSpec(n, gens, d)
        assert is_graded(spec)
        span = ideal_span(spec)
        lifted = tuple(lift_basis(graded_to_even(spec)))
        back = even_to_graded(lifted, d, n)
        assert ideal_span(back) == span
        assert graded_to_even(back) == even_ideal_span(lifted, d, n)


def test_round_trip_artifact_at_boundary():
    # documented truncation artifact: an odd generator of degree d-1 cannot
    # be rebuilt from its even shadow inside the same bound
    n, gens, d = 2, (v(2, 1) * v(2, 2) * v(2, 1),), 4
    spec = IdealSpec(n, gens, d)
    span = ideal_span(spec)
    lifted = tuple(lift_basis(graded_to_even(spec)))
    back = ideal_span(even_to_graded(lifted, d, n))
    assert back.dimension < span.dimension


def test_gamma_unstable_even_slice_at_boundary():
    # <(v1 v2)^2> at d = 4: the even slice is one-dimensional and gamma moves
    # it, so no graded ideal with this even part exists at the truncation
    n, d = 2, 4
    g = v(n, 1) * v(n, 2) * v(n, 1) * v(n, 2)
    lifted = tuple(lift_basis(graded_to_even(IdealSpec(n, (g,), d))))
    with pytest.raises(PreconditionError):
        even_to_graded(lifted, d, n)


# -- pair classification ---------------------------------------------------


def test_zero_ideal_keeps_every_sample():
    n = 2
    rng = Random(3)
    sample = sample_points(n, rng)
    pair = classify_pair(IdealSpec(n, (), 3), sample)
    tags = [classify_point(z).tag for z in sample]
    assert len(pair.E) == tags.count(REGULAR)
    assert len(pair.F) == tags.count(REAL)
    assert not pair.non_classical or len(pair.E) > 0


def test_commutator_pair_is_classical():
    n = 2
    g = v(n, 1) * v(n, 2) - v(n, 2) * v(n, 1)
    spec = IdealSpec(n, (g,), 4)
    rng = Random(9)
    pair = classify_pair(spec, sample_points(n, rng))
    assert pair.E == ()
    assert len(pair.F) == 8
    assert not pair.non_classical
    assert sampled_f_symmetric(pair)


def test_sigma_stability_examples():
    n = 2
    comm = IdealSpec(n, (v(n, 1) * v(n, 2) - v(n, 2) * v(n, 1),), 4)
    assert is_graded(comm)
    shifted = IdealSpec(n, (v(n, 1) - NCPoly.one(n),), 3)
    assert not is_graded(shifted)
    e1 = SpherePoint.from_exact([ec(1), ec(0)])
    pair = classify_pair(shifted, [e1, e1.negate()])
    assert pair.F == (e1,)
    assert not sampled_f_symmetric(pair)


# -- vanishing ideals -------------------------------------------------------


def test_vanishing_ideal_of_nothing_is_everything():
    n, d = 2, 2
    span = vanishing_ideal([], d, n)
    assert span.dimension == len(_basis(n, d).columns)


def test_vanishing_ideal_of_e1_contains_v1_minus_1():
    n, d = 2, 2
    e1 = SpherePoint.from_exact([ec(1), ec(0)])
    span = vanishing_ideal([e1], d, n)
    assert span.contains(pi(v(n, 1) - NCPoly.one(n)))


def test_vanishing_ideal_of_real_sample_contains_commutators():
    n, d = 2, 2
    rng = Random(21)
    pts = [sample_real_point(n, rng) for _ in range(6)]
    span = vanishing_ideal(pts, d, n)
    assert span.contains(pi(v(n, 1) * v(n, 2) - v(n, 2) * v(n, 1)))


def test_vanishing_ideal_rejects_float_points():
    z = SpherePoint.from_floats([0.6, 0.8])
    with pytest.raises(PreconditionError):
        vanishing_ideal([z], 2, 2)


def test_vanishing_contains_span_of_marking_ideal():
    n, d = 2, 3
    g = v(n, 1)
    spec = IdealSpec(n, (g,), d)
    rng = Random(2)
    sample = sample_points(n, rng)
    pair = classify_pair(spec, sample)
    marked = list(pair.E) + list(pair.F)
    if marked:
        kernel = vanishing_ideal(marked, d, n)
        span = ideal_span(spec)
        for r in span.echelon.rows():
            assert kernel.contains_vector(r)


# -- basis plumbing ----------------------------------------------------------


def test_truncation_basis_round_trip():
    n, d = 2, 3
    tb = _basis(n, d)
    x = pi(v(n, 1) * v(n, 2) + ec(1, 2) * v(n, 2))
    assert tb.element(tb.vector(x)) == x


TRUNCATIONS = [(1, 4), (2, 6), (3, 5), (4, 6), (5, 6)]


@pytest.mark.parametrize("n,d", [(2, 5), (3, 4), (4, 3)] + TRUNCATIONS)
def test_shift_tables_match_generator_products(n, d):
    tb = TruncationBasis(n, d)
    for i in range(1, n + 1):
        left, right = tb.shift(0, i), tb.shift(1, i)
        assert len(left) == len(right) == tb.column_count
        vi = CrossedElem.generator(n, i)
        for c, (grade, m) in enumerate(tb.columns):
            if monomial_degree(m) == d:
                assert left[c] is None and right[c] is None
                continue
            e_c = tb.element({c: EC_ONE})
            for table, product in ((left, vi * e_c), (right, e_c * vi)):
                signs = [1] + [-1] * (len(table[c]) - 1)
                entry = {col: ExactComplex(Fraction(s)) for col, s in zip(table[c], signs)}
                assert entry == tb.vector(product)


def _exponent_tuples(total, parts):
    return [t for t in product(range(total + 1), repeat=parts) if sum(t) == total]


@pytest.mark.parametrize("n,d", TRUNCATIONS)
def test_columns_are_the_sorted_canonical_monomials(n, d):
    # canonical monomials of weight 0 and 1 enumerated by brute force
    expected = []
    for grade in (0, 1):
        for deg in range(grade, d + 1, 2):
            for a in _exponent_tuples((deg + grade) // 2, n):
                for b in _exponent_tuples((deg - grade) // 2, n):
                    if not (a[0] and b[0]):
                        expected.append((grade, (a, b)))
    assert sorted(expected, key=lambda c: (c[1], c[0])) == sorted(
        ((g, m) for g in (0, 1) for m in reduced_monomials(n, g, d)),
        key=lambda c: (c[1], c[0]),
    )
    # degree, then grade, then the exponents interleaved as z_1, z_1~, z_2, ...
    expected.sort(
        key=lambda c: (sum(map(sum, c[1])), c[0]) + tuple(e for p in zip(*c[1]) for e in p),
        reverse=True,
    )
    tb = TruncationBasis(n, d)
    assert tb.columns == expected
    assert all(CrossedTerms._key(n, key) == key for key in tb.columns)
    assert all(tb.vector(tb.element({c: EC_ONE})) == {c: EC_ONE} for c in range(len(expected)))


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 5) for d in range(7)])
def test_word_table_lifts_each_column(n, d):
    tb = TruncationBasis(n, d)
    assert len(tb.words) == tb.column_count
    assert len(set(tb.words)) == tb.column_count
    for c, word in enumerate(tb.words):
        assert pi(NCPoly(n, {word: EC_ONE})) == tb.element({c: EC_ONE})


def test_truncation_basis_degree_overflow():
    n, d = 2, 2
    tb = _basis(n, d)
    with pytest.raises(PreconditionError):
        tb.vector(pi(v(n, 1) * v(n, 2) * v(n, 1)))


def test_lift_basis_sections():
    n, d = 2, 4
    span = ideal_span(IdealSpec(n, (v(n, 1) * v(n, 1),), d))
    for b, g in zip(span.vectors(), lift_basis(span)):
        assert pi(g) == b
