"""Expression/point parsing and the canonical printers."""

from fractions import Fraction
from random import Random
from time import perf_counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from halfsphere.algebra import NCPoly, pi
from halfsphere.cli import run
from halfsphere.errors import DimensionError, MixedAlphabetError, ParseError
from halfsphere.parsing import (
    format_lift,
    format_ncpoly,
    format_pexpr,
    format_point,
    format_scalar,
    format_zpoly,
    parse_expr,
    parse_model,
    parse_point,
)
from halfsphere.projective import PExpr
from halfsphere.representations import SpherePoint, rational_unit_vector
from halfsphere.scalars import EC_ONE, ExactComplex


def ec(a, b=0):
    return ExactComplex(Fraction(a), Fraction(b))


# -- parsing -------------------------------------------------------------


def test_parse_v_expression():
    r = parse_expr("v1*v2*v3 - v3*v2*v1", 3)
    assert r.kind == "v"
    assert len(r.as_nc().terms) == 2
    assert pi(r.as_nc()).is_zero()


def test_parse_p_expression():
    r = parse_expr("p12 - p21", 2)
    assert r.kind == "p"
    assert r.as_p() == PExpr.generator(2, 1, 2) - PExpr.generator(2, 2, 1)


def test_parse_const_works_both_ways():
    r = parse_expr("3/5 - 1", 2)
    assert r.kind == "const"
    assert r.as_nc() == NCPoly.constant(2, ec(Fraction(-2, 5)))
    assert r.as_p() == PExpr.constant(2, ec(Fraction(-2, 5)))


def test_mixed_alphabet_rejected():
    with pytest.raises(MixedAlphabetError):
        parse_expr("v1 + p11", 2)


def test_scalar_literals():
    cases = {
        "2v1": ec(2),
        "-v1": ec(-1),
        "i*v1": ec(0, 1),
        "4/5i*v1": ec(0, Fraction(4, 5)),
        "3/5+4/5i v1": ExactComplex(Fraction(3, 5), Fraction(4, 5)),
    }
    for text, coeff in cases.items():
        poly = parse_expr(text, 2).as_nc()
        assert poly == coeff * NCPoly.generator(2, 1), text


def test_star_is_not_grammar():
    # '*' is optional between factors
    a = parse_expr("v1v2", 2).as_nc()
    b = parse_expr("v1 * v2", 2).as_nc()
    assert a == b


def test_power_and_parens():
    sq = parse_expr("(v1 + v2)^2", 2).as_nc()
    v1, v2 = NCPoly.generator(2, 1), NCPoly.generator(2, 2)
    assert sq == (v1 + v2) * (v1 + v2)


def test_long_projective_indices():
    r = parse_expr("p(10,3)", 12)
    assert r.as_p() == PExpr.generator(12, 10, 3)


def test_index_out_of_range():
    with pytest.raises(ParseError):
        parse_expr("v4", 3)
    with pytest.raises(ParseError):
        parse_expr("p13", 2)


def test_zeroth_power_skips_its_base():
    text = "((v1 + v2*v1 + v2^2*v1)^3^3)^0"  # the base alone expands to 3^9 words
    start = perf_counter()
    assert parse_expr(text, 2).as_nc() == NCPoly.one(2)
    assert parse_model(text, 2) == pi(NCPoly.one(2))
    assert perf_counter() - start < 0.2
    assert parse_expr("v2*(v1 + v2)^0*v1", 2).as_nc() == parse_expr("v2*v1", 2).as_nc()


def test_zeroth_power_still_checks_its_base():
    for parse in (parse_expr, parse_model):
        with pytest.raises(ParseError, match="generator index 9 out of range 1..2"):
            parse("(v9)^0 + v1", 2)
        with pytest.raises(MixedAlphabetError):
            parse("(p12)^0 + v1", 2)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("v1 + ?", 2)
    assert err.value.position is not None


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_expr("", 2)
    with pytest.raises(ParseError):
        parse_expr("v1 +", 2)


# -- points --------------------------------------------------------------


def test_parse_point_exact():
    z = parse_point("3/5+0i,0+4/5i", 2)
    assert z.exact
    assert z.coords[0] == ec(Fraction(3, 5))
    assert z.coords[1] == ec(0, Fraction(4, 5))


def test_parse_point_shorthand():
    z = parse_point("1,0", 2)
    assert z.exact and z.coords[0] == EC_ONE


def test_parse_point_decimal_forces_float():
    z = parse_point("0.6,0.8", 2)
    assert not z.exact


def test_parse_point_mode_approx_forces_float():
    z = parse_point("3/5,4/5", 2, mode="approx")
    assert not z.exact


def test_parse_point_wrong_arity():
    with pytest.raises(DimensionError):
        parse_point("1,0", 3)


def test_parse_point_rejects_garbage():
    with pytest.raises(ParseError):
        parse_point("1,spam", 2)


def test_point_literals_read_exactly_before_conversion():
    assert parse_point("0.6,.8i", 2) == parse_point("3/5,4/5i", 2, mode="approx")
    assert parse_point("0.6,.8i", 2).coords == (0.6 + 0j, 0.8j)
    assert parse_point("1,-0", 2, mode="approx").coords[1] == 0j


def test_parse_point_exponent_literals():
    assert parse_point("1e-05,1", 2).coords == (1e-05 + 0j, 1 + 0j)
    assert parse_point("6E-1,8.0e-1i", 2) == parse_point("3/5,4/5i", 2, mode="approx")
    assert parse_point("1e-05+2.5e-06i,1e+0", 2).coords[0] == 1e-05 + 2.5e-06j
    z = SpherePoint.from_floats([1e-5, (1 - 1e-10) ** 0.5])
    assert parse_point(format_point(z), 2) == z


@pytest.mark.parametrize("text", ["1e100000,0", "0,1e-100000i", "1E+0001000,0"])
def test_exponent_out_of_range_is_a_parse_error(text):
    with pytest.raises(ParseError, match="exponent out of range"):
        parse_point(text, 2)


@pytest.mark.parametrize("text", ["3/0,1", "1,2/0i", "1/0+1i,0"])
@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_zero_denominator_is_a_parse_error(text, mode):
    with pytest.raises(ParseError, match="zero denominator"):
        parse_point(text, 2, mode=mode)


@pytest.mark.parametrize("text", ["1" + "0" * 5000 + ".0,0", "0,1/3" + "0" * 5000 + "i"])
def test_overlong_literal_in_a_point_is_a_parse_error(text):
    with pytest.raises(ParseError, match="scalar literal longer than 4300 digits"):
        parse_point(text, 2)


def test_overlong_literal_in_an_expression_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_expr("v2 + 1" + "0" * 5000 + "*v1", 2)
    assert err.value.position == 5


@pytest.mark.parametrize("text", ["1" + "0" * 400 + ".0,0", "0,-1" + "0" * 400 + "i"])
def test_float_coordinate_out_of_range_is_a_parse_error(text):
    with pytest.raises(ParseError, match="out of float range"):
        parse_point(text, 2, mode="approx")


# -- printers and round trips ---------------------------------------------


def test_format_scalar_canonical():
    assert format_scalar(ec(Fraction(3, 5))) == "3/5"
    assert format_scalar(ec(0, 1)) == "i"
    assert format_scalar(ec(0, Fraction(-4, 5))) == "-4/5i"
    assert format_scalar(ExactComplex(Fraction(3, 5), Fraction(4, 5))) == "3/5+4/5i"


def test_format_ncpoly_runs():
    n = 2
    v1, v2 = NCPoly.generator(n, 1), NCPoly.generator(n, 2)
    assert format_ncpoly(v1 * v1 * v2) == "v1^2*v2"
    assert format_ncpoly(NCPoly.zero(n)) == "0"


def test_format_zpoly_conjugates():
    x = pi(NCPoly.from_word(2, (1, 2)))
    assert format_zpoly(x.f0) == "z1*z2~"


def test_format_pexpr():
    x = PExpr.generator(2, 1, 2) - PExpr.generator(2, 2, 1)
    assert format_pexpr(x) in ("p12 - p21", "-p21 + p12")


def test_format_point_full_form():
    z = parse_point("3/5+0i,0+4/5i", 2)
    assert format_point(z) == "3/5+0i,0+4/5i"


def _random_ncpoly(rng, n):
    out = NCPoly.zero(n)
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
        c = ExactComplex(
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        )
        out = out + NCPoly.from_word(n, w, c)
    return out


def test_print_parse_round_trip_ncpoly():
    rng = Random(13)
    for _ in range(50):
        n = rng.choice([2, 3])
        poly = _random_ncpoly(rng, n)
        text = format_ncpoly(poly)
        back = parse_expr(text, n)
        assert back.as_nc() == poly, text


def test_print_parse_round_trip_pexpr():
    rng = Random(17)
    for _ in range(50):
        n = rng.choice([2, 3])
        expr = PExpr.zero(n)
        for _ in range(rng.randint(1, 3)):
            seq = tuple(
                sorted(
                    (rng.randint(1, n), rng.randint(1, n))
                    for _ in range(rng.randint(0, 3))
                )
            )
            c = ExactComplex(
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            )
            expr = expr + PExpr(n, {seq: c})
        text = format_pexpr(expr)
        back = parse_expr(text, n)
        assert back.as_p() == expr, text


def test_point_print_parse_round_trip():
    rng = Random(19)
    from halfsphere.representations import sample_regular_point

    for _ in range(10):
        z = sample_regular_point(3, rng)
        assert parse_point(format_point(z), 3) == z


# printing then parsing is the identity on canonical output

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussian = st.builds(ExactComplex, small_rationals, small_rationals)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_lift_print_parse_round_trip(data):
    n = data.draw(st.sampled_from([2, 3, 4]))
    word = st.lists(st.integers(1, n), max_size=5).map(tuple)
    terms = data.draw(st.lists(st.tuples(word, gaussian), max_size=4))
    x = pi(NCPoly(n, dict(terms)))
    assert parse_model(format_lift(x), n) == x


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_point_print_parse_round_trip(data):
    n = data.draw(st.sampled_from([1, 2, 3, 4]))
    real = data.draw(st.booleans())
    params = data.draw(st.lists(small_rationals, min_size=n - 1 if real else 2 * n - 1,
                                max_size=n - 1 if real else 2 * n - 1))
    xs = rational_unit_vector(params)
    if real:
        coords = [ExactComplex(x) for x in xs]
    else:
        coords = [ExactComplex(xs[2 * k], xs[2 * k + 1]) for k in range(n)]
    z = SpherePoint.from_exact(coords)
    assert parse_point(format_point(z), n) == z


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_float_point_print_parse_round_trip(data):
    n = data.draw(st.sampled_from([1, 2, 3, 4]))
    # mantissas scaled down to 1e-30, so repr prints exponents
    part = st.builds(lambda m, k: m * 10.0**-k, st.floats(-1, 1), st.integers(0, 30))
    raw = [complex(*data.draw(st.tuples(part, part))) for _ in range(n)]
    norm = sum(abs(c) ** 2 for c in raw) ** 0.5
    assume(norm > 1e-150)
    z = SpherePoint.from_floats([c / norm for c in raw])
    assert parse_point(format_point(z), n, mode="approx") == z


# -- model-direct evaluation against the free-algebra path ---------------

SCALAR_TEXTS = ("2", "1/2", "i", "2/3i", "1-1/2i", "3/4+1/2i")


@st.composite
def v_expression(draw, n, depth=2):
    """(text, words, degree): a v-expression with upper bounds on the word
    count and the word length of its free-algebra expansion.

    Terms mix bare and parenthesised coefficients, constants, generators,
    nested parentheses and powers up to 6 (including ^0 and stacked powers).
    """

    def factor(depth):
        if depth > 0 and draw(st.booleans()):
            text, words, degree = draw(v_expression(n, depth - 1))
            text = f"({text})"
        elif draw(st.integers(0, 4)) == 0:
            text, words, degree = f"({draw(st.sampled_from(SCALAR_TEXTS))})", 1, 0
        else:
            text, words, degree = f"v{draw(st.integers(1, n))}", 1, 1
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, 6))
            # ^0 still evaluates its base
            text, words, degree = f"{text}^{k}", max(words, words**k), max(degree, degree * k)
        return text, words, degree

    def term(depth):
        parts, words, degree = [], 1, 0
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from(SCALAR_TEXTS)))
        for _ in range(draw(st.integers(0 if parts else 1, 3))):
            text, w, d = factor(depth)
            parts.append(text)
            words, degree = words * w, degree + d
        return draw(st.sampled_from(["*", " ", ""])).join(parts), words, degree

    text, words, degree = term(depth)
    if draw(st.booleans()):
        text = "-" + text
    for _ in range(draw(st.integers(0, 2))):
        more, w, d = term(depth)
        text = f"{text} {draw(st.sampled_from('+-'))} {more}"
        words, degree = words + w, max(degree, d)
    return text, words, degree


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_model_evaluation_matches_free_algebra(data):
    n = data.draw(st.sampled_from([2, 3, 4]))
    text, words, degree = data.draw(v_expression(n))
    assume(words <= 300 and degree <= 24)
    want = pi(parse_expr(text, n).as_nc())
    assert parse_model(text, n) == want, text
    code, out = run(["--n", str(n), "--format", "structured", "nf", "--", text])
    assert code == 0
    assert f"even = {format_zpoly(want.f0)}" in out.splitlines(), text
    assert f"odd = {format_zpoly(want.f1)}" in out.splitlines(), text


# odd powers of sums above 4, which the property rarely reaches
@pytest.mark.parametrize("k", range(9))
def test_model_powers_of_sums(k):
    for n, base in [(2, "v1 + v2"), (3, "(1/2)*v1 - i*v2*v3 + 2")]:
        text = f"v1*({base})^{k}*(3/4+1/2i)"
        assert parse_model(text, n) == pi(parse_expr(text, n).as_nc()), text


def _best_time(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        result = fn()
        best = min(best, perf_counter() - start)
    return best, result


def test_word_powers_take_linear_time():
    # a power of a word multiplies fixed-size exponent keys, not ever longer words
    short, _ = _best_time(lambda: parse_model("(v2*v3)^4000", 3))
    long, x = _best_time(lambda: parse_model("(v2*v3)^16000", 3))
    assert x == pi(NCPoly.from_word(3, (2, 3) * 16000))
    assert long / short < 8, (short, long)
