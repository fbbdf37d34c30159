"""Self-contained verification suites behind the `verify` subcommand.

Each suite checks one family of identities or behaviors end to end and
reports a single pass/fail with a short summary.  The suites are seeded and
deterministic; the test battery runs them through pytest as well, so `verify
all` on a default session and the acceptance tests agree by construction.

Where a closed form is under test (gamma, nc_lift, the BFS ideal span), the
suite recomputes the quantity from its definition and compares, rather than
trusting the library implementation twice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct
from random import Random
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import CrossedElem, NCPoly, pi
from .linalg import echelon_from
from .projective import PExpr, check_projector_relations, transport_ideal
from .representations import (
    REAL,
    REGULAR,
    TORUS_REAL,
    SpherePoint,
    _random_fraction,
    character,
    classify_point,
    commutant_dimension,
    decompose_nonregular,
    is_irreducible,
    orbit_equivalent,
    phi_rep,
    sample_points,
    sample_real_point,
    sample_regular_point,
    sample_torus_real_point,
    theta,
)
from .scalars import EC_I, EC_ONE, ExactComplex
from .subspaces import (
    IdealSpec,
    _basis,
    classify_pair,
    even_ideal_span,
    even_to_graded,
    graded_to_even,
    ideal_span,
    is_graded,
    lift_basis,
    sampled_f_symmetric,
    vanishing_ideal,
)


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    summary: str
    details: List[str]
    seconds: float  # wall time of the suite


class _SuiteFailure(Exception):
    """A suite met a wrong answer; run_suite reports the message as FAIL."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _SuiteFailure(message)


# ----------------------------------------------------------------------
# random element helpers (suite-local; coefficients stay small so exact
# arithmetic never balloons)


def _rand_scalar(rng: Random) -> ExactComplex:
    c = ExactComplex(_random_fraction(rng), _random_fraction(rng))
    if c.is_zero():
        return EC_ONE
    return c


def _rand_word(rng: Random, n: int, length: int) -> Tuple[int, ...]:
    return tuple(rng.randint(1, n) for _ in range(length))


def _rand_ncpoly(rng: Random, n: int, max_deg: int, terms: int = 3) -> NCPoly:
    out = NCPoly.zero(n)
    for _ in range(rng.randint(1, terms)):
        length = rng.randint(0, max_deg)
        out = out + NCPoly.from_word(n, _rand_word(rng, n, length), _rand_scalar(rng))
    return out


def _rand_even_ncpoly(rng: Random, n: int, max_deg: int, terms: int = 3) -> NCPoly:
    out = NCPoly.zero(n)
    for _ in range(rng.randint(1, terms)):
        length = 2 * rng.randint(0, max_deg // 2)
        out = out + NCPoly.from_word(n, _rand_word(rng, n, length), _rand_scalar(rng))
    return out


def _unit_scalars() -> List[ExactComplex]:
    one = EC_ONE
    return [-one, EC_I, -EC_I]


# ----------------------------------------------------------------------
# suites, in acceptance order: each appends detail lines to `details`,
# fails through _require and returns its pass summary


def _suite_relations(rng: Random, details: List[str]) -> str:
    checks = 0
    for n in (2, 3, 4):
        total = NCPoly.zero(n)
        for i in range(1, n + 1):
            vi = NCPoly.generator(n, i)
            total = total + vi * vi
        _require(pi(total) == CrossedElem.unit(n), f"sum of squares is not 1 at n={n}")
        checks += 1
        for i, j, k in iproduct(range(1, n + 1), repeat=3):
            vi, vj, vk = (NCPoly.generator(n, t) for t in (i, j, k))
            _require(
                pi(vi * vj * vk - vk * vj * vi).is_zero(),
                f"half-commutation fails at ({i},{j},{k}), n={n}",
            )
            checks += 1
    return f"sphere relation and all half-commutators hold for n=2,3,4 ({checks} checks)"


def _suite_homomorphism(rng: Random, details: List[str]) -> str:
    for t in range(200):
        n = (2, 3, 4)[t % 3]
        p = _rand_ncpoly(rng, n, 5)
        q = _rand_ncpoly(rng, n, 5)
        _require(pi(p * q) == pi(p) * pi(q), f"pi(pq) != pi(p)pi(q) at trial {t}")
        _require(pi(p.star()) == pi(p).star(), f"pi(p*) != pi(p)* at trial {t}")
    return "pi respects products and adjoints on 200 random pairs"


def _suite_even_commutativity(rng: Random, details: List[str]) -> str:
    for t in range(200):
        n = (2, 3, 4)[t % 3]
        x = pi(_rand_even_ncpoly(rng, n, 4))
        y = pi(_rand_even_ncpoly(rng, n, 4))
        _require(x * y == y * x, f"even elements fail to commute at trial {t}")
    return "200 random even pairs commute exactly"


def _suite_projector_presentation(rng: Random, details: List[str]) -> str:
    for n in range(1, 6):
        report = check_projector_relations(n)
        details.append(
            f"n={n}: adjoint={report.adjoint_ok} idempotent={report.idempotent_ok} "
            f"trace={report.trace_ok}"
        )
        _require(report.passed, f"projector relations fail at n={n}")
    return "p = p* = p^2 and tr(p) = 1 hold for n = 1..5"


def _suite_phi_bijectivity(rng: Random, details: List[str]) -> str:
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for m in (1, 2, 3):
            tb = _basis(n, 2 * m)
            image_vecs = []
            for seq in combinations_with_replacement(pairs, m):
                expr = PExpr.one(n)
                for (i, j) in seq:
                    expr = expr * PExpr.generator(n, i, j)
                image_vecs.append(tb.vector(pi(expr.phi())))
            word_vecs = [
                tb.vector(pi(NCPoly.from_word(n, w)))
                for w in iproduct(range(1, n + 1), repeat=2 * m)
            ]
            left = echelon_from(image_vecs)
            right = echelon_from(word_vecs)
            _require(
                left == right,
                f"phi image span mismatch at n={n}, m={m} "
                f"({left.dimension} vs {right.dimension})",
            )
            details.append(f"n={n} m={m}: span dimension {left.dimension}")
    return "phi(p-monomials of length m) spans all even words of length 2m, n<=3, m<=3"


def _suite_gamma_diagram(rng: Random, details: List[str]) -> str:
    count = 0
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for m in (1, 2, 3):
            for seq in combinations_with_replacement(pairs, m):
                expr = PExpr.one(n)
                for (i, j) in seq:
                    expr = expr * PExpr.generator(n, i, j)
                _require(
                    pi(expr.tau_p().phi()) == pi(expr.phi()).gamma(),
                    f"phi(tau(P)) != gamma(phi(P)) at n={n}, monomial {seq}",
                )
                count += 1
    # closed form vs the defining sum, recomputed here from scratch
    for t in range(100):
        n = (2, 3, 4)[t % 3]
        x = pi(_rand_ncpoly(rng, n, 4))
        total = CrossedElem.zero(n)
        for i in range(1, n + 1):
            vi = CrossedElem.generator(n, i)
            total = total + vi * x * vi
        _require(x.gamma() == total, f"gamma closed form != defining sum at trial {t}")
    return (
        f"diagram commutes on {count} p-monomials; closed form matches the defining "
        "sum on 100 random elements"
    )


def _suite_intertwining(rng: Random, details: List[str]) -> str:
    for t in range(200):
        n = (2, 3, 4)[t % 3]
        x = pi(_rand_even_ncpoly(rng, n, 4))
        gx = x.gamma()
        for i in range(1, n + 1):
            vi = CrossedElem.generator(n, i)
            _require(vi * x == gx * vi, f"v_{i} x != gamma(x) v_{i} at trial {t}")
    return "v_i x = gamma(x) v_i for 200 random even x, n <= 4"


def _eig_multiset(values) -> Dict[Tuple[Fraction, Fraction], int]:
    out: Dict[Tuple[Fraction, Fraction], int] = {}
    for v in values:
        key = (v.re, v.im)
        out[key] = out.get(key, 0) + 1
    return out


def _suite_representation_theory(rng: Random, details: List[str]) -> str:
    n = 3
    reals = [sample_real_point(n, rng) for _ in range(50)]
    torus = [sample_torus_real_point(n, rng) for _ in range(50)]
    generic = [sample_regular_point(n, rng) for _ in range(50)]
    for z, tag in (
        [(z, REAL) for z in reals]
        + [(z, TORUS_REAL) for z in torus]
        + [(z, REGULAR) for z in generic]
    ):
        _require(classify_point(z).tag == tag, f"construction-forced class broke: {tag}")
    points = reals + torus + generic
    for idx, z in enumerate(points):
        x = pi(_rand_ncpoly(rng, n, 3))
        y = pi(_rand_ncpoly(rng, n, 3))
        _require(
            theta(z, x * y).eq(theta(z, x) * theta(z, y)),
            f"theta not multiplicative at point {idx}",
        )
        _require(
            theta(z, x.star()).eq(theta(z, x).adjoint()),
            f"theta not adjoint-compatible at {idx}",
        )
        _require(
            is_irreducible(z) == (commutant_dimension(z) == 1),
            f"irreducibility disagrees with commutant dimension at point {idx}",
        )
        for lam in _unit_scalars():
            _require(
                character(z.scale(lam), x) == character(z, x),
                f"character not constant under scaling at point {idx}",
            )
        _require(
            character(z.conjugate(), x) == character(z, x),
            f"character not constant under conjugation at point {idx}",
        )
    # spectra at non-regular points against the two characters
    for t in range(20):
        z = torus[t] if t % 2 == 0 else reals[t]
        p = _rand_ncpoly(rng, n, 3)
        x = pi(p + p.star())
        yplus, yminus = decompose_nonregular(z)
        eig = theta(z, x).eigenvalues()
        want = (phi_rep(yplus, x), phi_rep(yminus, x))
        _require(
            all(isinstance(e, ExactComplex) for e in eig), f"spectrum not exact at trial {t}"
        )
        _require(
            _eig_multiset(eig) == _eig_multiset(want),
            f"spectrum differs from character values at trial {t}",
        )
    return (
        "theta *-homomorphism, irreducibility = trivial commutant, character "
        "orbit-constancy on 150 points; 20 non-regular spectra match the characters"
    )


def _round_trips(n: int, gens: Tuple[NCPoly, ...], d: int) -> Optional[str]:
    """Both directions of the graded <-> even correspondence at degree d."""
    spec = IdealSpec(n, gens, d)
    if not is_graded(spec):
        return "ideal of homogeneous generators not graded"
    span = ideal_span(spec)
    even = graded_to_even(spec)
    lifted = tuple(lift_basis(even))
    spec_back = even_to_graded(lifted, d, n)
    if ideal_span(spec_back) != span:
        return "G(F(I)) differs from span(I)"
    j_span = even_ideal_span(lifted, d, n)
    if not is_graded(spec_back) or graded_to_even(spec_back) != j_span:
        return "F(G(J)) differs from span(J)"
    return None


def _draw_homogeneous_ideal(rng: Random) -> Tuple[int, Tuple[NCPoly, ...], int]:
    """A random homogeneous-generator ideal whose round trips are decidable
    at the drawn truncation.

    The generator degree stays at least two below the bound: the round trips
    are statements about full ideals, and at a degree-d truncation they can
    genuinely fail near the boundary (an odd generator of degree d-1 needs
    the products v_j v_j g of degree d+1 to recover g from its even part,
    and multi-word generators of near-boundary degree can collapse in
    canonical degree, letting the rebuilt ideal escape the original span).
    """
    n = rng.choice([2, 2, 3])
    kind = rng.randrange(4)
    if kind == 0:
        # a single odd word, length <= d - 2
        d = rng.choice([3, 4, 5])
        lengths = [x for x in range(1, d - 1) if x % 2 == 1]
        w = _rand_word(rng, n, rng.choice(lengths))
        return n, (NCPoly.from_word(n, w, _rand_scalar(rng)),), d
    if kind == 1:
        # a single even word, length <= d - 2
        d = rng.choice([4, 5])
        lengths = [x for x in range(2, d - 1) if x % 2 == 0]
        w = _rand_word(rng, n, rng.choice(lengths))
        return n, (NCPoly.from_word(n, w, _rand_scalar(rng)),), d
    if kind == 2:
        # two generators of degree 1
        d = rng.choice([3, 4, 5])
        g1 = NCPoly.from_word(n, (rng.randint(1, n),), _rand_scalar(rng))
        g2 = NCPoly.from_word(n, (rng.randint(1, n),), _rand_scalar(rng))
        return n, (g1, g2), d
    # a commutator
    d = rng.choice([4, 5])
    i = rng.randint(1, n)
    j = rng.randint(1, n)
    while j == i:
        j = rng.randint(1, n)
    vi, vj = NCPoly.generator(n, i), NCPoly.generator(n, j)
    return n, (vi * vj - vj * vi,), d


def _suite_graded_bijection(rng: Random, details: List[str]) -> str:
    for t in range(20):
        n, gens, d = _draw_homogeneous_ideal(rng)
        err = _round_trips(n, gens, d)
        _require(err is None, f"trial {t} (n={n}, d={d}): {err}")
    return "G/F round trips hold for 20 random homogeneous-generator ideals (n<=3, d<=5)"


def _pad_point(z: SpherePoint) -> SpherePoint:
    zero = ExactComplex(Fraction(0))
    return SpherePoint((zero,) + z.coords)


def _suite_subspace_dictionary(rng: Random, details: List[str]) -> str:
    # commutator ideal: classical sphere, E empty, F everything real
    for n in (2, 3):
        gens = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                vi, vj = NCPoly.generator(n, i), NCPoly.generator(n, j)
                gens.append(vi * vj - vj * vi)
        spec = IdealSpec(n, tuple(gens), 4)
        sample = sample_points(n, rng)
        pair = classify_pair(spec, sample)
        real_sampled = tuple(
            z for z in sample if classify_point(z).tag == REAL
        )
        _require(not pair.E, f"commutator ideal has nonempty E at n={n}")
        _require(pair.F == real_sampled, f"commutator ideal misses real samples at n={n}")
        _require(not pair.non_classical, "commutator ideal flagged non-classical")
        _require(
            is_graded(spec) and sampled_f_symmetric(pair),
            f"commutator ideal not sigma stable, n={n}",
        )
        details.append(f"commutators n={n}: E empty, F = all {len(pair.F)} real samples")
    # transported projective ideal matches the commutator ideal at n = 2
    transported = transport_ideal(
        [PExpr.generator(2, 1, 2) - PExpr.generator(2, 2, 1)]
    )
    v1, v2 = NCPoly.generator(2, 1), NCPoly.generator(2, 2)
    comm_span = ideal_span(IdealSpec(2, (v1 * v2 - v2 * v1,), 4))
    trans_span = ideal_span(IdealSpec(2, tuple(transported), 4))
    _require(
        comm_span == trans_span,
        "transport of p12 - p21 differs from the commutator ideal at degree 4",
    )
    details.append(f"transport(p12 - p21) span dimension {trans_span.dimension} matches")
    # <v1^2>: survivors are exactly the sampled points with z1 = 0
    n = 3
    v1 = NCPoly.generator(n, 1)
    spec = IdealSpec(n, (v1 * v1,), 4)
    padded: List[SpherePoint] = []
    for _ in range(3):
        y = _pad_point(sample_real_point(n - 1, rng))
        padded.extend([y, y.negate()])
    for _ in range(2):
        padded.append(_pad_point(sample_regular_point(n - 1, rng)))
    sample = sample_points(n, rng) + padded
    pair = classify_pair(spec, sample)
    survivors = list(pair.E) + list(pair.F)
    _require(bool(survivors), "<v1^2> killed every sample")
    _require(
        all(z.coords[0].is_zero() for z in survivors), "<v1^2> admitted a sample with z1 != 0"
    )
    _require(bool(pair.E and pair.F), "<v1^2> missed the padded z1 = 0 samples")
    details.append(
        f"<v1^2>: {len(pair.E)} regular and {len(pair.F)} real survivors, all with z1 = 0"
    )
    return "commutator ideal is the classical sphere, transport matches, <v1^2> cuts z1 = 0"


def _suite_intermediate_subspaces(rng: Random, details: List[str]) -> str:
    n, d = 3, 4
    for m in range(1, 6):
        orbits: List[SpherePoint] = []
        while len(orbits) < m:
            z = sample_regular_point(n, rng)
            if all(not orbit_equivalent(z, w) for w in orbits):
                orbits.append(z)
        f_points: List[SpherePoint] = []
        for _ in range(3):
            y = sample_real_point(n, rng)
            f_points.extend([y, y.negate()])
        kernel = vanishing_ideal(orbits + f_points, d, n)
        spec = IdealSpec(n, tuple(lift_basis(kernel)), d)
        fresh: List[SpherePoint] = []
        for z in orbits:
            fresh.append(z.scale(EC_I))
            fresh.append(z.conjugate())
        decoys: List[SpherePoint] = []
        while len(decoys) < 2:
            w = sample_regular_point(n, rng)
            if all(not orbit_equivalent(w, z) for z in orbits):
                decoys.append(w)
        pair = classify_pair(spec, fresh + decoys)
        recovered = set(pair.E)
        _require(
            all(z in recovered for z in fresh),
            f"m={m}: an orbit replica failed to survive the vanishing ideal",
        )
        _require(
            not any(w in recovered for w in decoys), f"m={m}: a decoy orbit survived"
        )
        classes: List[SpherePoint] = []
        for z in pair.E:
            if all(not orbit_equivalent(z, w) for w in classes):
                classes.append(z)
        _require(len(classes) == m, f"m={m}: recovered {len(classes)} orbit classes")
        details.append(
            f"m={m}: kernel dimension {kernel.dimension}, recovered exactly {m} orbits"
        )
    return "vanishing ideals recover exactly m = 1..5 pairwise non-equivalent orbits"


_GOLDEN_CASES: List[Tuple[str, List[str]]] = [
    ("nf", ["--n", "3", "--format", "structured", "nf", "v2*v1*v1 - v1*v2*v3 + v3"]),
    ("eq", ["--n", "3", "--format", "structured", "eq", "v1*v2*v3", "v3*v2*v1"]),
    (
        "pair",
        [
            "--n", "2", "--degree", "4", "--seed", "5", "--format", "structured",
            "pair", "v1*v2 - v2*v1",
        ],
    ),
    ("projcheck", ["--n", "4", "--format", "structured", "projcheck"]),
    ("nu", ["--n", "2", "--format", "structured", "nu", "v1 + v1*v2"]),
    ("gamma", ["--n", "2", "--format", "structured", "gamma", "v1 + v1*v2"]),
    ("phi", ["--n", "3", "--format", "structured", "phi", "p12*p23 - 1/2*p31 + i*p11"]),
    (
        "span",
        ["--n", "2", "--degree", "4", "--format", "structured", "span", "v1*v2 - v2*v1"],
    ),
    (
        "vanish",
        ["--n", "2", "--degree", "3", "--format", "structured", "vanish", "--", "3/5,4/5i"],
    ),
    ("classify", ["--n", "2", "--format", "structured", "classify", "3/5i,4/5i"]),
    (
        "nf_power_word",
        ["--n", "4", "--format", "structured", "nf", "(3/4+1/2i)*v1^13*v2*v3"],
    ),
    (
        "nf_power_sum",
        ["--n", "3", "--format", "structured", "nf", "((2/3)*v1 + (1-1/2i)*v2 - (3/4)*v3)^7"],
    ),
]


def golden_cases() -> List[Tuple[str, List[str]]]:
    """The fixed CLI invocations pinned by tests/golden/<name>.txt.

    This is the one list of golden cases: the cli_golden suite and the test
    battery both read it.
    """
    return [(name, list(argv)) for name, argv in _GOLDEN_CASES]


def _suite_cli_golden(rng: Random, details: List[str]) -> str:
    from . import cli

    for name, argv in golden_cases():
        code1, text1 = cli.run(argv)
        code2, text2 = cli.run(argv)
        _require(
            (code1, text1) == (code2, text2), f"{name} output differs between identical runs"
        )
        _require(code1 == 0, f"{name} exited with {code1}")
        details.append(f"{name}: {len(text1.splitlines())} lines, bit-identical")
    return f"all {len(details)} golden structured outputs are bit-identical across runs"


_SUITES: Dict[str, Callable[[Random, List[str]], str]] = {
    "relations": _suite_relations,
    "homomorphism": _suite_homomorphism,
    "even_commutativity": _suite_even_commutativity,
    "projector_presentation": _suite_projector_presentation,
    "phi_bijectivity": _suite_phi_bijectivity,
    "gamma_diagram": _suite_gamma_diagram,
    "intertwining": _suite_intertwining,
    "representation_theory": _suite_representation_theory,
    "graded_bijection": _suite_graded_bijection,
    "subspace_dictionary": _suite_subspace_dictionary,
    "intermediate_subspaces": _suite_intermediate_subspaces,
    "cli_golden": _suite_cli_golden,
}


def suite_names() -> List[str]:
    return list(_SUITES)


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    details: List[str] = []
    start = perf_counter()
    try:
        passed, summary = True, _SUITES[name](Random(f"{seed}:{name}"), details)
    except _SuiteFailure as failure:
        passed, summary = False, str(failure)
    return SuiteResult(name, passed, summary, details, perf_counter() - start)


def run_suites(names: Optional[Sequence[str]] = None, seed: int = 0) -> List[SuiteResult]:
    chosen = list(names) if names is not None else suite_names()
    order = {name: k for k, name in enumerate(_SUITES)}
    chosen.sort(key=lambda nm: order.get(nm, len(order)))
    return [run_suite(nm, seed) for nm in chosen]
