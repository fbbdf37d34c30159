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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct
from random import Random
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import CrossedElem, NCPoly, pi
from .linalg import echelon_from
from .projective import PExpr, check_projector_relations, transport_ideal
from .representations import (
    REAL,
    REGULAR,
    TORUS_REAL,
    SpherePoint,
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


@dataclass
class SuiteResult:
    name: str
    passed: bool
    summary: str
    details: List[str] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the suite, set by run_suite


# ----------------------------------------------------------------------
# random element helpers (suite-local; coefficients stay small so exact
# arithmetic never balloons)


def _rand_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 4))


def _rand_scalar(rng: Random) -> ExactComplex:
    c = ExactComplex(_rand_fraction(rng), _rand_fraction(rng))
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
# suites, in acceptance order


def _suite_relations(rng: Random) -> SuiteResult:
    checks = 0
    for n in (2, 3, 4):
        total = NCPoly.zero(n)
        for i in range(1, n + 1):
            vi = NCPoly.generator(n, i)
            total = total + vi * vi
        if pi(total) != CrossedElem.unit(n):
            return SuiteResult(
                "relations", False, f"sum of squares is not 1 at n={n}"
            )
        checks += 1
        for i, j, k in iproduct(range(1, n + 1), repeat=3):
            vi, vj, vk = (NCPoly.generator(n, t) for t in (i, j, k))
            if not pi(vi * vj * vk - vk * vj * vi).is_zero():
                return SuiteResult(
                    "relations", False, f"half-commutation fails at ({i},{j},{k}), n={n}"
                )
            checks += 1
    return SuiteResult(
        "relations",
        True,
        f"sphere relation and all half-commutators hold for n=2,3,4 ({checks} checks)",
    )


def _suite_homomorphism(rng: Random) -> SuiteResult:
    for t in range(200):
        n = (2, 3, 4)[t % 3]
        p = _rand_ncpoly(rng, n, 5)
        q = _rand_ncpoly(rng, n, 5)
        if pi(p * q) != pi(p) * pi(q):
            return SuiteResult("homomorphism", False, f"pi(pq) != pi(p)pi(q) at trial {t}")
        if pi(p.star()) != pi(p).star():
            return SuiteResult("homomorphism", False, f"pi(p*) != pi(p)* at trial {t}")
    return SuiteResult(
        "homomorphism", True, "pi respects products and adjoints on 200 random pairs"
    )


def _suite_even_commutativity(rng: Random) -> SuiteResult:
    for t in range(200):
        n = (2, 3, 4)[t % 3]
        x = pi(_rand_even_ncpoly(rng, n, 4))
        y = pi(_rand_even_ncpoly(rng, n, 4))
        if x * y != y * x:
            return SuiteResult(
                "even_commutativity", False, f"even elements fail to commute at trial {t}"
            )
    return SuiteResult(
        "even_commutativity", True, "200 random even pairs commute exactly"
    )


def _suite_projector_presentation(rng: Random) -> SuiteResult:
    details = []
    for n in range(1, 6):
        report = check_projector_relations(n)
        details.append(
            f"n={n}: adjoint={report.adjoint_ok} idempotent={report.idempotent_ok} "
            f"trace={report.trace_ok}"
        )
        if not report.passed:
            return SuiteResult(
                "projector_presentation",
                False,
                f"projector relations fail at n={n}",
                details,
            )
    return SuiteResult(
        "projector_presentation",
        True,
        "p = p* = p^2 and tr(p) = 1 hold for n = 1..5",
        details,
    )


def _suite_phi_bijectivity(rng: Random) -> SuiteResult:
    details = []
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
            if left != right:
                return SuiteResult(
                    "phi_bijectivity",
                    False,
                    f"phi image span mismatch at n={n}, m={m} "
                    f"({left.dimension} vs {right.dimension})",
                    details,
                )
            details.append(f"n={n} m={m}: span dimension {left.dimension}")
    return SuiteResult(
        "phi_bijectivity",
        True,
        "phi(p-monomials of length m) spans all even words of length 2m, n<=3, m<=3",
        details,
    )


def _suite_gamma_diagram(rng: Random) -> SuiteResult:
    count = 0
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for m in (1, 2, 3):
            for seq in combinations_with_replacement(pairs, m):
                expr = PExpr.one(n)
                for (i, j) in seq:
                    expr = expr * PExpr.generator(n, i, j)
                lhs = pi(expr.tau_p().phi())
                rhs = pi(expr.phi()).gamma()
                if lhs != rhs:
                    return SuiteResult(
                        "gamma_diagram",
                        False,
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
        if x.gamma() != total:
            return SuiteResult(
                "gamma_diagram", False, f"gamma closed form != defining sum at trial {t}"
            )
    return SuiteResult(
        "gamma_diagram",
        True,
        f"diagram commutes on {count} p-monomials; closed form matches the defining "
        "sum on 100 random elements",
    )


def _suite_intertwining(rng: Random) -> SuiteResult:
    for t in range(200):
        n = (2, 3, 4)[t % 3]
        x = pi(_rand_even_ncpoly(rng, n, 4))
        gx = x.gamma()
        for i in range(1, n + 1):
            vi = CrossedElem.generator(n, i)
            if vi * x != gx * vi:
                return SuiteResult(
                    "intertwining", False, f"v_{i} x != gamma(x) v_{i} at trial {t}"
                )
    return SuiteResult(
        "intertwining", True, "v_i x = gamma(x) v_i for 200 random even x, n <= 4"
    )


def _eig_multiset(values) -> Dict[Tuple[Fraction, Fraction], int]:
    out: Dict[Tuple[Fraction, Fraction], int] = {}
    for v in values:
        key = (v.re, v.im)
        out[key] = out.get(key, 0) + 1
    return out


def _suite_representation_theory(rng: Random) -> SuiteResult:
    n = 3
    reals = [sample_real_point(n, rng) for _ in range(50)]
    torus = [sample_torus_real_point(n, rng) for _ in range(50)]
    generic = [sample_regular_point(n, rng) for _ in range(50)]
    for z, tag in (
        [(z, REAL) for z in reals]
        + [(z, TORUS_REAL) for z in torus]
        + [(z, REGULAR) for z in generic]
    ):
        if classify_point(z).tag != tag:
            return SuiteResult(
                "representation_theory", False, f"construction-forced class broke: {tag}"
            )
    points = reals + torus + generic
    for idx, z in enumerate(points):
        x = pi(_rand_ncpoly(rng, n, 3))
        y = pi(_rand_ncpoly(rng, n, 3))
        if not theta(z, x * y).eq(theta(z, x) * theta(z, y)):
            return SuiteResult(
                "representation_theory", False, f"theta not multiplicative at point {idx}"
            )
        if not theta(z, x.star()).eq(theta(z, x).adjoint()):
            return SuiteResult(
                "representation_theory", False, f"theta not adjoint-compatible at {idx}"
            )
        if is_irreducible(z) != (commutant_dimension(z) == 1):
            return SuiteResult(
                "representation_theory",
                False,
                f"irreducibility disagrees with commutant dimension at point {idx}",
            )
        for lam in _unit_scalars():
            if character(z.scale(lam), x) != character(z, x):
                return SuiteResult(
                    "representation_theory",
                    False,
                    f"character not constant under scaling at point {idx}",
                )
        if character(z.conjugate(), x) != character(z, x):
            return SuiteResult(
                "representation_theory",
                False,
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
        if not all(isinstance(e, ExactComplex) for e in eig):
            return SuiteResult(
                "representation_theory", False, f"spectrum not exact at trial {t}"
            )
        if _eig_multiset(eig) != _eig_multiset(want):
            return SuiteResult(
                "representation_theory",
                False,
                f"spectrum differs from character values at trial {t}",
            )
    return SuiteResult(
        "representation_theory",
        True,
        "theta *-homomorphism, irreducibility = trivial commutant, character "
        "orbit-constancy on 150 points; 20 non-regular spectra match the characters",
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


def _suite_graded_bijection(rng: Random) -> SuiteResult:
    for t in range(20):
        n, gens, d = _draw_homogeneous_ideal(rng)
        err = _round_trips(n, gens, d)
        if err is not None:
            return SuiteResult(
                "graded_bijection", False, f"trial {t} (n={n}, d={d}): {err}"
            )
    return SuiteResult(
        "graded_bijection",
        True,
        "G/F round trips hold for 20 random homogeneous-generator ideals (n<=3, d<=5)",
    )


def _pad_point(z: SpherePoint) -> SpherePoint:
    zero = ExactComplex(Fraction(0))
    return SpherePoint((zero,) + z.coords)


def _suite_subspace_dictionary(rng: Random) -> SuiteResult:
    details = []
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
        if pair.E:
            return SuiteResult(
                "subspace_dictionary", False, f"commutator ideal has nonempty E at n={n}"
            )
        if pair.F != real_sampled:
            return SuiteResult(
                "subspace_dictionary",
                False,
                f"commutator ideal misses real samples at n={n}",
            )
        if pair.non_classical:
            return SuiteResult(
                "subspace_dictionary", False, "commutator ideal flagged non-classical"
            )
        if not is_graded(spec) or not sampled_f_symmetric(pair):
            return SuiteResult(
                "subspace_dictionary", False, f"commutator ideal not sigma stable, n={n}"
            )
        details.append(f"commutators n={n}: E empty, F = all {len(pair.F)} real samples")
    # transported projective ideal matches the commutator ideal at n = 2
    transported = transport_ideal(
        [PExpr.generator(2, 1, 2) - PExpr.generator(2, 2, 1)]
    )
    v1, v2 = NCPoly.generator(2, 1), NCPoly.generator(2, 2)
    comm_span = ideal_span(IdealSpec(2, (v1 * v2 - v2 * v1,), 4))
    trans_span = ideal_span(IdealSpec(2, tuple(transported), 4))
    if comm_span != trans_span:
        return SuiteResult(
            "subspace_dictionary",
            False,
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
    if not survivors:
        return SuiteResult("subspace_dictionary", False, "<v1^2> killed every sample")
    if not all(z.coords[0].is_zero() for z in survivors):
        return SuiteResult(
            "subspace_dictionary", False, "<v1^2> admitted a sample with z1 != 0"
        )
    if not pair.E or not pair.F:
        return SuiteResult(
            "subspace_dictionary", False, "<v1^2> missed the padded z1 = 0 samples"
        )
    details.append(
        f"<v1^2>: {len(pair.E)} regular and {len(pair.F)} real survivors, all with z1 = 0"
    )
    return SuiteResult(
        "subspace_dictionary",
        True,
        "commutator ideal is the classical sphere, transport matches, <v1^2> cuts z1 = 0",
        details,
    )


def _suite_intermediate_subspaces(rng: Random) -> SuiteResult:
    n, d = 3, 4
    details = []
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
        if not all(z in recovered for z in fresh):
            return SuiteResult(
                "intermediate_subspaces",
                False,
                f"m={m}: an orbit replica failed to survive the vanishing ideal",
            )
        if any(w in recovered for w in decoys):
            return SuiteResult(
                "intermediate_subspaces", False, f"m={m}: a decoy orbit survived"
            )
        classes: List[SpherePoint] = []
        for z in pair.E:
            if all(not orbit_equivalent(z, w) for w in classes):
                classes.append(z)
        if len(classes) != m:
            return SuiteResult(
                "intermediate_subspaces",
                False,
                f"m={m}: recovered {len(classes)} orbit classes",
            )
        details.append(
            f"m={m}: kernel dimension {kernel.dimension}, recovered exactly {m} orbits"
        )
    return SuiteResult(
        "intermediate_subspaces",
        True,
        "vanishing ideals recover exactly m = 1..5 pairwise non-equivalent orbits",
        details,
    )


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


def _suite_cli_golden(rng: Random) -> SuiteResult:
    from . import cli

    details = []
    for name, argv in golden_cases():
        code1, text1 = cli.run(argv)
        code2, text2 = cli.run(argv)
        if (code1, text1) != (code2, text2):
            return SuiteResult(
                "cli_golden", False, f"{name} output differs between identical runs"
            )
        if code1 != 0:
            return SuiteResult(
                "cli_golden", False, f"{name} exited with {code1}"
            )
        details.append(f"{name}: {len(text1.splitlines())} lines, bit-identical")
    return SuiteResult(
        "cli_golden",
        True,
        f"all {len(details)} golden structured outputs are bit-identical across runs",
        details,
    )


_SUITES: List[Tuple[str, Callable[[Random], SuiteResult]]] = [
    ("relations", _suite_relations),
    ("homomorphism", _suite_homomorphism),
    ("even_commutativity", _suite_even_commutativity),
    ("projector_presentation", _suite_projector_presentation),
    ("phi_bijectivity", _suite_phi_bijectivity),
    ("gamma_diagram", _suite_gamma_diagram),
    ("intertwining", _suite_intertwining),
    ("representation_theory", _suite_representation_theory),
    ("graded_bijection", _suite_graded_bijection),
    ("subspace_dictionary", _suite_subspace_dictionary),
    ("intermediate_subspaces", _suite_intermediate_subspaces),
    ("cli_golden", _suite_cli_golden),
]


def suite_names() -> List[str]:
    return [name for name, _ in _SUITES]


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    for suite_name, fn in _SUITES:
        if suite_name == name:
            start = perf_counter()
            result = fn(Random(f"{seed}:{suite_name}"))
            result.seconds = perf_counter() - start
            return result
    raise KeyError(f"unknown suite {name!r}")


def run_suites(names: Optional[Sequence[str]] = None, seed: int = 0) -> List[SuiteResult]:
    chosen = list(names) if names is not None else suite_names()
    order = {name: k for k, (name, _) in enumerate(_SUITES)}
    chosen.sort(key=lambda nm: order.get(nm, len(order)))
    return [run_suite(nm, seed) for nm in chosen]
