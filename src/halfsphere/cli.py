"""Command line interface.

Exit codes: 0 success, 1 mathematical falsity (eq/orbit/member/graded/
projcheck/verify answering no), 2 usage or parse error, 3 precondition
violation.  Output is plain text or the line-oriented structured format
(`[section]` headers and `key = value` lines in a stable order).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from random import Random
from typing import List

from .algebra import nc_lift, pi
from .errors import HalfsphereError, ParseError, PreconditionError
from .parsing import (
    format_crossed,
    format_mat2,
    format_ncpoly,
    format_point,
    format_value,
    format_zpoly,
    parse_expr,
    parse_point,
)
from .projective import check_projector_relations, phi_inv
from .representations import (
    REGULAR,
    classify_point,
    character,
    commutant_dimension,
    decompose_nonregular,
    is_irreducible,
    orbit_equivalent,
    phi_rep,
    sample_points,
    theta,
)
from .scalars import DEFAULT_EPSILON
from .subspaces import (
    IdealSpec,
    classify_pair,
    ideal_span,
    is_graded,
    membership,
    sampled_f_symmetric,
    vanishing_ideal,
)


@dataclass
class Session:
    n: int = 3
    mode: str = "exact"
    epsilon: float = DEFAULT_EPSILON
    degree_bound: int = 5
    seed: int = 0
    fmt: str = "text"


@dataclass
class Output:
    fmt: str
    lines: List[str] = field(default_factory=list)

    def section(self, name: str):
        if self.fmt == "structured":
            if self.lines:
                self.lines.append("")
            self.lines.append(f"[{name}]")

    def pair(self, key: str, value, text=None):
        if self.fmt == "structured":
            self.lines.append(f"{key} = {value}")
        else:
            self.lines.append(text if text is not None else f"{key}: {value}")

    def text(self, line: str):
        if self.fmt != "structured":
            self.lines.append(line)

    def render(self) -> str:
        return "\n".join(self.lines)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfsphere",
        description="Exact computation in the half-liberated real sphere algebra.",
    )
    parser.add_argument("--n", type=int, default=3, help="number of generators")
    parser.add_argument(
        "--degree", type=int, default=5, help="truncation degree for ideal spans"
    )
    parser.add_argument(
        "--mode", choices=["exact", "approx"], default="exact", help="arithmetic mode"
    )
    parser.add_argument(
        "--eps", type=float, default=DEFAULT_EPSILON, help="approximate tolerance"
    )
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument(
        "--format", choices=["text", "structured"], default="text", dest="fmt"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, *specs):
        p = sub.add_parser(name, help=help_text)
        for args, kwargs in specs:
            p.add_argument(*args, **kwargs)
        return p

    cmd("nf", "canonical form and a lift", ((["expr"], {})))
    cmd("eq", "decide equality of two expressions", (["left"], {}), (["right"], {}))
    cmd("grade", "even and odd parts", ((["expr"], {})))
    cmd("nu", "apply the sign automorphism", ((["expr"], {})))
    cmd("gamma", "apply the conjugation transport map", ((["expr"], {})))
    cmd("phi", "apply the projective correspondence", ((["expr"], {})))
    cmd("phi-inv", "invert the correspondence on an even element", ((["expr"], {})))
    cmd("theta", "evaluate the 2x2 representation", (["point"], {}), (["expr"], {}))
    cmd("phirep", "evaluate the character at a real point", (["point"], {}), (["expr"], {}))
    cmd("char", "trace of the representation", (["point"], {}), (["expr"], {}))
    cmd("classify", "classify a sphere point", ((["point"], {})))
    cmd("orbit", "decide orbit equivalence of two points", (["left"], {}), (["right"], {}))
    cmd("span", "span of a truncated ideal", ((["gens"], {"nargs": "+"})))
    cmd(
        "member",
        "membership of an element in a truncated ideal",
        (["target"], {}),
        (["gens"], {"nargs": "+"}),
    )
    cmd("graded", "is the truncated ideal graded", ((["gens"], {"nargs": "+"})))
    cmd("pair", "classify the quantum subspace pair (E, F)", ((["gens"], {"nargs": "+"})))
    cmd("vanish", "vanishing ideal of sampled points", ((["points"], {"nargs": "*"})))
    cmd("projcheck", "verify the projector presentation")
    cmd("verify", "run acceptance suites", ((["suite"], {"nargs": "?", "default": "all"})))
    return parser


def _session(args) -> Session:
    if args.n < 1:
        raise PreconditionError("n must be at least 1")
    if args.degree < 0:
        raise PreconditionError("degree bound must be nonnegative")
    if not args.eps > 0:
        raise PreconditionError("eps must be positive")
    return Session(
        n=args.n,
        mode=args.mode,
        epsilon=args.eps,
        degree_bound=args.degree,
        seed=args.seed,
        fmt=args.fmt,
    )


def _emit_session(out: Output, session: Session):
    out.section("session")
    if out.fmt == "structured":
        out.pair("n", session.n)
        out.pair("mode", session.mode)
        out.pair("degree", session.degree_bound)
        out.pair("seed", session.seed)


def _parse_nc(session: Session, text: str):
    return parse_expr(text, session.n).as_nc()


def _point(session: Session, text: str):
    return parse_point(text, session.n, session.mode, session.epsilon)


def _spec(session: Session, gen_texts) -> IdealSpec:
    gens = tuple(_parse_nc(session, g) for g in gen_texts)
    return IdealSpec(session.n, gens, session.degree_bound)


# ----------------------------------------------------------------------
# command handlers


def _run_nf(session: Session, args, out: Output) -> int:
    x = pi(_parse_nc(session, args.expr))
    _emit_session(out, session)
    out.section("nf")
    out.pair("input", args.expr, text=f"input: {args.expr}")
    if out.fmt == "structured":
        out.pair("even", format_zpoly(x.f0))
        out.pair("odd", format_zpoly(x.f1))
    else:
        out.text(f"canonical form: {format_crossed(x)}")
    lift = format_ncpoly(nc_lift(x))
    out.pair("lift", lift, text=f"lift: {lift}")
    return 0


def _run_eq(session: Session, args, out: Output) -> int:
    left = pi(_parse_nc(session, args.left))
    right = pi(_parse_nc(session, args.right))
    equal = left == right
    _emit_session(out, session)
    out.section("eq")
    out.pair("left", args.left, text=f"left:  {args.left}")
    out.pair("right", args.right, text=f"right: {args.right}")
    out.pair("equal", _bool(equal), text="equal" if equal else "not equal")
    return 0 if equal else 1


def _run_grade(session: Session, args, out: Output) -> int:
    x = pi(_parse_nc(session, args.expr))
    even, odd = x.grade()
    _emit_session(out, session)
    out.section("grade")
    if out.fmt == "structured":
        out.pair("even", format_zpoly(even.f0))
        out.pair("odd", format_zpoly(odd.f1))
        out.pair("even_lift", format_ncpoly(nc_lift(even)))
        out.pair("odd_lift", format_ncpoly(nc_lift(odd)))
    else:
        out.text(f"even part: {format_zpoly(even.f0)} (lift {format_ncpoly(nc_lift(even))})")
        out.text(f"odd part:  {format_zpoly(odd.f1)} (lift {format_ncpoly(nc_lift(odd))})")
    return 0


def _run_unary(session: Session, args, out: Output) -> int:
    name = args.command
    x = pi(_parse_nc(session, args.expr))
    result = x.nu() if name == "nu" else x.gamma()
    _emit_session(out, session)
    out.section(name)
    if out.fmt == "structured":
        out.pair("even", format_zpoly(result.f0))
        out.pair("odd", format_zpoly(result.f1))
        out.pair("lift", format_ncpoly(nc_lift(result)))
    else:
        out.text(f"{name}: {format_crossed(result)}")
        out.text(f"lift: {format_ncpoly(nc_lift(result))}")
    return 0


def _run_phi(session: Session, args, out: Output) -> int:
    e = parse_expr(args.expr, session.n).as_p()
    result = e.phi()
    _emit_session(out, session)
    out.section("phi")
    out.pair("result", format_ncpoly(result), text=f"phi: {format_ncpoly(result)}")
    return 0


def _run_phi_inv(session: Session, args, out: Output) -> int:
    x = pi(_parse_nc(session, args.expr))
    f = phi_inv(x)
    _emit_session(out, session)
    out.section("phi-inv")
    out.pair("result", format_zpoly(f), text=f"phi-inv: {format_zpoly(f)}")
    return 0


def _run_theta(session: Session, args, out: Output) -> int:
    z = _point(session, args.point)
    x = pi(_parse_nc(session, args.expr))
    m = theta(z, x)
    _emit_session(out, session)
    out.section("theta")
    out.pair("point", format_point(z), text=f"point: {format_point(z)}")
    out.pair("matrix", format_mat2(m), text=f"theta: {format_mat2(m)}")
    return 0


def _run_phirep(session: Session, args, out: Output) -> int:
    y = _point(session, args.point)
    x = pi(_parse_nc(session, args.expr))
    value = phi_rep(y, x, session.epsilon)
    _emit_session(out, session)
    out.section("phirep")
    out.pair("point", format_point(y), text=f"point: {format_point(y)}")
    out.pair("value", format_value(value), text=f"phi: {format_value(value)}")
    return 0


def _run_char(session: Session, args, out: Output) -> int:
    z = _point(session, args.point)
    x = pi(_parse_nc(session, args.expr))
    value = character(z, x)
    _emit_session(out, session)
    out.section("char")
    out.pair("point", format_point(z), text=f"point: {format_point(z)}")
    out.pair("value", format_value(value), text=f"character: {format_value(value)}")
    return 0


def _run_classify(session: Session, args, out: Output) -> int:
    z = _point(session, args.point)
    cls = classify_point(z, session.epsilon)
    _emit_session(out, session)
    out.section("classify")
    out.pair("point", format_point(z), text=f"point: {format_point(z)}")
    out.pair("class", cls.tag, text=f"class: {cls.tag}")
    if cls.witness is not None:
        from .parsing import format_float_complex

        out.pair(
            "witness",
            format_float_complex(cls.witness),
            text=f"witness multiplier: {format_float_complex(cls.witness)}",
        )
    irreducible = _bool(is_irreducible(z, session.epsilon))
    out.pair("irreducible", irreducible, text=f"irreducible: {irreducible}")
    dim = commutant_dimension(z, session.epsilon)
    out.pair("commutant_dimension", dim, text=f"commutant dimension: {dim}")
    if cls.tag != REGULAR:
        y, ym = decompose_nonregular(z, session.epsilon)
        out.pair("decomposition_plus", format_point(y), text=f"splits as phi at {format_point(y)}")
        out.pair("decomposition_minus", format_point(ym), text=f"          and phi at {format_point(ym)}")
    return 0


def _run_orbit(session: Session, args, out: Output) -> int:
    a = _point(session, args.left)
    b = _point(session, args.right)
    eq = orbit_equivalent(a, b, session.epsilon)
    _emit_session(out, session)
    out.section("orbit")
    out.pair("left", format_point(a), text=f"left:  {format_point(a)}")
    out.pair("right", format_point(b), text=f"right: {format_point(b)}")
    out.pair("equivalent", _bool(eq), text="equivalent" if eq else "not equivalent")
    return 0 if eq else 1


def _run_span(session: Session, args, out: Output) -> int:
    spec = _spec(session, args.gens)
    span = ideal_span(spec)
    _emit_session(out, session)
    out.section("span")
    _emit_generators(out, args.gens)
    out.pair("degree_bound", spec.degree_bound, text=f"degree bound: {spec.degree_bound}")
    out.pair("dimension", span.dimension, text=f"span dimension: {span.dimension}")
    _emit_basis(out, span)
    return 0


def _run_member(session: Session, args, out: Output) -> int:
    spec = _spec(session, args.gens)
    target = _parse_nc(session, args.target)
    inside = membership(spec, target)
    _emit_session(out, session)
    out.section("member")
    out.pair("target", args.target, text=f"target: {args.target}")
    _emit_generators(out, args.gens)
    out.pair("member", _bool(inside), text="member" if inside else "not a member")
    return 0 if inside else 1


def _run_graded(session: Session, args, out: Output) -> int:
    spec = _spec(session, args.gens)
    graded = is_graded(spec)
    _emit_session(out, session)
    out.section("graded")
    _emit_generators(out, args.gens)
    out.pair("graded", _bool(graded), text="graded" if graded else "not graded")
    return 0 if graded else 1


def _run_pair(session: Session, args, out: Output) -> int:
    spec = _spec(session, args.gens)
    rng = Random(session.seed)
    sample = sample_points(session.n, rng)
    result = classify_pair(spec, sample, session.epsilon)
    span = ideal_span(spec)
    graded = is_graded(spec)
    _emit_session(out, session)
    out.section("ideal")
    _emit_generators(out, args.gens)
    out.pair("degree_bound", spec.degree_bound, text=f"degree bound: {spec.degree_bound}")
    out.pair("span_dimension", span.dimension, text=f"span dimension: {span.dimension}")
    out.pair("graded", _bool(graded), text=f"graded: {_bool(graded)}")
    out.pair("sigma_stable", _bool(graded), text=f"sigma stable: {_bool(graded)}")
    out.section("sample")
    out.pair("count", len(sample), text=f"sampled {len(sample)} points")
    out.section("pair")
    out.pair("E_count", len(result.E), text=f"E: {len(result.E)} regular points")
    for k, z in enumerate(result.E, start=1):
        out.pair(f"E_{k}", format_point(z), text=f"  E {k}: {format_point(z)}")
    out.pair("F_count", len(result.F), text=f"F: {len(result.F)} real points")
    for k, y in enumerate(result.F, start=1):
        out.pair(f"F_{k}", format_point(y), text=f"  F {k}: {format_point(y)}")
    out.pair(
        "non_classical",
        _bool(result.non_classical),
        text=f"non-classical: {_bool(result.non_classical)}",
    )
    symmetric = _bool(sampled_f_symmetric(result))
    out.pair("F_symmetric", symmetric, text=f"sampled F = -F: {symmetric}")
    return 0


def _run_vanish(session: Session, args, out: Output) -> int:
    points = [_point(session, p) for p in args.points]
    span = vanishing_ideal(points, session.degree_bound, session.n)
    _emit_session(out, session)
    out.section("vanish")
    out.pair("point_count", len(points), text=f"{len(points)} points")
    for k, z in enumerate(points, start=1):
        out.pair(f"point_{k}", format_point(z), text=f"  point {k}: {format_point(z)}")
    out.pair("degree_bound", session.degree_bound, text=f"degree bound: {session.degree_bound}")
    out.pair("dimension", span.dimension, text=f"kernel dimension: {span.dimension}")
    _emit_basis(out, span)
    return 0


def _run_projcheck(session: Session, args, out: Output) -> int:
    report = check_projector_relations(session.n)
    _emit_session(out, session)
    out.section("projcheck")
    out.pair("n", session.n, text=f"n = {session.n}")
    out.pair("adjoint", _bool(report.adjoint_ok), text=f"p = p*: {_bool(report.adjoint_ok)}")
    out.pair("idempotent", _bool(report.idempotent_ok), text=f"p = p^2: {_bool(report.idempotent_ok)}")
    out.pair("trace", _bool(report.trace_ok), text=f"tr(p) = 1: {_bool(report.trace_ok)}")
    out.pair("passed", _bool(report.passed), text=f"overall: {_bool(report.passed)}")
    return 0 if report.passed else 1


def _run_verify(session: Session, args, out: Output) -> int:
    from .verify import run_suites, suite_names

    name = args.suite
    if name == "all":
        names = suite_names()
    elif name in suite_names():
        names = [name]
    else:
        raise PreconditionError(
            f"unknown suite {name!r}; available: all, " + ", ".join(suite_names())
        )
    results = run_suites(names, seed=session.seed)
    _emit_session(out, session)
    out.section("verify")
    ok = True
    for r in results:
        ok = ok and r.passed
        status = "PASS" if r.passed else "FAIL"
        if out.fmt == "structured":
            out.pair(r.name, status.lower())
        else:
            out.text(f"{r.name}: {status} ({r.summary})")
            for line in r.details:
                out.text(f"    {line}")
    return 0 if ok else 1


def _emit_generators(out: Output, gen_texts):
    out.pair("generator_count", len(gen_texts), text=f"{len(gen_texts)} generator(s)")
    for k, g in enumerate(gen_texts, start=1):
        out.pair(f"generator_{k}", g, text=f"  generator {k}: {g}")


def _emit_basis(out: Output, span):
    for k, b in enumerate(span.vectors(), start=1):
        lift = format_ncpoly(nc_lift(b))
        out.pair(f"basis_{k}", lift, text=f"  basis {k}: {lift}")


_HANDLERS = {
    "nf": _run_nf,
    "eq": _run_eq,
    "grade": _run_grade,
    "nu": _run_unary,
    "gamma": _run_unary,
    "phi": _run_phi,
    "phi-inv": _run_phi_inv,
    "theta": _run_theta,
    "phirep": _run_phirep,
    "char": _run_char,
    "classify": _run_classify,
    "orbit": _run_orbit,
    "span": _run_span,
    "member": _run_member,
    "graded": _run_graded,
    "pair": _run_pair,
    "vanish": _run_vanish,
    "projcheck": _run_projcheck,
    "verify": _run_verify,
}


def run(argv) -> "tuple[int, str]":
    """Parse argv, execute, and return (exit_code, output_text)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    session = _session(args)
    out = Output(fmt=session.fmt)
    code = _HANDLERS[args.command](session, args, out)
    return code, out.render()


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        code, text = run(argv)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except HalfsphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
