"""Command line interface.

Exit codes: 0 success, 1 mathematical falsity (eq/orbit/member/graded/
projcheck/verify answering no), 2 usage or parse error (a zero denominator
included), 3 precondition violation.  A closed output pipe ends the run
quietly with 1.  Output is plain text or the line-oriented structured format
(`[section]` headers and `key = value` lines in a stable order).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from random import Random
from typing import List, NamedTuple

from .algebra import nc_lift
from .errors import HalfsphereError, ParseError, PreconditionError
from .parsing import (
    format_crossed,
    format_float_complex,
    format_mat2,
    format_ncpoly,
    format_point,
    format_value,
    format_zpoly,
    parse_expr,
    parse_model,
    parse_point,
)
from .projective import check_projector_relations, phi_inv
from .representations import (
    REGULAR,
    SpherePoint,
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
    lift_basis,
    membership,
    sampled_f_symmetric,
    vanishing_ideal,
)


class Output(NamedTuple):
    fmt: str
    lines: List[str]

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


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args returns a fresh Namespace
    on every call, so nothing carries over between runs."""
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
    for name, (help_text, positionals, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg, **_POSITIONAL_OPTIONS.get(arg, {}))
    return parser


def _point(args, text: str):
    return parse_point(text, args.n, args.mode, args.eps)


def _spec(args) -> IdealSpec:
    gens = tuple(parse_expr(g, args.n).as_nc() for g in args.gens)
    return IdealSpec(args.n, gens, args.degree)


# ----------------------------------------------------------------------
# command handlers


def _run_nf(args, out: Output) -> int:
    x = parse_model(args.expr, args.n)
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


def _run_eq(args, out: Output) -> int:
    left = parse_model(args.left, args.n)
    right = parse_model(args.right, args.n)
    equal = left == right
    out.section("eq")
    out.pair("left", args.left, text=f"left:  {args.left}")
    out.pair("right", args.right, text=f"right: {args.right}")
    out.pair("equal", _bool(equal), text="equal" if equal else "not equal")
    return 0 if equal else 1


def _run_grade(args, out: Output) -> int:
    x = parse_model(args.expr, args.n)
    even, odd = x.grade()
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


def _run_unary(args, out: Output) -> int:
    name = args.command
    x = parse_model(args.expr, args.n)
    result = x.nu() if name == "nu" else x.gamma()
    out.section(name)
    if out.fmt == "structured":
        out.pair("even", format_zpoly(result.f0))
        out.pair("odd", format_zpoly(result.f1))
        out.pair("lift", format_ncpoly(nc_lift(result)))
    else:
        out.text(f"{name}: {format_crossed(result)}")
        out.text(f"lift: {format_ncpoly(nc_lift(result))}")
    return 0


def _run_phi(args, out: Output) -> int:
    e = parse_expr(args.expr, args.n).as_p()
    result = e.phi()
    out.section("phi")
    out.pair("result", format_ncpoly(result), text=f"phi: {format_ncpoly(result)}")
    return 0


def _run_phi_inv(args, out: Output) -> int:
    x = parse_model(args.expr, args.n)
    f = phi_inv(x)
    out.section("phi-inv")
    out.pair("result", format_zpoly(f), text=f"phi-inv: {format_zpoly(f)}")
    return 0


def _run_theta(args, out: Output) -> int:
    z = _point(args, args.point)
    x = parse_model(args.expr, args.n)
    m = theta(z, x)
    out.section("theta")
    out.pair("point", format_point(z), text=f"point: {format_point(z)}")
    out.pair("matrix", format_mat2(m), text=f"theta: {format_mat2(m)}")
    return 0


def _run_phirep(args, out: Output) -> int:
    y = _point(args, args.point)
    x = parse_model(args.expr, args.n)
    value = phi_rep(y, x)
    out.section("phirep")
    out.pair("point", format_point(y), text=f"point: {format_point(y)}")
    out.pair("value", format_value(value), text=f"phi: {format_value(value)}")
    return 0


def _run_char(args, out: Output) -> int:
    z = _point(args, args.point)
    x = parse_model(args.expr, args.n)
    value = character(z, x)
    out.section("char")
    out.pair("point", format_point(z), text=f"point: {format_point(z)}")
    out.pair("value", format_value(value), text=f"character: {format_value(value)}")
    return 0


def _run_classify(args, out: Output) -> int:
    z = _point(args, args.point)
    cls = classify_point(z)
    out.section("classify")
    out.pair("point", format_point(z), text=f"point: {format_point(z)}")
    out.pair("class", cls.tag, text=f"class: {cls.tag}")
    if cls.witness is not None:
        out.pair(
            "witness",
            format_float_complex(cls.witness),
            text=f"witness multiplier: {format_float_complex(cls.witness)}",
        )
    irreducible = _bool(is_irreducible(z))
    out.pair("irreducible", irreducible, text=f"irreducible: {irreducible}")
    dim = commutant_dimension(z)
    out.pair("commutant_dimension", dim, text=f"commutant dimension: {dim}")
    if cls.tag != REGULAR:
        y, ym = decompose_nonregular(z)
        out.pair("decomposition_plus", format_point(y), text=f"splits as phi at {format_point(y)}")
        out.pair("decomposition_minus", format_point(ym), text=f"          and phi at {format_point(ym)}")
    return 0


def _run_orbit(args, out: Output) -> int:
    a = _point(args, args.left)
    b = _point(args, args.right)
    eq = orbit_equivalent(a, b)
    out.section("orbit")
    out.pair("left", format_point(a), text=f"left:  {format_point(a)}")
    out.pair("right", format_point(b), text=f"right: {format_point(b)}")
    out.pair("equivalent", _bool(eq), text="equivalent" if eq else "not equivalent")
    return 0 if eq else 1


def _run_span(args, out: Output) -> int:
    spec = _spec(args)
    span = ideal_span(spec)
    out.section("span")
    _emit_generators(out, args.gens)
    out.pair("degree_bound", spec.degree_bound, text=f"degree bound: {spec.degree_bound}")
    out.pair("dimension", span.dimension, text=f"span dimension: {span.dimension}")
    _emit_basis(out, span)
    return 0


def _run_member(args, out: Output) -> int:
    spec = _spec(args)
    target = parse_expr(args.target, args.n).as_nc()
    inside = membership(spec, target)
    out.section("member")
    out.pair("target", args.target, text=f"target: {args.target}")
    _emit_generators(out, args.gens)
    out.pair("member", _bool(inside), text="member" if inside else "not a member")
    return 0 if inside else 1


def _run_graded(args, out: Output) -> int:
    spec = _spec(args)
    graded = is_graded(spec)
    out.section("graded")
    _emit_generators(out, args.gens)
    out.pair("graded", _bool(graded), text="graded" if graded else "not graded")
    return 0 if graded else 1


def _run_pair(args, out: Output) -> int:
    spec = _spec(args)
    rng = Random(args.seed)
    sample = sample_points(args.n, rng)
    if args.mode == "approx":
        sample = [SpherePoint.from_floats(z.coords, args.eps) for z in sample]
    result = classify_pair(spec, sample)
    span = ideal_span(spec)
    graded = is_graded(spec)
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


def _run_vanish(args, out: Output) -> int:
    points = [_point(args, p) for p in args.points]
    span = vanishing_ideal(points, args.degree, args.n)
    out.section("vanish")
    out.pair("point_count", len(points), text=f"{len(points)} points")
    for k, z in enumerate(points, start=1):
        out.pair(f"point_{k}", format_point(z), text=f"  point {k}: {format_point(z)}")
    out.pair("degree_bound", args.degree, text=f"degree bound: {args.degree}")
    out.pair("dimension", span.dimension, text=f"kernel dimension: {span.dimension}")
    _emit_basis(out, span)
    return 0


def _run_projcheck(args, out: Output) -> int:
    report = check_projector_relations(args.n)
    out.section("projcheck")
    out.pair("n", args.n, text=f"n = {args.n}")
    out.pair("adjoint", _bool(report.adjoint_ok), text=f"p = p*: {_bool(report.adjoint_ok)}")
    out.pair("idempotent", _bool(report.idempotent_ok), text=f"p = p^2: {_bool(report.idempotent_ok)}")
    out.pair("trace", _bool(report.trace_ok), text=f"tr(p) = 1: {_bool(report.trace_ok)}")
    out.pair("passed", _bool(report.passed), text=f"overall: {_bool(report.passed)}")
    return 0 if report.passed else 1


def _run_verify(args, out: Output) -> int:
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
    results = run_suites(names, seed=args.seed)
    out.section("verify")
    ok = True
    for r in results:
        ok = ok and r.passed
        status = "PASS" if r.passed else "FAIL"
        if out.fmt == "structured":
            out.pair(r.name, status.lower())
        else:
            out.text(f"{r.name}: {status} ({r.summary}) [{r.seconds:.2f} s]")
            for line in r.details:
                out.text(f"    {line}")
    return 0 if ok else 1


def _emit_generators(out: Output, gen_texts):
    out.pair("generator_count", len(gen_texts), text=f"{len(gen_texts)} generator(s)")
    for k, g in enumerate(gen_texts, start=1):
        out.pair(f"generator_{k}", g, text=f"  generator {k}: {g}")


def _emit_basis(out: Output, span):
    for k, b in enumerate(lift_basis(span), start=1):
        lift = format_ncpoly(b)
        out.pair(f"basis_{k}", lift, text=f"  basis {k}: {lift}")


# name -> (help, positional arguments, handler), in --help order
_COMMANDS = {
    "nf": ("canonical form and a lift", ("expr",), _run_nf),
    "eq": ("decide equality of two expressions", ("left", "right"), _run_eq),
    "grade": ("even and odd parts", ("expr",), _run_grade),
    "nu": ("apply the sign automorphism", ("expr",), _run_unary),
    "gamma": ("apply the conjugation transport map", ("expr",), _run_unary),
    "phi": ("apply the projective correspondence", ("expr",), _run_phi),
    "phi-inv": ("invert the correspondence on an even element", ("expr",), _run_phi_inv),
    "theta": ("evaluate the 2x2 representation", ("point", "expr"), _run_theta),
    "phirep": ("evaluate the character at a real point", ("point", "expr"), _run_phirep),
    "char": ("trace of the representation", ("point", "expr"), _run_char),
    "classify": ("classify a sphere point", ("point",), _run_classify),
    "orbit": ("decide orbit equivalence of two points", ("left", "right"), _run_orbit),
    "span": ("span of a truncated ideal", ("gens",), _run_span),
    "member": (
        "membership of an element in a truncated ideal",
        ("target", "gens"),
        _run_member,
    ),
    "graded": ("is the truncated ideal graded", ("gens",), _run_graded),
    "pair": ("classify the quantum subspace pair (E, F)", ("gens",), _run_pair),
    "vanish": ("vanishing ideal of sampled points", ("points",), _run_vanish),
    "projcheck": ("verify the projector presentation", (), _run_projcheck),
    "verify": ("run acceptance suites", ("suite",), _run_verify),
}

# argparse options of the positional arguments that are not a single value
_POSITIONAL_OPTIONS = {
    "gens": {"nargs": "+"},
    "points": {"nargs": "*"},
    "suite": {"nargs": "?", "default": "all"},
}


def run(argv) -> "tuple[int, str]":
    """Parse argv, execute, and return (exit_code, output_text)."""
    args = build_parser().parse_args(argv)
    if args.n < 1:
        raise PreconditionError("n must be at least 1")
    if args.degree < 0:
        raise PreconditionError("degree bound must be nonnegative")
    if not args.eps > 0:
        raise PreconditionError("eps must be positive")
    out = Output(args.fmt, [])
    out.section("session")
    if out.fmt == "structured":
        out.pair("n", args.n)
        out.pair("mode", args.mode)
        out.pair("degree", args.degree)
        out.pair("seed", args.seed)
    code = _COMMANDS[args.command][2](args, out)
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
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe (`| head`); send the exit-time flush
            # to devnull so it cannot fail again, and exit 1 as Python does
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
