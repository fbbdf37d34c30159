"""Expression grammar and deterministic printers for the CLI.

Expressions:  expr := term (('+'|'-') term)*
              term := scalar? factor*
              factor := 'v' INT | 'p' D D | 'p(' INT ',' INT ')' | '(' expr ')'
                        | factor '^' INT
'*' between factors is optional.  Scalar literals are Gaussian rationals
written without interior whitespace: 3/5, -2, i, 4/5i, 3/5+4/5i.  The v and
p alphabets cannot be mixed inside one expression.  Points are comma
separated scalar literals; a '.' or an exponent (1e-05) in any coordinate
makes the point floating and switches that computation to approximate mode.
Every literal is read as an exact Gaussian rational first (0.6 is 3/5), and
float points convert afterwards; a zero denominator is a parse error.

parse_model evaluates a v-expression straight into the crossed-product
model: pi(parse_expr(text, n).as_nc()), computed by the same evaluator as
parse_expr over unreduced CrossedTerms, so sums under products and powers
are never expanded in the free algebra, where (v1 + v2 + v3)^k has 3^k
words, and a long word is a fixed-size exponent key, not a tuple of letters.

Printers are the inverse direction: every canonical object is rendered in a
unique, reparseable way (z-monomials appear only in output).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .algebra import CrossedElem, CrossedTerms, NCPoly, nc_lift
from .errors import DimensionError, MixedAlphabetError, ParseError, PreconditionError
from .projective import PExpr
from .representations import Mat2, SpherePoint
from .scalars import DEFAULT_EPSILON, EC_ONE, ApproxOps, ExactComplex
from .sphere_ring import ZPoly

_NUM_EXACT = r"\d+(?:/\d+)?"
_NUM_POINT = r"(?:(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|\d+/\d+)"


def _scalar_patterns(num: str, allow_sign: bool):
    sign = r"[+-]?" if allow_sign else r""
    full = re.compile(rf"({sign})({num})([+-])({num})?i")
    imag = re.compile(rf"({sign})({num})?i")
    real = re.compile(rf"({sign})({num})")
    return full, imag, real


_EXPR_FULL, _EXPR_IMAG, _EXPR_REAL = _scalar_patterns(_NUM_EXACT, allow_sign=False)
_PT_FULL, _PT_IMAG, _PT_REAL = _scalar_patterns(_NUM_POINT, allow_sign=True)

_VGEN = re.compile(r"v(\d+)")
_PGEN_SHORT = re.compile(r"p(\d)(\d)")
_PGEN_LONG = re.compile(r"p\(\s*(\d+)\s*,\s*(\d+)\s*\)")
_INT = re.compile(r"\d+")


def _fraction_of(text: str, pos: int) -> Fraction:
    """An unsigned decimal or n/d literal; '0.6', '.5' and '1e-05' read exactly.

    An exponent beyond +-999 is refused before Fraction builds 10**exponent;
    every float lies well inside that range.  A digit string longer than
    Python converts to an int (sys.get_int_max_str_digits) is refused too.
    """
    try:
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise ParseError(f"zero denominator in {text!r}", pos)
            return Fraction(int(num), int(den))
        exponent_digits = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
        if len(exponent_digits) > 3:
            raise ParseError(f"exponent out of range in {text!r}", pos)
        return Fraction(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"scalar literal longer than {limit} digits", pos) from None


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0
        self.kind: Optional[str] = None  # 'v' or 'p' once a generator appears

    # -- low level ---------------------------------------------------

    def _ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _match(self, pattern: re.Pattern):
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def _fail(self, message: str):
        raise ParseError(message, self.pos)

    # -- grammar -----------------------------------------------------

    def parse(self):
        terms = self._expr()
        self._ws()
        if self.pos != len(self.text):
            self._fail(f"unexpected character {self._peek()!r}")
        return terms

    def _expr(self) -> List[Tuple[ExactComplex, list]]:
        terms = []
        self._ws()
        sign = 1
        if self._peek() in ("+", "-"):
            sign = -1 if self._peek() == "-" else 1
            self.pos += 1
        terms.append(self._term(sign))
        while True:
            self._ws()
            ch = self._peek()
            if ch not in ("+", "-"):
                break
            self.pos += 1
            terms.append(self._term(-1 if ch == "-" else 1))
        return terms

    def _term(self, sign: int) -> Tuple[ExactComplex, list]:
        self._ws()
        coeff = EC_ONE * sign
        scalar = self._scalar()
        if scalar is not None:
            coeff = coeff * scalar
        factors = []
        while True:
            self._ws()
            if self._peek() == "*":
                self.pos += 1
                self._ws()
                factor = self._factor()
                if factor is None:
                    self._fail("expected a generator or '(' after '*'")
            else:
                factor = self._factor()
                if factor is None:
                    break
            factors.append(factor)
        if scalar is None and not factors:
            self._fail("empty term")
        return coeff, factors

    def _scalar(self) -> Optional[ExactComplex]:
        for pattern in (_EXPR_FULL, _EXPR_IMAG, _EXPR_REAL):
            m = self._match(pattern)
            if m:
                return _scalar_from_groups(m)
        return None

    def _factor(self):
        self._ws()
        node = self._atom()
        if node is None:
            return None
        while True:
            self._ws()
            if self._peek() != "^":
                return node
            self.pos += 1
            self._ws()
            m = self._match(_INT)
            if not m:
                self._fail("expected an integer exponent after '^'")
            node = ("pow", node, int(m.group(0)))

    def _atom(self):
        ch = self._peek()
        if ch == "v":
            m = self._match(_VGEN)
            if not m:
                self._fail("malformed v-generator")
            i = int(m.group(1))
            self._check_index(i)
            self._set_kind("v")
            return ("v", i)
        if ch == "p":
            m = self._match(_PGEN_LONG) or self._match(_PGEN_SHORT)
            if not m:
                self._fail("malformed p-generator")
            i, j = int(m.group(1)), int(m.group(2))
            self._check_index(i)
            self._check_index(j)
            self._set_kind("p")
            return ("p", i, j)
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            self._ws()
            if self._peek() != ")":
                self._fail("expected ')'")
            self.pos += 1
            return ("paren", inner)
        return None

    def _set_kind(self, kind: str):
        if self.kind is None:
            self.kind = kind
        elif self.kind != kind:
            raise MixedAlphabetError(
                "cannot mix v-generators and p-generators", self.pos
            )

    def _check_index(self, i: int):
        if not 1 <= i <= self.n:
            self._fail(f"generator index {i} out of range 1..{self.n}")


def _scalar_from_groups(m: re.Match) -> ExactComplex:
    """The Gaussian rational of a matched literal: a+bi, bi or a."""
    groups = m.groups()
    if len(groups) == 4:  # full a+bi form
        sign_re, re_txt, sign_im, im_txt = groups
    elif m.group(0).endswith("i"):  # pure imaginary
        sign_re, re_txt = "", "0"
        sign_im, im_txt = groups
    else:
        sign_re, re_txt = groups
        sign_im, im_txt = "", "0"
    re_part = _fraction_of(re_txt, m.start())
    im_part = _fraction_of(im_txt or "1", m.start())
    return ExactComplex(
        -re_part if sign_re == "-" else re_part, -im_part if sign_im == "-" else im_part
    )


_V_EXPECTED = "expected an expression in the v-generators"


class ParsedExpr(NamedTuple):
    kind: str  # "v", "p" or "const"
    n: int
    nc: Optional[NCPoly]
    p: Optional[PExpr]

    def as_nc(self) -> NCPoly:
        if self.nc is None:
            raise ParseError(_V_EXPECTED, 0)
        return self.nc

    def as_p(self) -> PExpr:
        if self.p is None:
            raise ParseError("expected an expression in the p-generators", 0)
        return self.p


def parse_expr(text: str, n: int) -> ParsedExpr:
    parser = _Parser(text, n)
    terms = parser.parse()
    kind = parser.kind or "const"
    if kind == "v":
        return ParsedExpr("v", n, _eval_terms(terms, n, NCPoly), None)
    if kind == "p":
        return ParsedExpr("p", n, None, _eval_terms(terms, n, PExpr))
    return ParsedExpr(
        "const", n, _eval_terms(terms, n, NCPoly), _eval_terms(terms, n, PExpr)
    )


def _eval_terms(terms, n: int, cls):
    total = cls.zero(n)
    for coeff, factors in terms:
        acc = cls.constant(n, coeff)
        for f in factors:
            acc = acc * _eval_factor(f, n, cls)
        total = total + acc
    return total


def _eval_factor(node, n: int, cls):
    tag = node[0]
    if tag in ("v", "p"):
        # the parser keeps one alphabet per expression, the one cls is built on
        return cls.generator(n, *node[1:])
    if tag == "paren":
        return _eval_terms(node[1], n, cls)
    if tag == "pow":
        if node[2] == 0:
            # the parser has already checked the base's indices and alphabet
            return cls.one(n)
        base = _eval_factor(node[1], n, cls)
        acc = cls.one(n)
        for _ in range(node[2]):
            acc = acc * base
        return acc
    raise AssertionError(f"unknown AST node {tag}")


def parse_model(text: str, n: int) -> CrossedElem:
    """pi(parse_expr(text, n).as_nc()), evaluated in the model and reduced once."""
    parser = _Parser(text, n)
    terms = parser.parse()
    if parser.kind == "p":
        raise ParseError(_V_EXPECTED, 0)
    return _eval_terms(terms, n, CrossedTerms).crossed()


def parse_point(
    text: str, n: int, mode: str = "exact", eps: float = DEFAULT_EPSILON
) -> SpherePoint:
    """A point from comma separated literals; float in approx mode or when a
    coordinate has a '.' or an exponent, exact otherwise.  Literals are read
    exactly first.  A float point carries eps as its tolerance."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise DimensionError(f"point has {len(parts)} coordinates, expected {n}")
    coords = [_parse_coordinate(part) for part in parts]
    if mode == "approx" or any(ch in text for ch in ".eE"):
        try:
            coords = [ApproxOps.coerce(c) for c in coords]
        except PreconditionError:
            raise ParseError("coordinate out of float range", 0) from None
        return SpherePoint.from_floats(coords, eps)
    return SpherePoint.from_exact(coords)


def _parse_coordinate(part: str) -> ExactComplex:
    if not part:
        raise ParseError("empty coordinate", 0)
    for pattern in (_PT_FULL, _PT_IMAG, _PT_REAL):
        m = pattern.fullmatch(part)
        if m:
            return _scalar_from_groups(m)
    raise ParseError(f"malformed coordinate {part!r}", 0)


# ----------------------------------------------------------------------
# printers


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(c: ExactComplex) -> str:
    if c.im == 0:
        return format_rational(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{format_rational(c.im)}i"
    sign = "+" if c.im > 0 else "-"
    mag = abs(c.im)
    imtxt = "i" if mag == 1 else f"{format_rational(mag)}i"
    return f"{format_rational(c.re)}{sign}{imtxt}"


def _format_complex(re, im, number) -> str:
    """`re+|im|i` or `re-|im|i`, each part printed by `number`."""
    sign = "+" if im >= 0 else "-"
    return f"{number(re)}{sign}{number(abs(im))}i"


def format_float_complex(c: complex) -> str:
    return _format_complex(c.real, c.imag, repr)


def _join_terms(rendered: List[Tuple[str, ExactComplex]]) -> str:
    if not rendered:
        return "0"
    parts: List[str] = []
    for body, coeff in rendered:
        text = _term_text(body, coeff)
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(" - " + text[1:])
        else:
            parts.append(" + " + text)
    return "".join(parts)


def _mixed_scalar_text(c: ExactComplex) -> str:
    # a negative real part inside parens would re-tokenize "a-bi" as a
    # single signed literal, so hoist the sign and keep re positive
    if c.re < 0:
        return f"-({format_scalar(-c)})"
    return f"({format_scalar(c)})"


def _term_text(body: str, c: ExactComplex) -> str:
    if not body:
        if c.re != 0 and c.im != 0:
            return _mixed_scalar_text(c)
        return format_scalar(c)
    if c == EC_ONE:
        return body
    if c.re == -1 and c.im == 0:
        return "-" + body
    if c.re < 0 or (c.re == 0 and c.im < 0):
        return "-" + _term_text(body, -c)
    if c.re != 0 and c.im != 0:
        return f"{_mixed_scalar_text(c)}*{body}"
    return f"({format_scalar(c)})*{body}"


def _format_run(symbol: str, count: int) -> str:
    return symbol if count == 1 else f"{symbol}^{count}"


def format_zpoly(f: ZPoly) -> str:
    rendered = []
    for (a, b), c in f.sorted_terms():
        factors = []
        for i in range(f.n):
            if a[i]:
                factors.append(_format_run(f"z{i + 1}", a[i]))
            if b[i]:
                factors.append(_format_run(f"z{i + 1}~", b[i]))
        rendered.append(("*".join(factors), c))
    return _join_terms(rendered)


def format_ncpoly(f: NCPoly) -> str:
    rendered = []
    for word, c in f.sorted_terms():
        factors = []
        for letter in word:
            if factors and factors[-1][0] == letter:
                factors[-1] = (letter, factors[-1][1] + 1)
            else:
                factors.append((letter, 1))
        body = "*".join(_format_run(f"v{i}", k) for i, k in factors)
        rendered.append((body, c))
    return _join_terms(rendered)


def format_pexpr(f: PExpr) -> str:
    rendered = []
    for pairs, c in f.sorted_terms():
        factors: List[Tuple[Tuple[int, int], int]] = []
        for pair in pairs:
            if factors and factors[-1][0] == pair:
                factors[-1] = (pair, factors[-1][1] + 1)
            else:
                factors.append((pair, 1))
        body_parts = []
        for (i, j), k in factors:
            sym = f"p{i}{j}" if i <= 9 and j <= 9 else f"p({i},{j})"
            body_parts.append(_format_run(sym, k))
        rendered.append(("*".join(body_parts), c))
    return _join_terms(rendered)


def format_crossed(x: CrossedElem) -> str:
    return f"[even] {format_zpoly(x.f0)} [odd] {format_zpoly(x.f1)}"


def format_lift(x: CrossedElem) -> str:
    return format_ncpoly(nc_lift(x))


def format_mat2(m: Mat2) -> str:
    entries = [format_value(e) for e in m.entries()]
    return f"[[{entries[0]}, {entries[1]}], [{entries[2]}, {entries[3]}]]"


def format_value(v) -> str:
    if isinstance(v, ExactComplex):
        return format_scalar(v)
    return format_float_complex(complex(v))


def format_point(p: SpherePoint) -> str:
    if p.exact:
        return ",".join(_format_complex(c.re, c.im, format_rational) for c in p.coords)
    return ",".join(format_float_complex(c) for c in p.coords)
