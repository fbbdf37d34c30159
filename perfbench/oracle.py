"""Independent arithmetic for the benchmark's answer checks.

Nothing here imports halfsphere.  Expressions (inputs the benchmark writes and
outputs the program prints) are parsed by a small parser of our own and
evaluated in 2-dimensional representations of the algebra:

    theta(v_i) = [[0, a_i], [b_i, 0]]    with  sum_i a_i b_i = 1

which satisfy v_i v_j v_k = v_k v_j v_i and sum v_i^2 = 1 for any such (a, b).
For a point z of the complex sphere, b = conj(z) gives the paper's theta_z;
p_ij maps to theta(v_i) theta(v_j), z_i to a_i and z_i~ to b_i.  A real point
y gives the character v_i -> y_i.

Arithmetic is exact in Z/P for a 64-bit prime P = 1 (mod 4), with i read as
a square root of -1; rational points and Gaussian-rational coefficients are
reduced mod P.  An identity over Q(i) stays an identity mod P, so a right
answer is never rejected; a wrong one passes only with probability about
degree / P.  (Exact Fraction arithmetic gave the same verdicts at five to ten
times the cost of the op being checked.)
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

P = (1 << 64) - 59  # prime, = 1 (mod 4)


def _sqrt_minus_one(p: int) -> int:
    for g in range(2, 200):
        if pow(g, (p - 1) // 2, p) == p - 1:
            return pow(g, (p - 1) // 4, p)
    raise ValueError("no quadratic non-residue found")


IOTA = _sqrt_minus_one(P)


# ----------------------------------------------------------------------
# scalar fields


def _frac_mod(q: Fraction) -> int:
    return q.numerator % P * pow(q.denominator % P, -1, P) % P


class ModP:
    """An element of Z/P with i read as IOTA."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % P

    @staticmethod
    def of(re, im=0) -> "ModP":
        return ModP(_frac_mod(Fraction(re)) + IOTA * _frac_mod(Fraction(im)))

    def __add__(self, o):
        return ModP(self.v + o.v)

    def __sub__(self, o):
        return ModP(self.v - o.v)

    def __neg__(self):
        return ModP(-self.v)

    def __mul__(self, o):
        return ModP(self.v * o.v)

    def __eq__(self, o):
        return self.v == o.v

    def __hash__(self):
        return hash(self.v)

    def is_zero(self):
        return self.v == 0

    def __repr__(self):
        return f"ModP({self.v})"


# ----------------------------------------------------------------------
# points


ONE, ZERO = ModP(1), ModP(0)


class Point:
    """Values for the letters: v_i -> [[0, a_i], [b_i, 0]], z_i -> a_i, z_i~ -> b_i."""

    __slots__ = ("a", "b")

    def __init__(self, a: Sequence[ModP], b: Sequence[ModP]):
        self.a = list(a)
        self.b = list(b)

    def swapped(self) -> "Point":
        return Point(self.b, self.a)


def exact_point(coords: Sequence[Tuple[Fraction, Fraction]]) -> Point:
    """A rational sphere point given as (re, im) pairs, reduced mod P."""
    a = [ModP.of(re, im) for re, im in coords]
    b = [ModP.of(re, -im) for re, im in coords]
    return Point(a, b)


def random_modp_point(n: int, rng) -> Point:
    """A random point of {sum a_i b_i = 1} over Z/P (a, b independent)."""
    while True:
        a = [rng.randrange(1, P) for _ in range(n)]
        b = [rng.randrange(1, P) for _ in range(n - 1)]
        rest = (1 - sum(x * y for x, y in zip(a, b))) % P
        last = rest * pow(a[-1], -1, P) % P
        if last:
            b.append(last)
            return Point([ModP(x) for x in a], [ModP(x) for x in b])


def is_regular(coords: Sequence[Tuple[Fraction, Fraction]]) -> bool:
    """Not a unit multiple of a real point: some z_i conj(z_j) is not real."""
    for (ar, ai), (br, bi) in [(coords[i], coords[j]) for i in range(len(coords)) for j in range(i + 1, len(coords))]:
        if ai * br - ar * bi != 0:
            return True
    return False


def gram(coords: Sequence[Tuple[Fraction, Fraction]]):
    return [
        [(ar * br + ai * bi, ai * br - ar * bi) for br, bi in coords]
        for ar, ai in coords
    ]


def orbit_equivalent(z, w) -> bool:
    """Equal Gram matrices, directly or after conjugating one of them."""
    gz, gw = gram(z), gram(w)
    conj = [[(re, -im) for re, im in row] for row in gw]
    return gz == gw or gz == conj


# ----------------------------------------------------------------------
# expressions

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|v(?P<v>\d+)|p\((?P<pi>\d+),(?P<pj>\d+)\)|p(?P<pa>\d)(?P<pb>\d)"
    r"|z(?P<z>\d+)(?P<tilde>~?)|(?P<op>[-+*/^()i]))"
)


def _tokens(text: str):
    pos = 0
    out = []
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot tokenize {text[pos:pos + 20]!r}")
        pos = m.end()
        g = m.lastgroup
        if g == "num":
            out.append(("num", int(m.group("num"))))
        elif g == "v":
            out.append(("v", int(m.group("v"))))
        elif g in ("pj", "pb"):
            i = m.group("pi") or m.group("pa")
            j = m.group("pj") or m.group("pb")
            out.append(("p", (int(i), int(j))))
        elif g == "tilde" or g == "z":
            out.append(("z", (int(m.group("z")), bool(m.group("tilde")))))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", None))
    return out


class _Parser:
    """expr := [+-] term ([+-] term)*;  term := factor ([*] factor)*;
    factor := atom [^ INT];  atom := NUM [/ NUM] [i] | i | v_k | p_ij | z_k[~] | ( expr )

    Produces ("sum", [(sign, [factors])]) trees; a factor is ("const", re, im),
    ("v", k), ("p", (i, j)), ("z", (k, conj)), ("pow", factor, k) or a sum.
    """

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, op):
        t = self.take()
        if t != ("op", op):
            raise ValueError(f"expected {op!r}, got {t!r}")

    def parse(self):
        tree = self.expr()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing input at {self.peek()!r}")
        return tree

    def expr(self):
        terms = []
        sign = 1
        if self.peek() in (("op", "-"), ("op", "+")):
            sign = -1 if self.take()[1] == "-" else 1
        terms.append((sign, self.term()))
        while self.peek() in (("op", "-"), ("op", "+")):
            sign = -1 if self.take()[1] == "-" else 1
            terms.append((sign, self.term()))
        return ("sum", terms)

    def term(self):
        factors = [self.factor()]
        while True:
            t = self.peek()
            if t == ("op", "*"):
                self.take()
                factors.append(self.factor())
            elif t[0] in ("num", "v", "p", "z") or t in (("op", "("), ("op", "i")):
                factors.append(self.factor())
            else:
                return factors

    def factor(self):
        node = self.atom()
        while self.peek() == ("op", "^"):
            self.take()
            kind, k = self.take()
            if kind != "num":
                raise ValueError("exponent must be an integer")
            node = ("pow", node, k)
        return node

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            q = Fraction(val)
            if self.peek() == ("op", "/"):
                self.take()
                kind2, den = self.take()
                if kind2 != "num":
                    raise ValueError("expected a denominator")
                q = Fraction(val, den)
            if self.peek() == ("op", "i"):
                self.take()
                return ("const", Fraction(0), q)
            return ("const", q, Fraction(0))
        if (kind, val) == ("op", "i"):
            return ("const", Fraction(0), Fraction(1))
        if kind in ("v", "p", "z"):
            return (kind, val)
        if (kind, val) == ("op", "("):
            inner = self.expr()
            self.expect(")")
            return inner
        raise ValueError(f"unexpected token {(kind, val)!r}")


def parse(text: str):
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# evaluation

Mat = Tuple  # (m00, m01, m10, m11)


def mat_mul(x: Mat, y: Mat) -> Mat:
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def mat_add(x: Mat, y: Mat) -> Mat:
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def mat_scale(c, x: Mat) -> Mat:
    return (c * x[0], c * x[1], c * x[2], c * x[3])


def _times_v(x: Mat, pt: Point, k: int) -> Mat:
    """x * theta(v_k), using that theta(v_k) is anti-diagonal."""
    a, b = pt.a[k - 1], pt.b[k - 1]
    return (x[1] * b, x[0] * a, x[3] * b, x[2] * a)


def eval_matrix(tree, pt: Point) -> Mat:
    """theta(tree) at the point; only v and p letters and constants allowed."""
    tag = tree[0]
    if tag == "sum":
        total = (ZERO, ZERO, ZERO, ZERO)
        for sign, factors in tree[1]:
            acc = (ONE, ZERO, ZERO, ONE)
            scalar = ONE if sign > 0 else -ONE
            for f in factors:
                ftag = f[0]
                if ftag == "const":
                    scalar = scalar * ModP.of(f[1], f[2])
                elif ftag == "v":
                    acc = _times_v(acc, pt, f[1])
                elif ftag == "p":
                    acc = _times_v(_times_v(acc, pt, f[1][0]), pt, f[1][1])
                else:
                    acc = mat_mul(acc, eval_matrix(f, pt))
            total = mat_add(total, mat_scale(scalar, acc))
        return total
    if tag == "pow":
        base = eval_matrix(tree[1], pt)
        result = (ONE, ZERO, ZERO, ONE)
        e = tree[2]
        while e:
            if e & 1:
                result = mat_mul(result, base)
            base = mat_mul(base, base)
            e >>= 1
        return result
    if tag == "const":
        c = ModP.of(tree[1], tree[2])
        return (c, ZERO, ZERO, c)
    if tag == "v":
        return _times_v((ONE, ZERO, ZERO, ONE), pt, tree[1])
    if tag == "p":
        i, j = tree[1]
        return _times_v(_times_v((ONE, ZERO, ZERO, ONE), pt, i), pt, j)
    raise ValueError(f"{tag} letters have no matrix value")


def eval_scalar(tree, pt: Point):
    """Commutative evaluation: v_i -> a_i, z_i -> a_i, z_i~ -> b_i.

    With a = b = y real this is the character phi_y; on a z-polynomial it is
    its value at (z, conj z).
    """
    tag = tree[0]
    if tag == "sum":
        total = ZERO
        for sign, factors in tree[1]:
            acc = ONE if sign > 0 else -ONE
            for f in factors:
                acc = acc * eval_scalar(f, pt)
            total = total + acc
        return total
    if tag == "pow":
        base = eval_scalar(tree[1], pt)
        acc = ONE
        for _ in range(tree[2]):
            acc = acc * base
        return acc
    if tag == "const":
        return ModP.of(tree[1], tree[2])
    if tag == "v":
        return pt.a[tree[1] - 1]
    if tag == "z":
        k, conj = tree[1]
        return pt.b[k - 1] if conj else pt.a[k - 1]
    raise ValueError(f"{tag} letters have no scalar value")


def even_part(m: Mat) -> Mat:
    """Words of even length map to diagonal matrices, odd ones to anti-diagonal."""
    return (m[0], ZERO, ZERO, m[3])


def odd_part(m: Mat) -> Mat:
    return (ZERO, m[1], m[2], ZERO)


# ----------------------------------------------------------------------
# truncations and ranks


@lru_cache(maxsize=None)
def reduced_monomials(n: int, d: int) -> Tuple:
    """(weight, a, b) for every canonical monomial of weight 0 or 1, degree <= d.

    A monomial z^a z~^b is canonical when not both a_1 and b_1 are positive;
    its weight is |a| - |b|.
    """
    out = []
    for weight in (0, 1):
        for deg in range(weight, d + 1, 2):
            sa, sb = (deg + weight) // 2, (deg - weight) // 2
            for a in _compositions(sa, n):
                for b in _compositions(sb, n):
                    if a[0] and b[0]:
                        continue
                    out.append((weight, a, b))
    return tuple(out)


def _compositions(total: int, parts: int):
    if parts == 1:
        return [(total,)]
    return [(f,) + rest for f in range(total + 1) for rest in _compositions(total - f, parts - 1)]


def rank_mod_p(rows: List[List[int]], limit: Optional[int] = None) -> int:
    """Rank over Z/P of integer rows (entries already reduced mod P).

    Stops early once the rank reaches ``limit`` (a known upper bound).

    Forward elimination: every stored row is zero left of its pivot, so
    reducing a new row against the pivots in increasing column order is exact.
    """
    pivots: Dict[int, List[int]] = {}
    for row in rows:
        r = list(row)
        for col in sorted(pivots):
            c = r[col]
            if c:
                prow = pivots[col]
                r[col:] = [(x - c * y) % P for x, y in zip(r[col:], prow[col:])]
        lead = next((k for k, x in enumerate(r) if x), None)
        if lead is not None:
            inv = pow(r[lead], -1, P)
            pivots[lead] = [x * inv % P for x in r]
            if len(pivots) == limit:
                break
    return len(pivots)


def words_up_to(n: int, length: int):
    """All words over 1..n of length <= length."""
    for k in range(length + 1):
        yield from product(range(1, n + 1), repeat=k)


def word_matrix(word, pt: Point) -> Mat:
    acc = (ONE, ZERO, ZERO, ONE)
    for k in word:
        acc = _times_v(acc, pt, k)
    return acc
