"""The three seeded workloads: op generators, timed calls and answer checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  Ops come in *rounds*: each round holds the same
fixed list of slots (op kind and input size) filled with fresh random content
and shuffled, so every seed measures the same mix and run-to-run spread comes
from the program, not from the draw.

Inputs depend only on the seed.  halfsphere is never imported here at module
level: the worker imports it after starting its set-up clock and passes the
modules in as ``hs``.  Checks run outside the timed region and use only
``oracle`` arithmetic, never halfsphere's.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from . import oracle as O


class Op:
    """One request: a kind, its inputs and the facts known by construction."""

    __slots__ = ("kind", "n", "d", "args", "facts", "slot")

    def __init__(self, kind: str, n: int, d: int, args, facts=None):
        self.kind = kind
        self.n = n
        self.d = d
        self.args = args
        self.facts = facts or {}
        self.slot = -1  # index into the workload's SLOTS

    def key(self):
        return (self.kind, self.n, self.d, repr(self.args), repr(sorted(self.facts.items())))

    def __repr__(self):
        return f"Op({self.kind}, n={self.n}, d={self.d}, {self.args!r})"


# ----------------------------------------------------------------------
# input text


def q_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def coef_text(re: Fraction, im: Fraction) -> str:
    """A parenthesized Gaussian rational in the program's grammar.

    Inside an expression a literal carries no sign of its own: a leading '-'
    negates the whole literal, so a negative real part with an imaginary part
    is written -(|re| -/+ |im| i).
    """
    if im == 0:
        return f"({q_text(re)})"
    if re == 0:
        return f"({q_text(im)}i)"
    if re > 0:
        return f"({q_text(re)}{'+' if im > 0 else '-'}{q_text(abs(im))}i)"
    return f"(-({q_text(-re)}{'-' if im > 0 else '+'}{q_text(abs(im))}i))"


def word_text(word: Sequence) -> str:
    return "*".join(w if isinstance(w, str) else f"v{w}" for w in word)


def sum_text(terms) -> str:
    """terms: [((re, im), word)], word a sequence of letters or factor strings."""
    parts = []
    for (re, im), word in terms:
        body = word_text(word)
        parts.append(f"{coef_text(re, im)}*{body}" if body else coef_text(re, im))
    return " + ".join(parts)


def _q(rng: Random, span: int = 4, den: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _coef(rng: Random) -> Tuple[Fraction, Fraction]:
    while True:
        re = _q(rng)
        im = _q(rng) if rng.random() < 0.6 else Fraction(0)
        if re or im:
            return re, im


def _word(rng: Random, n: int, length: int, letters=None) -> Tuple[int, ...]:
    pool = letters or range(1, n + 1)
    return tuple(rng.choice(pool) for _ in range(length))


HEIGHT = 25  # every sampled point has coordinates x / HEIGHT, so all points cost alike


def _integer_sphere(rng: Random, m: int) -> List[int]:
    """Random nonzero integers x_1..x_m with x_1^2 + ... + x_m^2 = HEIGHT^2."""
    target = HEIGHT * HEIGHT
    while True:
        xs = [rng.randint(-HEIGHT + 1, HEIGHT - 1) for _ in range(m - 1)]
        rest = target - sum(x * x for x in xs)
        root = isqrt(rest) if rest > 0 else 0
        if root and root * root == rest and all(xs):
            xs.append(root if rng.random() < 0.5 else -root)
            rng.shuffle(xs)
            return xs


def real_point(rng: Random, n: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """A rational point of S^{n-1} with every coordinate nonzero."""
    return tuple((Fraction(x, HEIGHT), Fraction(0)) for x in _integer_sphere(rng, n))


def regular_point(rng: Random, n: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """A rational regular point of the complex sphere with nonzero coordinates."""
    while True:
        xs = _integer_sphere(rng, 2 * n)
        coords = tuple((Fraction(xs[2 * k], HEIGHT), Fraction(xs[2 * k + 1], HEIGHT)) for k in range(n))
        if O.is_regular(coords):
            return coords


def parse_structured(text: str) -> Dict[str, str]:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


_POINT_COORD = re.compile(r"(-?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)i")


def parse_point_text(text: str) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Read the program's point format 're+imi,re-imi,...'."""
    coords = []
    for part in text.split(","):
        m = _POINT_COORD.fullmatch(part.strip())
        if not m:
            raise ValueError(f"bad point coordinate {part!r}")
        im = Fraction(m.group(3))
        coords.append((Fraction(m.group(1)), -im if m.group(2) == "-" else im))
    return tuple(coords)


def _structured(n: int, *rest, d: Optional[int] = None, seed: Optional[int] = None) -> List[str]:
    argv = ["--n", str(n), "--format", "structured"]
    if d is not None:
        argv += ["--degree", str(d)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv + list(rest)


class Workload:
    name = ""
    SLOTS: Tuple = ()
    bases: Tuple[Tuple[int, int], ...] = ()

    def __init__(self, seed: int):
        self.rng = Random(f"{self.name}/{seed}")

    def warmup(self) -> Op:
        raise NotImplementedError

    def _make(self, *slot) -> Op:
        raise NotImplementedError

    def round(self) -> List[Op]:
        """One op per slot, in shuffled order."""
        ops = []
        for k, slot in enumerate(self.SLOTS):
            op = self._make(*slot)
            op.slot = k
            ops.append(op)
        self.rng.shuffle(ops)
        return ops

    def reset(self, hs):
        """Drop what a repeat of the same op could reuse (untimed)."""
        hs.subspaces.ideal_span.cache_clear()

    def prepare(self, op: Op, hs):
        """Untimed conversion of op inputs into the call's arguments."""
        return op.args

    def execute(self, prepared, op: Op, hs):
        """The timed call."""
        return hs.cli.run(prepared)

    def check(self, op: Op, result) -> Optional[str]:
        """None when the answer is right, else a one-line reason."""
        raise NotImplementedError

    def coefficient_bits(self, result) -> int:
        return 0


# ----------------------------------------------------------------------
# normal_forms


class NormalForms(Workload):
    """Canonical forms and the word problem through cli.run (structured output)."""

    name = "normal_forms"

    # small slots: (kind, n); every round also has two power-heavy nf ops
    SLOTS = (
        [("nf", n) for n in (2, 3, 4, 2, 3, 4)]
        + [("eq_same", n) for n in (2, 3, 4)]
        + [("eq_diff", n) for n in (2, 3, 4)]
        + [("grade", n) for n in (2, 3, 4)]
        + [("nu", n) for n in (3, 4)]
        + [("gamma", n) for n in (2, 3)]
        + [("phi", n) for n in (2, 3, 4)]
        + [("phi-inv", n) for n in (2, 3, 4)]
        + [("power_word", 4), ("power_sum", 3)]
    )

    POWER_WORD_K = 13  # v1^k * w at n = 4
    POWER_SUM_K = 7  # (c1 v1 + c2 v2 + c3 v3)^k at n = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        prng = Random(f"{self.name}/{seed}/points")
        self.points = {n: [regular_point(prng, n) for _ in range(2)] for n in (2, 3, 4)}

    def _terms(self, n, count, lengths, even=False):
        terms = []
        for _ in range(count):
            length = self.rng.randint(*lengths)
            if even and length % 2:
                length += 1
            terms.append((_coef(self.rng), _word(self.rng, n, length)))
        return terms

    def _make(self, kind: str, n: int) -> Op:
        rng = self.rng
        if kind in ("nf", "grade", "nu", "gamma"):
            expr = sum_text(self._terms(n, rng.randint(2, 4), (1, 12)))
            return Op(kind, n, 0, _structured(n, kind, expr))
        if kind == "phi-inv":
            expr = sum_text(self._terms(n, rng.randint(2, 4), (2, 12), even=True))
            return Op(kind, n, 0, _structured(n, kind, expr))
        if kind == "phi":
            terms = []
            for _ in range(rng.randint(2, 4)):
                pairs = [f"p{rng.randint(1, n)}{rng.randint(1, n)}" for _ in range(rng.randint(1, 4))]
                terms.append((_coef(rng), pairs))
            return Op(kind, n, 0, _structured(n, "phi", sum_text(terms)))
        if kind in ("eq_same", "eq_diff"):
            terms = self._terms(n, rng.randint(2, 4), (3, 10))
            left = sum_text(terms)
            right_terms = self._equal_variant(n, terms)
            if kind == "eq_diff":
                right_terms.append((_coef(rng), _word(rng, n, rng.randint(1, 8))))
            return Op(
                "eq", n, 0, _structured(n, "eq", left, sum_text(right_terms)),
                {"equal": kind == "eq_same"},
            )
        if kind == "power_word":
            w = _word(rng, n, 2, letters=range(2, n + 1))
            expr = f"{coef_text(*_coef(rng))}*v1^{self.POWER_WORD_K}*{word_text(w)}"
            return Op("nf", n, 0, _structured(n, "nf", expr))
        if kind == "power_sum":
            inner = " + ".join(f"{coef_text(*_coef(rng))}*v{i}" for i in range(1, n + 1))
            return Op("nf", n, 0, _structured(n, "nf", f"({inner})^{self.POWER_SUM_K}"))
        raise ValueError(kind)

    def _equal_variant(self, n, terms):
        """A different spelling of the same element.

        Reverses a window v_i v_j v_k (half-commutation), inserts
        v_1^2 + ... + v_n^2 (= 1) into a word, splits a coefficient and
        reorders the terms.
        """
        rng = self.rng
        out = [(c, list(w)) for c, w in terms]
        k = rng.randrange(len(out))
        c, w = out[k]
        p = rng.randrange(len(w) - 2)
        w[p:p + 3] = [w[p + 2], w[p + 1], w[p]]
        k = rng.randrange(len(out))
        c, w = out[k]
        p = rng.randrange(len(w) + 1)
        ones = "(" + " + ".join(f"v{i}^2" for i in range(1, n + 1)) + ")"
        out[k] = (c, [f"v{x}" for x in w[:p]] + [ones] + [f"v{x}" for x in w[p:]])
        k = rng.randrange(len(out))
        (re, im), w = out[k]
        part = _coef(rng)
        out[k] = (part, w)
        if (re - part[0]) or (im - part[1]):
            out.append(((re - part[0], im - part[1]), list(w)))
        rng.shuffle(out)
        return out

    def warmup(self) -> Op:
        # one short word: the set-up time should not depend on the draw
        expr = sum_text([(_coef(self.rng), _word(self.rng, 3, 4))])
        return Op("nf", 3, 0, _structured(3, "nf", expr))

    def check(self, op: Op, result) -> Optional[str]:
        code, text = result
        out = parse_structured(text)
        argv = op.args
        pts = [O.exact_point(c) for c in self.points[op.n]]
        if op.kind == "eq":
            left, right = O.parse(argv[-2]), O.parse(argv[-1])
            same = all(O.eval_matrix(left, pt) == O.eval_matrix(right, pt) for pt in pts)
            verdict = out.get("equal") == "true"
            if code != (0 if verdict else 1):
                return f"eq exit code {code} does not match verdict {verdict}"
            if verdict != op.facts["equal"] or same != op.facts["equal"]:
                return f"eq verdict {verdict}, evaluation {same}, construction {op.facts['equal']}"
            return None
        if code != 0:
            return f"exit code {code}"
        if op.kind == "phi":
            result, given = O.parse(out["result"]), O.parse(argv[-1])
            for pt in pts:
                if O.eval_matrix(result, pt) != O.eval_matrix(given, pt):
                    return "phi result differs from p_ij -> v_i v_j at a sample point"
            return None
        x = O.parse(argv[-1])
        parsed = {}

        def tree(key):
            if key not in parsed:
                parsed[key] = O.parse(out[key])
            return parsed[key]

        for pt in pts:
            m = O.eval_matrix(x, pt)
            if op.kind == "nf":
                want = {"lift": m}
                zpolys = {"even": (m[0], m[3]), "odd": (m[1], m[2])}
            elif op.kind == "grade":
                want = {"even_lift": O.even_part(m), "odd_lift": O.odd_part(m)}
                zpolys = {"even": (m[0], m[3]), "odd": (m[1], m[2])}
            elif op.kind == "nu":
                e, o = O.even_part(m), O.odd_part(m)
                want = {"lift": O.mat_add(e, O.mat_scale(-O.ONE, o))}
                zpolys = {"even": (m[0], m[3]), "odd": (-m[1], -m[2])}
            elif op.kind == "gamma":
                g = (O.ZERO,) * 4
                for i in range(1, op.n + 1):
                    v = O.eval_matrix(("v", i), pt)
                    g = O.mat_add(g, O.mat_mul(O.mat_mul(v, m), v))
                want = {"lift": g}
                zpolys = {"even": (g[0], g[3]), "odd": (g[1], g[2])}
            elif op.kind == "phi-inv":
                if not (m[1].is_zero() and m[2].is_zero()):
                    return "phi-inv input is not even"
                want = {}
                zpolys = {"result": (m[0], m[3])}
            else:
                return f"unknown op kind {op.kind}"
            for key, mat in want.items():
                if O.eval_matrix(tree(key), pt) != mat:
                    return f"{op.kind}: {key} does not evaluate like the input"
            for key, (at_z, at_zbar) in zpolys.items():
                f = tree(key)
                if O.eval_scalar(f, pt) != at_z or O.eval_scalar(f, pt.swapped()) != at_zbar:
                    return f"{op.kind}: canonical form {key} has the wrong values"
        return None


# ----------------------------------------------------------------------
# ideal_spans


def _phi(word, y) -> Fraction:
    """The character at a real point y on a word: the product of its letters."""
    v = Fraction(1)
    for k in word:
        v *= y[k - 1][0]
    return v


class IdealSpans(Workload):
    """Cold truncated-ideal builds through cli.run: span, graded, pair, member."""

    name = "ideal_spans"
    # (kind, n, d, generator family, generator count).  Families: "hom" mixes
    # commutators, permuted words and same-length binomials; "comm" is one
    # commutator [v1, v_j] (the heavy slots, kept narrow so that p90 and the
    # slot medians do not move with the draw); "mixed" binomials join a letter
    # and a two-letter word.
    SLOTS = (
        ("span", 2, 5, "hom", 1),
        ("span", 2, 6, "mixed", 1),
        ("span", 3, 4, "hom", 2),
        ("span", 3, 5, "hom", 1),
        ("span", 3, 6, "mixed", 1),
        ("span", 4, 6, "comm", 1),
        ("member+", 3, 5, "hom", 1),
        ("member-", 3, 5, "mixed", 1),
        ("member+", 4, 5, "hom", 1),
        ("member-", 2, 6, "hom", 2),
        ("graded", 2, 5, "mixed", 1),
        ("graded", 3, 4, "mixed", 1),
        ("graded", 3, 5, "hom", 2),
        ("pair", 2, 6, "hom", 1),
        ("pair", 3, 4, "mixed", 1),
        ("pair", 3, 5, "hom", 1),
        ("span", 4, 7, "comm", 1),
    )
    ORACLE_MAX_COLUMNS = 60  # literal enumeration check up to this truncation size

    @property
    def bases(self):
        return tuple(sorted({(n, d) for _, n, d, _, _ in self.SLOTS}))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.seen = set()

    def _generator(self, n: int, family: str, y) -> Tuple[str, int, list]:
        """A generator vanishing at the real point y: (text, degree, terms)."""
        rng = self.rng
        while True:
            if family == "hom":
                shape = rng.choice(("comm", "perm", "bin"))
            else:
                shape = "comm" if family == "comm" else "bin"
            if shape == "comm" and family == "comm":
                # v1 takes the sphere rule's slow path; pairs without it cost 0.6x
                w1 = (1, rng.randint(2, n))[:: rng.choice((1, -1))]
                w2 = w1[::-1]
                c = _coef(rng)
                terms = [(c, w1), ((-c[0], -c[1]), w2)]
            elif shape == "comm":
                i, j = rng.sample(range(1, n + 1), 2)
                w1 = (i, j) if rng.random() < 0.5 else (i, j, rng.randint(1, n))
                w2 = w1[1:] + w1[:1]
                c = _coef(rng)
                terms = [(c, w1), ((-c[0], -c[1]), w2)]
            elif shape == "perm":
                w1 = _word(rng, n, rng.randint(2, 4))
                w2 = tuple(rng.sample(w1, len(w1)))
                c = _coef(rng)
                terms = [(c, w1), ((-c[0], -c[1]), w2)]
            else:
                if family == "hom":
                    length = rng.randint(2, 3)
                    w1, w2 = _word(rng, n, length), _word(rng, n, length)
                else:
                    w1, w2 = _word(rng, n, 1), _word(rng, n, 2)
                alpha = _coef(rng)
                ratio = _phi(w1, y) / _phi(w2, y)
                beta = (-alpha[0] * ratio, -alpha[1] * ratio)
                terms = [(alpha, w1), (beta, w2)]
            if terms[0][1] == terms[1][1]:
                continue
            if self._nonzero(n, terms):
                return sum_text(terms), max(len(w) for _, w in terms), terms

    def _nonzero(self, n, terms) -> bool:
        pt = O.random_modp_point(n, self.rng)
        m = O.eval_matrix(O.parse(sum_text(terms)), pt)
        return any(not e.is_zero() for e in m)

    def _make(self, kind, n, d, family, count) -> Op:
        rng = self.rng
        while True:
            y = real_point(rng, n)
            gens = [self._generator(n, family, y) for _ in range(count)]
            key = (n, d, tuple(sorted(g[0] for g in gens)))
            if key not in self.seen:
                self.seen.add(key)
                break
        texts = [g[0] for g in gens]
        facts = {"y": y, "degrees": [g[1] for g in gens], "family": family}
        if family != "mixed":
            facts["graded"] = True  # parity-homogeneous generators span a graded ideal
        if kind == "member+":
            parts = []
            for _ in range(rng.randint(1, 2)):
                text, deg, _ = rng.choice(gens)
                room = d - deg
                left = _word(rng, n, rng.randint(0, room))
                right = _word(rng, n, rng.randint(0, room - len(left)))
                factors = [f"v{k}" for k in left] + [f"({text})"] + [f"v{k}" for k in right]
                parts.append(f"{coef_text(*_coef(rng))}*{'*'.join(factors)}")
            facts["member"] = True
            return Op("member", n, d, _structured(n, "member", " + ".join(parts), *texts, d=d), facts)
        if kind == "member-":
            while True:
                terms = [(_coef(rng), _word(rng, n, rng.randint(1, d))) for _ in range(rng.randint(1, 3))]
                value = sum(
                    (Fraction(re) * _phi(w, y) for (re, im), w in terms), Fraction(0)
                ), sum((Fraction(im) * _phi(w, y) for (re, im), w in terms), Fraction(0))
                if value != (0, 0):
                    break
            facts["member"] = False  # phi_y kills the ideal but not the target
            return Op("member", n, d, _structured(n, "member", sum_text(terms), *texts, d=d), facts)
        if kind == "pair":
            return Op("pair", n, d, _structured(n, "pair", *texts, d=d, seed=rng.randrange(10**6)), facts)
        return Op(kind, n, d, _structured(n, kind, *texts, d=d), facts)

    def warmup(self) -> Op:
        return self._make("span", 2, 5, "hom", 1)

    # -- checks ----------------------------------------------------------

    def _gens(self, op):
        start = op.args.index(op.kind) + 1
        if op.kind == "member":
            start += 1
        return [O.parse(t) for t in op.args[start:]]

    def _literal_rows(self, op, gens, pts):
        """Evaluations of every m1 g m2 with |m1| + deg g + |m2| <= d."""
        rows = []
        for g, deg in zip(gens, op.facts["degrees"]):
            room = op.d - deg
            per_point = []
            for pt in pts:
                gm = O.eval_matrix(g, pt)
                words = {w: O.word_matrix(w, pt) for w in O.words_up_to(op.n, room)}
                per_point.append(({w: O.mat_mul(m, gm) for w, m in words.items()}, words))
            for m1 in O.words_up_to(op.n, room):
                for m2 in O.words_up_to(op.n, room - len(m1)):
                    row = []
                    for left, words in per_point:
                        row.extend(e.v for e in O.mat_mul(left[m1], words[m2]))
                    rows.append(row)
        return rows

    def _oracle(self, op, gens, graded: bool):
        """(dimension, graded or None) by literal enumeration; None when too large."""
        cols = len(O.reduced_monomials(op.n, op.d))
        if cols > self.ORACLE_MAX_COLUMNS:
            return None
        rng = Random(repr(op.key()))
        pts = [O.random_modp_point(op.n, rng) for _ in range(cols // 2 + 4)]
        rows = self._literal_rows(op, gens, pts)
        dim = O.rank_mod_p(rows, limit=cols)
        if not graded:
            return dim, None
        # even parts: keep the diagonal entries of every 2x2 block
        evens = [[x if k % 4 in (0, 3) else 0 for k, x in enumerate(r)] for r in rows]
        return dim, dim == cols or O.rank_mod_p(rows + evens, limit=dim + 1) == dim

    def check(self, op: Op, result) -> Optional[str]:
        code, text = result
        out = parse_structured(text)
        gens = self._gens(op)
        y = op.facts["y"]
        ypt = O.exact_point(y)
        for g in gens:
            if not O.eval_scalar(g, ypt).is_zero():
                return "generator does not vanish at its real point"
        if op.kind == "member":
            verdict = out.get("member") == "true"
            if code != (0 if verdict else 1) or verdict != op.facts["member"]:
                return f"member verdict {verdict} (exit {code}), expected {op.facts['member']}"
            return None
        oracle = self._oracle(op, gens, graded=op.kind != "span")
        if op.kind == "graded":
            verdict = out.get("graded") == "true"
            expected = op.facts.get("graded")
            if oracle is not None:
                if expected is not None and expected != oracle[1]:
                    return "graded oracle disagrees with construction"
                expected = oracle[1]
            if expected is None:
                return "graded op without a known answer"
            if code != (0 if verdict else 1) or verdict != expected:
                return f"graded verdict {verdict} (exit {code}), expected {expected}"
            return None
        if code != 0:
            return f"exit code {code}"
        if op.kind == "span":
            dim = int(out["dimension"])
            basis = [out[f"basis_{k}"] for k in range(1, dim + 1)]
            if f"basis_{dim + 1}" in out:
                return "more basis lines than the dimension"
            if oracle is not None and oracle[0] != dim:
                return f"span dimension {dim}, literal enumeration gives {oracle[0]}"
            for b in basis:
                if not O.eval_scalar(O.parse(b), ypt).is_zero():
                    return "a basis element does not vanish at the real point"
            return None
        if op.kind == "pair":
            dim = int(out["span_dimension"])
            graded = out["graded"] == "true"
            if oracle is not None and (oracle[0] != dim or oracle[1] != graded):
                return f"pair span {dim}/{graded}, literal enumeration gives {oracle}"
            if "graded" in op.facts and graded != op.facts["graded"]:
                return "pair says a homogeneous ideal is not graded"
            e_pts = [parse_point_text(out[f"E_{k}"]) for k in range(1, int(out["E_count"]) + 1)]
            f_pts = [parse_point_text(out[f"F_{k}"]) for k in range(1, int(out["F_count"]) + 1)]
            for z in e_pts:
                if not O.is_regular(z):
                    return "E holds a non-regular point"
                pt = O.exact_point(z)
                if any(not e.is_zero() for g in gens for e in O.eval_matrix(g, pt)):
                    return "E holds a point where theta does not kill the generators"
            for f in f_pts:
                if any(im for _, im in f):
                    return "F holds a non-real point"
                pt = O.exact_point(f)
                if any(not O.eval_scalar(g, pt).is_zero() for g in gens):
                    return "F holds a point where phi does not kill the generators"
            if (out["non_classical"] == "true") != bool(e_pts):
                return "non_classical disagrees with E"
            neg = {tuple((-re, -im) for re, im in f) for f in f_pts}
            if (out["F_symmetric"] == "true") != (neg == set(f_pts)):
                return "F_symmetric disagrees with F"
            return None
        return f"unknown op kind {op.kind}"


# ----------------------------------------------------------------------
# vanishing_ideals


def _ec_pair(c) -> Tuple[Fraction, Fraction]:
    return (c.re, c.im)


class VanishingIdeals(Workload):
    """The classification workflow through the library, bypassing the CLI."""

    name = "vanishing_ideals"
    # (n, d, regular orbits, real pairs)
    SLOTS = (
        (2, 5, 1, 0),
        (2, 5, 1, 1),
        (2, 5, 2, 1),
        (2, 5, 3, 0),
        (2, 6, 1, 0),
        (2, 6, 1, 1),
        (2, 6, 2, 0),
        (3, 4, 1, 0),
    )

    @property
    def bases(self):
        return tuple(sorted({(n, d) for n, d, _, _ in self.SLOTS}))

    def _make(self, n, d, m, r) -> Op:
        rng = self.rng
        regular: List = []
        while len(regular) < m + 1:  # the last one is the decoy
            z = regular_point(rng, n)
            if all(not O.orbit_equivalent(z, w) for w in regular):
                regular.append(z)
        reals: List = []
        while len(reals) < 2 * r:
            y = real_point(rng, n)
            ny = tuple((-re, -im) for re, im in y)
            if y not in reals and ny not in reals:
                reals += [y, ny]
        return Op(
            "vanish", n, d,
            {"regular": regular[:m], "real": reals, "decoy": regular[m], "sample_seed": rng.randrange(10**6)},
        )

    def warmup(self) -> Op:
        return self._make(2, 5, 1, 0)

    def prepare(self, op: Op, hs):
        R = hs.representations
        ec = hs.scalars.ExactComplex

        def point(coords):
            return R.SpherePoint.from_exact([ec(re, im) for re, im in coords])

        regular = [point(z) for z in op.args["regular"]]
        reals = [point(y) for y in op.args["real"]]
        return regular, reals, point(op.args["decoy"]), Random(op.args["sample_seed"])

    def execute(self, prepared, op: Op, hs):
        regular, reals, decoy, rng = prepared
        S, R = hs.subspaces, hs.representations
        unit_i = hs.scalars.EC_I
        span = S.vanishing_ideal(regular + reals, op.d, op.n)
        lifts = S.lift_basis(span)
        spec = S.IdealSpec(op.n, tuple(lifts), op.d)
        replicas = [w for z in regular for w in (z.scale(unit_i), z.conjugate())]
        extra = R.sample_points(op.n, rng, n_real=0, n_torus=1, n_regular=0)
        sample = replicas + [decoy] + reals + extra
        pair = S.classify_pair(spec, sample)
        equivalent = [
            (R.orbit_equivalent(z, replicas[2 * k]), R.orbit_equivalent(z, decoy))
            for k, z in enumerate(regular)
        ]
        return span.dimension, lifts, sample, pair, equivalent

    def coefficient_bits(self, result) -> int:
        _, lifts, _, _, _ = result
        bits = 0
        for lift in lifts:
            for c in lift.terms.values():
                for q in (c.re, c.im):
                    bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
        return bits

    def check(self, op: Op, result) -> Optional[str]:
        dim, lifts, sample, pair, equivalent = result
        n, d = op.n, op.d
        regular, reals = op.args["regular"], op.args["real"]
        # dimension: columns minus the rank of the point functionals
        monos = O.reduced_monomials(n, d)
        functionals = []
        for z in regular:
            pt = O.exact_point(z)
            for weight, side in ((0, pt), (0, pt.swapped()), (1, pt), (1, pt.swapped())):
                functionals.append([_mono(a, b, side) if w == weight else 0 for w, a, b in monos])
        for y in reals:
            pt = O.exact_point(y)
            functionals.append([_mono(a, b, pt) for _, a, b in monos])
        expected = len(monos) - O.rank_mod_p(functionals)
        if dim != expected or len(lifts) != dim:
            return f"kernel dimension {dim} ({len(lifts)} lifts), expected {expected}"
        trees = [_nc_tree(lift) for lift in lifts]
        for z in regular:
            if not _all_vanish(trees, z, matrix=True):
                return "a kernel lift does not vanish at an input orbit"
        for y in reals:
            if not _all_vanish(trees, y, matrix=False):
                return "a kernel lift does not vanish at an input real point"
        # classify_pair: each sample point lands in E / F exactly when the lifts vanish there
        e_set = {tuple(map(_ec_pair, p.coords)) for p in pair.E}
        f_set = {tuple(map(_ec_pair, p.coords)) for p in pair.F}
        for p in sample:
            coords = tuple(map(_ec_pair, p.coords))
            if all(im == 0 for _, im in coords):
                want_e, want_f = False, _all_vanish(trees, coords, matrix=False)
            elif O.is_regular(coords):
                want_e, want_f = _all_vanish(trees, coords, matrix=True), False
            else:
                want_e = want_f = False
            if (coords in e_set) != want_e or (coords in f_set) != want_f:
                return f"classify_pair misplaces a sample point (E {want_e}, F {want_f})"
        for z in regular:
            for w in (_times_i(z), tuple((re, -im) for re, im in z)):
                if w not in e_set:
                    return "an orbit replica i*z or conj(z) is missing from E"
        for y in reals:
            if y not in f_set:
                return "an input real point is missing from F"
        for k, z in enumerate(regular):
            want = (True, O.orbit_equivalent(z, op.args["decoy"]))
            if equivalent[k] != want:
                return f"orbit_equivalent answered {equivalent[k]}, expected {want}"
        return None


def _times_i(z):
    return tuple((-im, re) for re, im in z)


def _mono(a, b, pt) -> int:
    v = 1
    for k, e in enumerate(a):
        if e:
            v = v * pow(pt.a[k].v, e, O.P)
    for k, e in enumerate(b):
        if e:
            v = v * pow(pt.b[k].v, e, O.P)
    return v % O.P


def _nc_tree(lift):
    """An oracle expression tree from an NCPoly's words and coefficients."""
    terms = []
    for word, c in lift.terms.items():
        terms.append((1, [("const", c.re, c.im)] + [("v", k) for k in word]))
    return ("sum", terms)


def _all_vanish(trees, coords, matrix: bool) -> bool:
    pt = O.exact_point(coords)
    if matrix:
        return all(all(e.is_zero() for e in O.eval_matrix(t, pt)) for t in trees)
    return all(O.eval_scalar(t, pt).is_zero() for t in trees)


WORKLOADS = {w.name: w for w in (NormalForms, IdealSpans, VanishingIdeals)}
