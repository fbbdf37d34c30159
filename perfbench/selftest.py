"""The benchmark's own tests.

    python3 perfbench/selftest.py        # from the root of a source checkout

Checks that inputs depend only on the seed, that planted wrong answers are
counted as failures, that tiny runs of every workload emit every metric named
in BENCHMARK.json with its unit, and that the benchmark refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import oracle as O  # noqa: E402
from perfbench import worker as W  # noqa: E402
from perfbench.workloads import WORKLOADS, parse_structured  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the bases that are deterministic below 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def op_keys(name, seed, rounds=2):
    wl = WORKLOADS[name](seed)
    keys = [wl.warmup().key()]
    for _ in range(rounds):
        keys += [op.key() for op in wl.round()]
    return keys


class Inputs(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name in WORKLOADS:
            self.assertEqual(op_keys(name, 7), op_keys(name, 7), name)

    def test_other_seed_other_ops(self):
        for name in WORKLOADS:
            self.assertNotEqual(op_keys(name, 7), op_keys(name, 8), name)

    def test_rounds_have_a_fixed_mix(self):
        for name in WORKLOADS:
            wl = WORKLOADS[name](3)
            mixes = [sorted((op.kind, op.n, op.d) for op in wl.round()) for _ in range(3)]
            self.assertEqual(mixes[0], mixes[1], name)
            self.assertEqual(mixes[1], mixes[2], name)

    def test_ideal_specs_do_not_repeat(self):
        wl = WORKLOADS["ideal_spans"](5)
        ops = [op for _ in range(6) for op in wl.round()]
        gens = [(op.n, op.d, tuple(op.args[op.args.index(op.kind) + 1 + (op.kind == "member"):])) for op in ops]
        self.assertEqual(len(gens), len(set(gens)))


class Oracle(unittest.TestCase):
    def test_prime_and_square_root_of_minus_one(self):
        self.assertTrue(is_probable_prime(O.P))
        self.assertEqual(O.P % 4, 1)
        self.assertEqual(O.IOTA * O.IOTA % O.P, O.P - 1)

    def test_relations_hold_in_the_representation(self):
        from random import Random

        rng = Random(1)
        pt = O.random_modp_point(3, rng)
        ones = O.eval_matrix(O.parse("v1^2 + v2^2 + v3^2"), pt)
        self.assertEqual(ones, O.eval_matrix(O.parse("(1)"), pt))
        self.assertEqual(O.eval_matrix(O.parse("v1*v2*v3"), pt), O.eval_matrix(O.parse("v3*v2*v1"), pt))
        self.assertNotEqual(O.eval_matrix(O.parse("v1*v2"), pt), O.eval_matrix(O.parse("v2*v1"), pt))

    def test_parser_reads_the_program_scalar_grammar(self):
        pt = O.exact_point(((Fraction(3, 5), Fraction(0)), (Fraction(0), Fraction(4, 5))))
        a = O.eval_scalar(O.parse("-(3/5+2i)*z1"), pt)
        b = O.eval_scalar(O.parse("(-3/5-2i)*z1"), pt)
        self.assertEqual(a, b)

    def test_truncation_sizes_match_the_program(self):
        # column counts of halfsphere's TruncationBasis(n, d)
        sizes = {(2, 4): 15, (2, 5): 21, (2, 6): 28, (3, 4): 54, (3, 5): 96, (4, 5): 300, (4, 7): 1100}
        for (n, d), cols in sizes.items():
            self.assertEqual(len(O.reduced_monomials(n, d)), cols, (n, d))


class PlantedAnswers(unittest.TestCase):
    """A wrong answer must fail its check and be counted in failed_frac."""

    @classmethod
    def setUpClass(cls):
        cls.hs = W.load_halfsphere()

    def first(self, wl, kind, rounds=3):
        for _ in range(rounds):
            for op in wl.round():
                if op.kind == kind:
                    return op
        raise AssertionError(f"no {kind} op")

    def run_and_check(self, wl, op):
        result = wl.execute(wl.prepare(op, self.hs), op, self.hs)
        self.assertIsNone(wl.check(op, result))
        return result

    def test_changed_lift_coefficient(self):
        wl = WORKLOADS["normal_forms"](11)
        op = self.first(wl, "nf")
        code, text = self.run_and_check(wl, op)
        lift = parse_structured(text)["lift"]
        bad = text.replace(f"lift = {lift}", f"lift = {lift} + (1/7)*v1*v2")
        self.assertIsNotNone(wl.check(op, (code, bad)))

    def test_flipped_eq_and_member_verdicts(self):
        for name, kind, key in (("normal_forms", "eq", "equal"), ("ideal_spans", "member", "member")):
            wl = WORKLOADS[name](12)
            op = self.first(wl, kind)
            code, text = self.run_and_check(wl, op)
            truth = parse_structured(text)[key]
            flipped = "false" if truth == "true" else "true"
            bad = text.replace(f"{key} = {truth}", f"{key} = {flipped}")
            self.assertIsNotNone(wl.check(op, (1 - code, bad)), name)

    def test_wrong_span_dimension(self):
        wl = WORKLOADS["ideal_spans"](13)
        op = self.first(wl, "span")
        code, text = self.run_and_check(wl, op)
        dim = parse_structured(text)["dimension"]
        bad = text.replace(f"dimension = {dim}", f"dimension = {int(dim) - 1}")
        self.assertIsNotNone(wl.check(op, (code, bad)))

    def test_changed_kernel_lift(self):
        wl = WORKLOADS["vanishing_ideals"](14)
        op = wl.round()[0]
        dim, lifts, sample, pair, equivalent = self.run_and_check(wl, op)
        ec = self.hs.scalars.ExactComplex
        word, coeff = next(iter(lifts[0].terms.items()))
        terms = dict(lifts[0].terms)
        terms[word] = coeff + ec(Fraction(1, 3))
        bad = [type(lifts[0])(op.n, terms)] + lifts[1:]
        self.assertIsNotNone(wl.check(op, (dim, bad, sample, pair, equivalent)))

    def test_planted_failure_is_counted(self):
        base = WORKLOADS["normal_forms"]

        class Flipped(base):
            planted = 0

            def execute(self, prepared, op, hs):
                code, text = super().execute(prepared, op, hs)
                if op.kind == "eq" and not self.planted:
                    self.planted += 1
                    return 1 - code, text
                return code, text

        wl = Flipped(15)
        rec = W.measure(wl, self.hs, seconds=1e-6)
        self.assertEqual(rec["failed"], 1)
        self.assertEqual(rec["attempted"], len(base.SLOTS))


def run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


class TinyRuns(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                p = run_bench(["--workload", w["name"], "--seed", "1", "--seconds", "0.2", "--trace", str(trace)])
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                result = json.loads(p.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], p.stderr[-2000:])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, (w["name"], trace))
                if trace:
                    record = json.loads(p.stderr.strip().splitlines()[-1])
                    self.assertEqual(record["notes"]["missing_spans"], [], w["name"])
                    self.assertTrue(record["notes"]["unattributed_within_overhead"], w["name"])

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            p = run_bench(["--workload", "normal_forms", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
