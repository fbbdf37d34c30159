"""One workload in one fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The set-up clock starts before ``import halfsphere`` and stops after the
truncation bases the workload uses are built and one untimed op has run.
Untraced, ops run in whole rounds until their summed time reaches --seconds.
Traced, whole rounds run untraced until half of --seconds is used, then the
same ops run again with the tracer installed; that gives the per-layer
numbers and the tracing overhead on identical ops.

Times are wall-clock times scaled to a reference machine speed.  The speed
of the development host drifted by up to 1.6x for ten seconds and more at a
time (other tenants), for the program and for any pure-Python loop alike.  So
a fixed probe job, built like the program's own work (Fraction arithmetic and
dict stores), runs after every timed call, and each call's time is multiplied
by PROBE_REF_S over the mean of the probes on either side of it.  Over 10 s
windows that left the medians of one op within 1% while the raw medians moved
by 30%.  The record keeps the raw figures too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import tracer as T  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# spans that must fire on a workload ("shows on") and layers it must bypass
EXPECTED_SPANS = {
    "normal_forms": (
        "cli.run", "cli.build_parser", "parsing.parse_expr", "parsing.format",
        "algebra.ncpoly_mul", "algebra.pi", "algebra.nc_lift", "sphere_ring.reduce",
        "projective.pexpr_mul", "projective.phi", "projective.phi_inv",
    ),
    "ideal_spans": (
        "cli.run", "linalg.insert", "linalg.reduce_vector", "algebra.crossed_mul",
        "subspaces.ideal_span", "subspaces.is_graded", "subspaces.membership",
        "subspaces.classify_pair", "representations.theta", "representations.sample_points",
    ),
    "vanishing_ideals": (
        "linalg.nullspace", "linalg.echelon_from", "scalars.mul", "scalars.add", "scalars.div",
        "sphere_ring.evaluate", "representations.theta", "representations.sample_points",
        "representations.orbit_equivalent", "subspaces.vanishing_ideal",
        "subspaces.classify_pair", "subspaces.lift_basis",
    ),
}
BYPASSED_LAYERS = {"normal_forms": ("linalg",), "vanishing_ideals": ("cli", "parsing")}
WALL_CAP_FACTOR = 3.0  # stop early if wall time exceeds this many --seconds
PROBE_REF_S = 0.00075  # the probe's time at the reference speed (fast phase of the host)


def probe() -> float:
    """Seconds taken by a fixed job of Fraction arithmetic and dict stores."""
    t = perf_counter()
    acc = Fraction(1)
    store = {}
    for i in range(1, 200):
        acc = acc * Fraction(i + 2, i + 1) + Fraction(1, i)
        store[(i, i % 7)] = acc
        if acc.denominator > 1 << 200:
            acc = Fraction(1)
    return perf_counter() - t


class Speed:
    """Scale factors from the probes run between timed calls."""

    def __init__(self):
        self.last = probe()

    def factor(self) -> float:
        """Call right after a timed call: its time times this is at reference speed."""
        now = probe()
        f = PROBE_REF_S / ((self.last + now) / 2)
        self.last = now
        return f


def load_halfsphere():
    """Import the package and the modules the workloads call (as attributes)."""
    import halfsphere.cli
    import halfsphere.representations
    import halfsphere.scalars
    import halfsphere.subspaces

    return halfsphere


def setup(workload_cls, seed):
    """Import, warm caches and run one untimed op.

    Returns (hs, workload, seconds, seconds at reference speed).
    """
    speed = Speed()
    t0 = perf_counter()
    hs = load_halfsphere()
    wl = workload_cls(seed)
    for n, d in wl.bases:
        hs.subspaces._basis(n, d)
    op = wl.warmup()
    wl.execute(wl.prepare(op, hs), op, hs)
    raw = perf_counter() - t0
    return hs, wl, raw, raw * speed.factor()


def run_op(wl, op, hs):
    """(seconds, result, error): error is set when the call raised."""
    prepared = wl.prepare(op, hs)
    t = perf_counter()
    try:
        result = wl.execute(prepared, op, hs)
    except SystemExit as exc:  # argparse usage errors exit with code 2
        return perf_counter() - t, None, f"exit {exc.code}"
    except Exception as exc:  # an op that raises is a failed op; keep the loop running
        return perf_counter() - t, None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t, result, None


def judge(wl, op, result, error):
    if error is not None:
        return error
    try:
        return wl.check(op, result)
    except Exception:  # a check that cannot read the answer fails the op
        return "check raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]


def rank_index(count: int, share: float) -> int:
    """Index of the share-quantile in a sorted list of count values (nearest rank)."""
    return min(count - 1, max(0, int(share * count + 0.5) - 1))


def quantile(values, share):
    return sorted(values)[rank_index(len(values), share)]


def mix_rate(wl, ops, times):
    """Throughput of the fixed mix: slots per round over the sum of slot medians."""
    by_slot = [[] for _ in wl.SLOTS]
    for op, dt in zip(ops, times):
        by_slot[op.slot].append(dt)
    return len(wl.SLOTS) / sum(statistics.median(t) for t in by_slot)


def measure(wl, hs, seconds):
    """Closed loop over whole rounds until the calls' summed raw time reaches seconds.

    Caches that would let a later op reuse an earlier one's work are cleared
    before every call (no generator set repeats, so nothing is lost).
    """
    ops, raw, lat, failures = [], [], [], []
    speed = Speed()
    start = perf_counter()
    timed = 0.0
    while timed < seconds and perf_counter() - start < WALL_CAP_FACTOR * seconds:
        for op in wl.round():
            wl.reset(hs)
            dt, result, error = run_op(wl, op, hs)
            timed += dt
            ops.append(op)
            raw.append(dt)
            lat.append(dt * speed.factor())
            reason = judge(wl, op, result, error)
            if reason:
                failures.append(f"{op!r}: {reason}")
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:10],
        "rounds": len(ops) // len(wl.SLOTS),
        "ops_per_round": len(wl.SLOTS),
        "ops_per_s": mix_rate(wl, ops, lat),
        "latency_p50_ms": 1e3 * quantile(lat, 0.50),
        "latency_p90_ms": 1e3 * quantile(lat, 0.90),
        "samples_beyond_p90": len(lat) - 1 - rank_index(len(lat), 0.90),
        "raw_ops_per_s": mix_rate(wl, ops, raw),
        "raw_latency_p50_ms": 1e3 * quantile(raw, 0.50),
        "raw_latency_p90_ms": 1e3 * quantile(raw, 0.90),
        "timed_s": timed,
        "wall_s": perf_counter() - start,
    }


def trace(wl, hs, seconds):
    """Per-layer metrics, as totals over the traced pass divided by its op count."""
    # pass 1, untraced: whole rounds until half the budget, the overhead baseline
    ops, raw, plain = [], [], []
    speed = Speed()
    while sum(raw) < seconds / 2:
        for op in wl.round():
            ops.append(op)
            raw.append(run_op(wl, op, hs)[0])
            plain.append(raw[-1] * speed.factor())
    wl.reset(hs)  # the traced pass builds the same ideals cold again
    basis_before = hs.subspaces._basis.cache_info()
    tr = T.Tracer()
    tr.install()
    cache_before = tr.ideal_span_cache.cache_info() if tr.ideal_span_cache else None
    traced, failures, gaps, bits = [], [], [], 0
    scaled = {name: 0.0 for name in tr.self_s}
    try:
        for op in ops:
            root_before = tr.root_s
            self_before = dict(tr.self_s)
            dt, result, error = run_op(wl, op, hs)
            f = speed.factor()
            for name, secs in self_before.items():  # self times at reference speed
                scaled[name] += (tr.self_s[name] - secs) * f
            traced.append(dt * f)
            gaps.append((dt - (tr.root_s - root_before)) * f)
            reason = judge(wl, op, result, error)
            if reason:
                failures.append(f"{op!r}: {reason}")
            elif result is not None:
                bits = max(bits, wl.coefficient_bits(result))
    finally:
        tr.uninstall()
    count = len(ops)
    metrics = {}
    layer_calls = {layer: 0 for layer in T.LAYERS}
    layer_self = {layer: 0.0 for layer in T.LAYERS}
    for name, calls in tr.calls.items():
        metrics[f"{name}.calls"] = (calls / count, "calls/op")
        layer_calls[name.split(".")[0]] += calls
    for name, secs in scaled.items():
        metrics[f"{name}.self_s"] = (secs / count, "s/op")
        layer_self[name.split(".")[0]] += secs
    for layer in T.LAYERS:
        metrics[f"{layer}.calls"] = (layer_calls[layer] / count, "calls/op")
        if layer != "scalars":
            metrics[f"{layer}.self_s"] = (layer_self[layer] / count, "s/op")
    ex = tr.extra
    metrics["sphere_ring.reduce.terms_in"] = (ex["sphere_ring.reduce.terms_in"] / count, "terms/op")
    metrics["sphere_ring.reduce.terms_out"] = (ex["sphere_ring.reduce.terms_out"] / count, "terms/op")
    metrics["parsing.parse_expr.nc_terms"] = (ex["parsing.parse_expr.nc_terms"] / count, "terms/op")
    inserts = tr.calls["linalg.insert"]
    metrics["linalg.insert.useful_ratio"] = (ex["linalg.insert.useful"] / inserts if inserts else 0.0, "ratio")
    metrics["subspaces.span_dim_total"] = (ex["subspaces.span_dim_total"] / count, "dims/op")
    metrics["scalars.max_coeff_bits"] = (bits, "bits")
    if cache_before is not None:
        after = tr.ideal_span_cache.cache_info()
        lookups = (after.hits + after.misses) - (cache_before.hits + cache_before.misses)
        hit = (after.hits - cache_before.hits) / lookups if lookups else 0.0
    else:
        hit = 0.0
    metrics["subspaces.ideal_span.cache_hit_ratio"] = (hit, "ratio")
    b_after = hs.subspaces._basis.cache_info()
    b_lookups = (b_after.hits + b_after.misses) - (basis_before.hits + basis_before.misses)
    metrics["subspaces.basis.cache_hit_ratio"] = (
        (b_after.hits - basis_before.hits) / b_lookups if b_lookups else 0.0, "ratio")
    overhead = sum(traced) / sum(plain) - 1.0
    unattributed = sum(gaps) / sum(traced)
    missing = [s for s in EXPECTED_SPANS.get(wl.name, ()) if tr.calls.get(s, 0) == 0]
    missing += [f"{layer} (bypassed)" for layer in BYPASSED_LAYERS.get(wl.name, ()) if layer_calls[layer]]
    missing += tr.missing_targets
    metrics["trace.ops"] = (count, "count")
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.unattributed"] = (unattributed, "ratio")
    metrics["trace.missing_spans"] = (len(missing), "count")
    notes = {
        "missing_spans": missing,
        # the scaled overhead is itself noisy by about a percent
        "unattributed_within_overhead": unattributed <= max(overhead, 0.01),
    }
    return {
        "attempted": count,
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    hs, wl, raw_setup_s, setup_s = setup(WORKLOADS[args.workload], args.seed)
    out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    if not args.setup_only:
        out.update(trace(wl, hs, args.seconds) if args.trace else measure(wl, hs, args.seconds))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
