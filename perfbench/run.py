"""halfsphere benchmark: one workload per run, measured in fresh interpreters.

    python3 perfbench/run.py --workload normal_forms --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20     # table of every workload

Run from the root of a source checkout; the package is imported from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  A record of the run (machine, Python
version, op counts, failures) goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("normal_forms", "ideal_spans", "vanishing_ideals")
SETUP_RUNS = 8  # set-up-only interpreters, plus the measuring one
DEADLINE_S = 170.0  # whole run, set-up included


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker(args, deadline, *extra):
    """Run perfbench/worker.py in a fresh interpreter; return its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is measured with bytecode cached
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise TimeoutError("out of time before starting a worker")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, deadline):
    """Returns (result line, record)."""
    if args.trace:
        rec = worker(args, deadline)
        metrics = rec["metrics"]
    else:
        worker(args, deadline, "--setup-only")  # compiles bytecode; not measured
        setups = [worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS)]
        rec = worker(args, deadline)
        setups.append(rec["setup_s"])
        rec["setup_runs"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": rec["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": rec["latency_p50_ms"], "unit": "ms"},
            "latency_p90_ms": {"value": rec["latency_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "failed_frac": rec["failed"] / rec["attempted"],
        **{k: v for k, v in rec.items() if k != "metrics"},
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="halfsphere benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "halfsphere", "__init__.py")):
        print(f"no halfsphere sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    if args.workload != "all":
        result, record = run_workload(args, deadline)
        print(json.dumps(record), file=sys.stderr)
        print(json.dumps(result))
        return 0
    ok = True
    for name in WORKLOADS:
        args.workload = name
        result, record = run_workload(args, monotonic() + DEADLINE_S)
        ok = ok and result["correct"]
        rows = dict(result["metrics"])
        rows["failed_frac"] = {"value": record["failed_frac"], "unit": "ratio"}
        for key, m in rows.items():
            print(f"{name:18s} {key:32s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:18s} {'ops':32s} {record['attempted']:14d} count")
        if not args.trace:
            print(f"{name:18s} {'samples_beyond_p90':32s} {record['samples_beyond_p90']:14d} count")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
