"""The motive-height benchmark: certified heights, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh interpreters
(worker.py), one at a time, so no workload inherits precision state or
caches from another.  With ``--trace 0`` the set-up is made SETUPS times and
the last interpreter goes on to the timed passes; the end-to-end metrics are
printed one per line, then the environment, then one JSON object as the last
line.  With ``--trace 1`` one interpreter makes untraced and traced passes in
alternation and the per-layer metrics are printed instead.  Workloads,
metrics and baseline numbers are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import mpmath
import mpmath.libmp

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import hostspeed  # noqa: E402

WORKLOADS = ("curves-cli", "hodge-narrow", "hodge-wide", "invariance-audit")
SETUPS = 3        # set-ups per timed run; setup_s is their median
BITS = 128        # the CLI default, used by every workload
DEADLINE_S = 170  # a run ends well within 180 s


class BenchError(Exception):
    pass


def child(args, mode, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args):
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "precision_bits": BITS,
            "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def end_to_end(runs):
    """Timings at the reference host speed (hostspeed.py): each latency is
    scaled by REFERENCE_S over the probe time around it, and each op's
    latency is the median of its scaled latencies over the timed passes."""
    timed = runs[-1]
    scaled = [[t * hostspeed.REFERENCE_S / p for t, p in zip(lat, probes)]
              for lat, probes in zip(timed["latencies"], timed["op_probes"])]
    typical = [statistics.median(op) for op in zip(*scaled)]
    setups = [r["setup_raw_s"] * hostspeed.REFERENCE_S / statistics.median(r["setup_probes"])
              for r in runs]
    return {
        "ops_per_s": (len(typical) / sum(typical), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(typical), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(typical, n=10, method="inclusive")[8], "ms"),
        "certified_bits_min": (timed["certified_bits_min"], "bits"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "motive_height", "__init__.py")):
        print(f"motive_height sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.trace:
            runs = [child(args, "trace", deadline)]
            metrics = runs[0]["layers"]
        else:
            runs = [child(args, "setup", deadline) for _ in range(SETUPS - 1)]
            runs.append(child(args, "time", deadline))
            metrics = end_to_end(runs)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for failure in r["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    timed = runs[-1]
    passes = len(timed.get("latencies", ()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    if passes:
        probe = statistics.median(p for pr in timed["op_probes"] for p in pr)
        print(f"timed passes: {passes} of {timed['ops_per_pass']} ops; host-speed probe "
              f"median {1000 * probe:.4g} ms, reference {1000 * hostspeed.REFERENCE_S:.4g} ms")
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
