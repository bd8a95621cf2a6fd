"""One workload in a fresh interpreter; prints one JSON line with raw timings.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (set up and stop), ``time`` (set up, then timed passes
until S seconds have elapsed) or ``trace`` (set up, then untraced and traced
passes in alternation).  run.py starts this script and turns its output into
the benchmark's metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from mpmath import mp  # noqa: E402

from motive_height import balls  # noqa: E402
from motive_height.balls import current_bits, working_precision  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(BENCH, "out")


class Run:
    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.bits_min = float("inf")

    def one_pass(self, call=None):
        """Run every item once; return (per-op seconds, probe seconds, per-op
        probe seconds).  The host-speed probe runs between ops every
        PROBE_EVERY_S and once at the end, and each op gets the mean of the
        probes just before and just after it.  Outputs are checked after the
        pass, outside the timed region."""
        if current_bits() != workloads.BITS or mp.prec != workloads.BITS + balls._GUARD_BITS:
            raise RuntimeError(f"precision state leaked: bits={current_bits()}, "
                               f"mp.prec={mp.prec}")
        outputs, latencies, probes, probe_index = [], [], [], []
        run_op = self.wl.run_op
        next_probe = time.perf_counter()
        for index, item in enumerate(self.wl.items):
            if time.perf_counter() >= next_probe:
                probes.append(hostspeed.probe())
                next_probe = time.perf_counter() + hostspeed.PROBE_EVERY_S
            probe_index.append(len(probes) - 1)
            t0 = time.perf_counter()
            try:
                out = run_op(item) if call is None else call(index, run_op, item)
            except Exception as exc:  # an op that raises counts as failed
                out = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        probes.append(hostspeed.probe())
        op_probes = [(probes[k] + probes[k + 1]) / 2 for k in probe_index]
        for item, out in zip(self.wl.items, outputs):
            self.attempted += 1
            try:
                ok, bits = (False, 0.0) if isinstance(out, Exception) else self.wl.check(item, out)
            except Exception as exc:  # output too malformed to check
                ok, out = False, exc
            if ok:
                self.bits_min = min(self.bits_min, bits)
            else:
                self.failed += 1
                self.failures.append(f"{item.label}: {out!r}"[:300])
        return latencies, probes, op_probes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    args = ap.parse_args()

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    result = {}
    with working_precision(workloads.BITS):
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        try:
            run = Run(workload)
            _, probes, _ = run.one_pass()  # warm-up: fills mpmath's constant caches
            result["setup_raw_s"] = time.perf_counter() - T_START - sum(probes)
            result["setup_probes"] = probes
            run.bits_min = float("inf")  # certified bits are taken over timed passes
            if args.mode == "time":
                result.update(timed(run, args.seconds))
            elif args.mode == "trace":
                result.update(traced(run, args.seconds, args.workload, args.seed))
        finally:
            workload.close()
    result.update(attempted=run.attempted, failed=run.failed,
                  failures=run.failures[:5], ops_per_pass=len(workload.items),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))


def timed(run, seconds):
    latencies, op_probes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        lat, _, op_pr = run.one_pass()
        latencies.append(lat)
        op_probes.append(op_pr)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:  # the next pass would overrun
            break
    bits = run.bits_min if run.bits_min != float("inf") else 0.0  # no op succeeded
    return {"latencies": latencies, "op_probes": op_probes, "certified_bits_min": bits}


def traced(run, seconds, name, seed):
    """Untraced and traced passes in alternation.  As in timed runs, each
    op's latency is scaled by the probes around it; a pass's time is the sum
    of its scaled latencies, and layer times are scaled by the median probe."""
    import tracing

    tracer = tracing.Tracer()
    plain_s, traced_s, probes = [], [], []

    def scaled_pass(call=None):
        latencies, _, op_probes = run.one_pass(call=call)
        probes.extend(op_probes)
        return sum(t * hostspeed.REFERENCE_S / p for t, p in zip(latencies, op_probes))

    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start + plain_s[-1] + traced_s[-1] <= seconds:
        plain_s.append(scaled_pass())
        tracer.install()
        try:
            traced_s.append(scaled_pass(call=tracer.op_span))
        finally:
            tracer.uninstall()
    tracer.write(os.path.join(OUT, f"trace-{name}-{seed}.jsonl"))
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
    scale = hostspeed.REFERENCE_S / statistics.median(probes)
    layers = tracing.layer_metrics(tracer, len(traced_s), overhead, scale)
    return {"layers": layers, "traced_passes": len(traced_s)}


if __name__ == "__main__":
    main()
