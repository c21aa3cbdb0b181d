#!/usr/bin/env python3
"""hnnfree benchmark: one seeded, single-process, closed-loop workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {wordproblem,oracle,braid,cli} \
        --seed N --seconds S --trace {0,1}

One client issues the workload's ops one after another (closed loop, no
threads).  A cycle is the workload's whole op mix; cycles repeat until S
seconds have passed and the workload's minimum cycle count is reached.
Every answer is checked against `reference`.  Times are scaled by an
interleaved calibration job (see perfbench/README.md).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced cycles, and prints the per-layer metrics with the tracing overhead.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

SETUP_REPS = 15
LADDER = (99.9, 99, 95, 90, 75, 50)

# The machine's speed drifts by up to 2x over tens of seconds, so every
# time is scaled by how fast a fixed pure-Python job ran next to it:
# scaled = measured * CAL_REF_S / calibration time.  The job mixes the two
# kinds of work the package does, free reduction on int lists and on frozen
# dataclass letters, with dict hashing; contention slows them differently.
# CAL_REF_S is its typical time on the 2-vCPU machine the benchmark was
# defined on, so there scaled and measured times agree on average.
CAL_REF_S = 0.0035
CAL_EVERY_S = 0.5
CAL_WINDOW_NS = 1_000_000_000
_CAL_INTS = tuple(((i * 7919) % 17 - 8) or 9 for i in range(8000))


@dataclass(frozen=True)
class _CalLetter:
    gen: int
    sign: int


def _free_reduce(items, inverse):
    out = []
    for x in items:
        if out and inverse(out[-1], x):
            out.pop()
        else:
            out.append(x)
    seen = {}
    for i, x in enumerate(items):
        seen[x] = seen.get(x, 0) + i
    return len(out), len(seen)


def _calibration_job():
    _free_reduce(_CAL_INTS, lambda a, b: a == -b)
    letters = [_CalLetter(abs(c), 1 if c > 0 else -1) for c in _CAL_INTS[:1000]]
    _free_reduce(letters, lambda a, b: a.gen == b.gen and a.sign == -b.sign)


def calibration_sample():
    """Median of three timings of the calibration job, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter_ns()
        _calibration_job()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1e9


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n, cap):
    """The highest percentile up to cap with at least 10 samples beyond it."""
    for p in LADDER:
        if p <= cap and n * (100 - p) / 100 >= 10:
            return p
    return 50


class Loop:
    """Closed-loop cycles over the op mix, with answer checks."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.by_op: dict[str, list[float]] = {}  # op name -> scaled latency per cycle
        self.raw_by_op: dict[str, list[int]] = {}
        # per cycle: (ops, op time ns, scaled op time ns, products, scale)
        self.cycles: list[tuple[int, int, float, int, float]] = []
        self.failures: Counter = Counter()
        self.reasons: dict[str, str] = {}
        self.layer_cycles: list[tuple[dict, dict]] = []

    def cycle(self, record=True):
        tr = self.tracer
        before = tr.snapshot() if tr else None
        if tr:
            tr.reset_peaks()
        products = 0
        cal = [(perf_counter_ns(), calibration_sample())]
        timed = []
        for op in self.ops:
            if perf_counter_ns() - cal[-1][0] >= CAL_EVERY_S * 1e9:
                cal.append((perf_counter_ns(), calibration_sample()))
            frame = tr.begin_op() if tr else None
            t0 = perf_counter_ns()
            try:
                result, error = op.call(), None
            except Exception as e:  # a raising op is a failed op, not a crash
                result, error = None, f"raised {type(e).__name__}: {e}"
            t1 = perf_counter_ns()
            if tr:
                tr.end_op(frame, op.name, t0, t1)
            if error is None:
                error = op.check(result)
            if not record:
                continue
            timed.append((op.name, t0, t1))
            if op.products and error is None:
                products += op.products(result)
            if error is not None:
                self.failures[op.name] += 1
                self.reasons.setdefault(op.name, error)
        if record:
            cal.append((perf_counter_ns(), calibration_sample()))
            raw_total = scaled_total = 0
            for name, t0, t1 in timed:
                # scaled by the calibration samples taken within 1 s of the op
                near = [v for ts, v in cal if t0 - CAL_WINDOW_NS <= ts <= t1 + CAL_WINDOW_NS]
                scaled = (t1 - t0) * CAL_REF_S / statistics.median(near)
                self.raw_by_op.setdefault(name, []).append(t1 - t0)
                self.by_op.setdefault(name, []).append(scaled)
                raw_total += t1 - t0
                scaled_total += scaled
            scale = CAL_REF_S / statistics.median(v for _, v in cal)
            self.cycles.append((len(self.ops), raw_total, scaled_total, products, scale))
            if tr:
                after = tr.snapshot()
                delta = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
                self.layer_cycles.append((delta, tr.reset_peaks()))

    def run(self, seconds, min_cycles):
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(self.cycles) < min_cycles:
            self.cycle()

    def cycle_seconds(self):
        """Median scaled cycle time."""
        return statistics.median(t for _, _, t, _, _ in self.cycles) / 1e9


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hnnfree", "__init__.py")):
        print(f"error: no hnnfree sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup, build, tail_cap, min_cycles, warm_up = W.WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPS):
        scale = CAL_REF_S / calibration_sample()
        t0 = perf_counter()
        ctx = setup(root)
        setup_times.append((perf_counter() - t0, scale))
    setup_s = statistics.median(t * s for t, s in setup_times)
    setup_raw = statistics.median(t for t, _ in setup_times)
    import hnnfree

    if not hnnfree.__file__.startswith(src + os.sep):
        print(f"error: imported hnnfree from {hnnfree.__file__}, not {src}", file=sys.stderr)
        return 2

    rng = random.Random(f"{args.workload}:{args.seed}")
    ops = build(ctx, rng)
    print(f"workload {args.workload}: seed {args.seed}, {len(ops)} ops per cycle, "
          f"closed loop, 1 client, no threads, nproc {os.cpu_count()}")

    loop = Loop(ops)
    if warm_up:
        loop.cycle(record=False)
    if args.trace == 0:
        loop.run(args.seconds, min_cycles)
        measured = loop
    else:
        import tracing

        # traced and untraced cycles alternate, so both meet the same
        # machine state; the untraced ones run without any wrapper
        tracer = tracing.Tracer()
        measured = Loop(ops, tracer)
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline or len(measured.cycles) < 2:
            loop.cycle()
            tracer.install()
            measured.cycle()
            tracer.uninstall()

    n = attempted = sum(len(v) for v in measured.by_op.values())
    # each op's latency is its median over the run's cycles, which strips
    # bursts of machine noise; the percentiles are then taken over the mix
    lat = sorted(statistics.median(v) for v in measured.by_op.values())
    failed = sum(measured.failures.values())
    unexpected = sorted(k for k in measured.failures if k not in W.KNOWN_DEFECTS)
    for name in sorted(measured.failures):
        tag = "known defect" if name in W.KNOWN_DEFECTS else "WRONG"
        print(f"failed op ({tag}): {name} x{measured.failures[name]}: {measured.reasons[name]}")
        if name in W.KNOWN_DEFECTS:
            print(f"  expected answer holds because {W.KNOWN_DEFECTS[name]}")
    print(f"ops_attempted {attempted}  ops_failed {failed}  cycles {len(measured.cycles)}")
    slowest = sorted(measured.by_op.items(), key=lambda kv: -statistics.median(kv[1]))[:5]
    for name, values in slowest:
        print(f"  slow op: {statistics.median(values) / 1e6:9.2f} ms median  {name}")
    scales = [s for *_, s in measured.cycles]
    print(f"  time scale (calibration): median {statistics.median(scales):.4f}, "
          f"range {min(scales):.4f} to {max(scales):.4f}")

    if args.trace == 0:
        products = args.workload == "oracle"
        done = [p if products else k for k, _, _, p, _ in measured.cycles]
        rates = [d / (t / 1e9) for d, (_, t, _, _, _) in zip(done, measured.cycles)]
        scaled_rates = [d / (t / 1e9) for d, (_, _, t, _, _) in zip(done, measured.cycles)]
        raw_lat = sorted(statistics.median(v) for v in measured.raw_by_op.values())
        tail_p = tail_percentile(n, tail_cap)
        metrics = {
            "setup_s": (setup_s, "s", setup_raw),
            "ops_per_s": (statistics.median(scaled_rates), "1/s", statistics.median(rates)),
            "op_p50_ms": (percentile(lat, 50) / 1e6, "ms", percentile(raw_lat, 50) / 1e6),
            "op_tail_ms": (percentile(lat, tail_p) / 1e6, "ms", percentile(raw_lat, tail_p) / 1e6),
            "peak_rss_mb": (peak_rss_mb(), "MB", None),
        }
        for name, (value, unit, raw) in metrics.items():
            extra = f"  (unscaled {raw:.6g})" if raw is not None else ""
            print(f"{name} {value:.6g} {unit}{extra}")
        metrics = {k: v[:2] for k, v in metrics.items()}
        print(f"  op_tail_ms is p{tail_p:g} over {n} samples "
              f"({len(lat)} ops x {len(measured.cycles)} cycles), "
              f"{n * (100 - tail_p) / 100:g} beyond it")
        if products:
            print("  ops_per_s counts oracle products (the summed `checked`, "
                  "i.e. products_per_s); latencies are per oracle call")
    else:
        counts = [tracing.exact_counts(d, p) for d, p in measured.layer_cycles]
        if any(c != counts[0] for c in counts):
            diff = sorted(k for k in set(counts[0]) | set(counts[-1])
                          if counts[0].get(k) != counts[-1].get(k))
            print(f"error: exact counts differ between cycles of one run: {diff}", file=sys.stderr)
            return 1
        base_s, traced_s = loop.cycle_seconds(), measured.cycle_seconds()
        layer = tracing.layer_metrics(measured.layer_cycles, scales, base_s, traced_s)
        metrics = {k: (v, tracing.PER_LAYER[k][0]) for k, v in layer.items()}
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        print(f"  per cycle; tracing overhead {layer['trace.overhead_ratio']:.3f} "
              f"of the untraced cycle time {base_s:.4f} s")
        spans_dir = os.path.join(root, ".perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(path)
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(path, root)}")

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
