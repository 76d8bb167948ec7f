"""One workload in a process of its own: set-up, timed passes, checks.

run.py starts this script. It prints ``READY`` once set-up (imports, input
generation from the seed, warm-up) is done and then ``REFERENCE <s>``, the
reference loop's time, by which run.py scales the set-up time. Then it
repeats passes over the ops for ``--seconds`` and prints one JSON line with
what it measured. With ``--setup-only`` it stops after ``REFERENCE``.

Every op runs once per pass and every answer is checked; only the program
calls are timed, and each time is scaled by the reference loop timed just
before it (reference.py). The metrics use each op's median scaled time over
the run's calls. On a machine shared with other tenants the fastest call is the
least steady figure: it catches rare moments when the neighbours are idle
(a 0.4 s verify call's fastest time over 30 s windows ranged over 0.27 to
0.37 s on a 2-core VM, its median over 0.39 to 0.44 s). ``pass_s`` is the
sum of those medians over the ops of one pass, ``ops_per_s`` its inverse
per op, and ``op_p50_us``/``op_p90_us`` are percentiles over the distinct
ops.

With ``--trace 1`` each pass runs the ops untraced and then traced, in the
same order, to measure what tracing costs, and then the per-layer probe
runs; the spans of both are written to ``.bench_out/`` at the root of the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402  (imports johnson_cliques: part of set-up)
from probe import probe  # noqa: E402
from reference import REFERENCE_NOMINAL_S, Reference, reference_time  # noqa: E402
from tracer import Tracer, plain_call  # noqa: E402

FAILURES_SHOWN = 5
# Each op should get about SAMPLES_PER_OP timed calls in a run. When long ops
# leave room for few passes, short ops are repeated within a pass to get
# there: the median of a few calls of a millisecond op moves with every
# disturbance.
SAMPLES_PER_OP = 20
REPEAT_BUDGET_S = 0.05


class Failures:
    """Counts wrong answers and keeps the first few descriptions."""

    def __init__(self) -> None:
        self.count = 0
        self.shown: list[str] = []

    def __call__(self, message: str) -> None:
        self.count += 1
        if len(self.shown) < FAILURES_SHOWN:
            self.shown.append(message)


def run_pass(ops, order, tracer, raw, scaled, fail, repeats: int, ref: Reference) -> int:
    """Run ``ops`` once in ``order``, appending each call's time to the op's
    array in ``raw`` and the time scaled by ``ref`` to the one in ``scaled``;
    return the number of calls made. An op shorter than REPEAT_BUDGET_S runs
    again right away, up to ``repeats`` times in all."""
    calls = 0
    for i in order:
        op = ops[i]
        spent = 0.0
        for _ in range(repeats):
            calls += 1
            t0 = perf_counter()
            try:
                if tracer is None:
                    res = op.run(plain_call)
                else:
                    tracer.op = len(tracer.spans)  # the op's id: the index of its root span
                    res = tracer.call("bench." + op.kind, op.run, tracer.call)
            except Exception as exc:  # a wrong answer, judged by check() below
                res = exc
            dt = perf_counter() - t0
            raw[i].append(dt)
            scaled[i].append(dt * ref.scale)
            problem = op.check(res)
            if problem:
                fail(problem)
            ref.tick()
            spent += dt
            if spent >= REPEAT_BUDGET_S:
                break
    return calls


def repeat_passes(ops, rng, seconds, tracers, fail) -> tuple[list, list, Reference, int, int]:
    """Repeat passes in fresh seeded orders while the next one is expected to
    end within ``seconds``. Each pass runs the ops once per entry of
    ``tracers`` (``None`` is untraced), in the same order; the first pass
    sets how often short ops repeat in the later ones. Return, per entry,
    each op's median scaled time and its median raw time, then the
    reference, the number of passes and of calls made."""
    raw = [[array("d") for _ in ops] for _ in tracers]
    scaled = [[array("d") for _ in ops] for _ in tracers]
    order = list(range(len(ops)))
    ref = Reference()
    start = perf_counter()
    passes = calls = 0
    repeats = 1
    while True:
        t0 = perf_counter()
        rng.shuffle(order)
        for entry, tracer in enumerate(tracers):
            calls += run_pass(ops, order, tracer, raw[entry], scaled[entry], fail, repeats, ref)
        passes += 1
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            return medians(scaled), medians(raw), ref, passes, calls
        if passes == 1:
            repeats = math.ceil(SAMPLES_PER_OP * last / seconds)


def medians(times) -> list[list[float]]:
    """Each op's median time, per entry of ``times``."""
    return [[statistics.median(t) for t in op_times] for op_times in times]


def percentile_us(times, q: int) -> float:
    """The q-th percentile of ``times`` in microseconds."""
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e6


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=wl.SCALES, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    ops = wl.build(args.workload, rng, args.scale)
    fail = Failures()
    warmed, problems = wl.warm_up(args.workload, ops)
    for problem in problems:
        fail(problem)
    print("READY", flush=True)
    # the machine's speed right after set-up, by which run.py scales set-up
    # time as Reference scales op times
    print(f"REFERENCE {statistics.median(reference_time() for _ in range(5))!r}", flush=True)
    if args.setup_only:
        return

    if not args.trace:
        (medians,), (raw,), ref, passes, calls = repeat_passes(ops, rng, args.seconds, [None], fail)
        attempted = warmed + calls
        pass_s = sum(medians)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, value, unit in (
                ("pass_s", pass_s, "s"),
                ("ops_per_s", len(ops) / pass_s, "1/s"),
                ("op_p50_us", percentile_us(medians, 50), "us"),
                ("op_p90_us", percentile_us(medians, 90), "us"),
                ("ok_ratio", (attempted - fail.count) / attempted, "ratio"),
                ("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            )
        }
        samples = {
            "passes": passes,
            "calls": calls,
            "distinct_ops": len(ops),
            "reference_calls": len(ref.times),
            "reference_median_s": statistics.median(ref.times),
            "reference_nominal_s": REFERENCE_NOMINAL_S,
            "unscaled_pass_s": sum(raw),
            "unscaled_op_p50_us": percentile_us(raw, 50),
            "unscaled_op_p90_us": percentile_us(raw, 90),
        }
    else:
        tracer = Tracer()
        (plain, traced), _, _, passes, calls = repeat_passes(ops, rng, args.seconds, [None, tracer], fail)
        probe_tracer, layer, checked = probe(rng, args.scale, fail)
        attempted = warmed + calls + checked
        layer["trace.pass_s.untraced"] = (sum(plain), "s")
        layer["trace.pass_s.traced"] = (sum(traced), "s")
        layer["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        out = ROOT / ".bench_out" / f"trace-{args.workload}-{args.scale}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        doc = {
            "workload": args.workload,
            "seed": args.seed,
            "passes": tracer.to_dict(),
            "probe": probe_tracer.to_dict(),
        }
        out.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        samples = {
            "passes": passes,
            "calls": calls,
            "distinct_ops": len(ops),
            "probe_checks": checked,
            "trace_file": str(out.relative_to(ROOT)),
        }
    print(
        json.dumps(
            {
                "attempted": attempted,
                "failed": fail.count,
                "failures": fail.shown,
                "samples": samples,
                "metrics": metrics,
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
