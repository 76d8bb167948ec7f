"""Benchmark of johnson-cliques: three closed-loop workloads, one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0
    python3 bench/run.py --compare A.jsonl B.jsonl

NAME is one of the workloads in BENCHMARK.json (verify-sweep, export-stream,
clique-queries), or ``all`` to run each in turn. Every workload runs in a
process of its own (worker.py), so its peak RSS and set-up time are its own.
The seed makes the inputs; the program only ever sees the generated inputs.
Every output is checked; a wrong answer, a wrong exit code or an unexpected
exception counts as a failed op.

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json;
``setup_s`` is the median over SETUP_RUNS fresh processes of the time from
process start to the end of set-up. Every timing is scaled by a reference
loop timed beside it (see reference.py); the raw figures are in the
``# meta`` line. With ``--trace 1`` the result holds the per-layer metrics
instead (see probe.py), with the traced and untraced pass times side by
side as the tracing overhead.

The last line of stdout is the result as one JSON object; a ``# meta`` line
before it records the git sha, Python version, CPU count, the line count of
``src/`` and the sample counts. ``--out FILE`` also appends a record per
workload to FILE, and ``--compare`` prints, per workload and metric, both
sides' medians and quartiles, their ratio and whether the bound is exceeded.
``--scale tiny`` runs every workload at J(5,3) and J(6,3), for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import REFERENCE_NOMINAL_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
SETUP_RUNS = 11
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def meta() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def spawn(args, workload: str, setup_only: bool, deadline: float) -> tuple[float, float, str]:
    """Run worker.py once; return (seconds to READY, the reference loop's
    time right after, the rest of its stdout)."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # a fixed hash seed takes one source of process-to-process variation out
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        reference = proc.stdout.readline().split()
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or len(reference) != 2 or reference[0] != "REFERENCE" or rc != 0:
        raise BenchError(f"{workload} worker exited with code {rc}")
    return setup_s, float(reference[1]), rest


def run_workload(args, spec: dict, workload: str) -> tuple[dict, dict]:
    """One workload in fresh processes; return (result line, meta record)."""
    deadline = time.monotonic() + DEADLINE_S
    # set-up only runs go half before and half after the measured run, so
    # that they sample the machine at more than one moment
    extra = 0 if args.trace else SETUP_RUNS - 1
    setups = [spawn(args, workload, True, deadline)[:2] for _ in range(extra // 2)]
    setup_s, reference_s, out = spawn(args, workload, False, deadline)
    setups.append((setup_s, reference_s))
    setups += [spawn(args, workload, True, deadline)[:2] for _ in range(extra - extra // 2)]
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    worker = json.loads(lines[-1])
    metrics = worker["metrics"]
    if not args.trace:
        # each set-up scaled by the reference loop's time right after it,
        # as worker.Reference scales op times; the median over the processes
        scaled = [s * REFERENCE_NOMINAL_S / ref for s, ref in setups]
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        worker["samples"]["unscaled_setup_s"] = statistics.median(s for s, _ in setups)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        raise BenchError(f"{workload} reported metrics that do not match BENCHMARK.json: {sorted(got)}")
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        **meta(),
        "samples": {**worker["samples"], "setup_runs": len(setups)},
        "failures": worker["failures"],
    }
    return result, record


def print_table(workload: str, result: dict, record: dict) -> None:
    print(f"# {workload}: {result['attempted']} ops attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        note = f"  (over {record['samples']['distinct_ops']} ops)" if name.startswith("op_p") else ""
        print(f"#   {name:36s} {m['value']:16.6g} {m['unit']}{note}")
    for failure in record["failures"]:
        print(f"#   FAILED: {failure}", file=sys.stderr)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(spec: dict, path_a: Path, path_b: Path) -> None:
    """Print each side's median and quartiles per workload and metric, the
    ratio B/A and whether B is worse than A by more than the metric's bound."""
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides, failing = [], []
    for path in (path_a, path_b):
        values: dict[tuple[str, str], list[float]] = {}
        failed: dict[str, int] = {}
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            workload = rec["meta"]["workload"]
            failed[workload] = failed.get(workload, 0) + (rec["result"].get("failed", 0) > 0)
            for name, m in rec["result"]["metrics"].items():
                values.setdefault((workload, name), []).append(m["value"])
        sides.append(values)
        failing.append(failed)
    a, b = sides
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"A = {path_a}\nB = {path_b}")
    for workload in workloads:
        rows = [key for key in a if key[0] == workload and key in b]
        if not rows:
            continue
        print(f"\n{workload}")
        # any failed op is a correctness regression, whatever ok_ratio's bound
        for side, failed in zip("AB", failing):
            if failed.get(workload):
                print(f"  FAILED: {failed[workload]} run(s) of {side} had failed ops")
        print(f"  {'metric':34s} {'unit':6s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} {'B/A':>7s}  bound")
        for key in sorted(rows, key=lambda k: list(defs).index(k[1])):
            d = defs[key[1]]
            qa, qb = quartiles(a[key]), quartiles(b[key])
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            if "bound" in d:
                worse = ratio > 1 + d["bound"] if d["better"] == "lower" else ratio < 1 - d["bound"]
                verdict = f"{d['bound']:g} {'EXCEEDED' if worse else 'within'}"
            else:
                verdict = "-"
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] n={len(v)}" for q, v in ((qa, a[key]), (qb, b[key]))]
            print(f"  {key[1]:34s} {d['unit']:6s} {cells[0]:>34s} {cells[1]:>34s} {ratio:7.3f}  {verdict}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path, help="append one record per workload to this file")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args()

    if not SPEC_FILE.is_file() or not (ROOT / "src" / "johnson_cliques" / "__init__.py").is_file():
        print("error: run from a checkout of johnson-cliques (BENCHMARK.json and src/ are needed)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    if args.compare:
        compare(spec, *args.compare)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        ap.error(f"--workload must be one of {names + ['all']}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    results = {}
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            result, record = run_workload(args, spec, workload)
            print_table(workload, result, record)
            print("# meta " + json.dumps(record), flush=True)
            if args.out:
                with args.out.open("a") as f:
                    f.write(json.dumps({"meta": record, "result": result}) + "\n")
            results[workload] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
