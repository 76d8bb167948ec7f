"""Smoke test of the benchmark at tiny sizes (J(5,3), J(6,3)).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402
from johnson_cliques.errors import RangeError, ValidationError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    out = tmp_path / "results.jsonl"
    proc = run_bench(
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
        "--scale", "tiny", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads(out.read_text())
    assert record["result"] == result and record["meta"]["workload"] == workload


def test_timings_are_scaled_by_the_reference_loop():
    from reference import REFERENCE_NOMINAL_S, Reference

    ref = Reference()
    assert len(ref.times) == 1 and ref.scale == REFERENCE_NOMINAL_S / ref.times[0]
    ref.tick()  # within REFERENCE_EVERY_S of the first: no new reference time
    assert len(ref.times) == 1
    proc = run_bench("--workload", "export-stream", "--seed", "3", "--seconds", "1", "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    samples = json.loads(lines[-2].removeprefix("# meta "))["samples"]
    metrics = json.loads(lines[-1])["metrics"]
    # the raw figures stay beside the scaled ones
    assert samples["reference_calls"] >= 1 and samples["reference_median_s"] > 0
    assert samples["unscaled_pass_s"] > 0 and samples["unscaled_setup_s"] > 0
    assert metrics["pass_s"]["value"] > 0


def test_same_seed_same_inputs():
    for workload in wl.WORKLOADS:
        a = wl.build(workload, random.Random(5), "tiny")
        b = wl.build(workload, random.Random(5), "tiny")
        assert a == b
    assert wl.build("clique-queries", random.Random(5), "tiny") != wl.build(
        "clique-queries", random.Random(6), "tiny"
    )


def test_query_mix_covers_every_kind():
    ops = wl.build("clique-queries", random.Random(1), "full")
    kinds = {op.kind for op in ops}
    assert kinds == {kind for kind, _ in wl.QUERY_MIX}
    assert {op.what for op in ops if op.kind == "malformed"} == set(wl.MALFORMED)


def test_malformed_input_must_raise_the_named_error():
    for what in wl.MALFORMED:
        op = wl.malformed_query(random.Random(2), wl.JohnsonParams(6, 3), what)
        assert op.check(op.error("rejected")) is None
        assert op.check(None) is not None  # accepted
        assert op.check(KeyError("x")) is not None  # some other exception
        if op.error is RangeError:
            assert op.check(ValidationError("not a range error")) is not None


def test_tiny_reference_digests_match_the_goldens():
    golden = ROOT / "tests" / "golden"
    for name, path in (
        ("gen-edgelist", "j_5_3.edgelist"),
        ("gen-dot", "j_5_3.dot"),
        ("gen-json", "j_5_3.json"),
        ("cliques", "j_5_3.cliques.jsonl"),
    ):
        data = (golden / path).read_bytes()
        ref = wl.DIGESTS["tiny"][name]
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (ref["sha256"], ref["bytes"])


def test_hash_sink_counts_across_write_boundaries():
    sink = wl.HashSink(b"],[")
    for chunk in (b"[[1,2]", b",[3", b"],", b"[4]]\n"):
        sink.write(chunk)
    assert (sink.hits, sink.lines, sink.nbytes) == (2, 1, 16)
    assert sink.hexdigest() == hashlib.sha256(b"[[1,2],[3],[4]]\n").hexdigest()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "verify-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_flags_a_metric_past_its_bound(tmp_path):
    def write(path, pass_s):
        rec = {
            "meta": {"workload": "export-stream"},
            "result": {"metrics": {"pass_s": {"value": pass_s, "unit": "s"}}},
        }
        path.write_text("\n".join(json.dumps(rec) for _ in range(3)) + "\n")

    write(tmp_path / "a.jsonl", 1.0)
    write(tmp_path / "b.jsonl", 1.5)
    proc = run_bench("--compare", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"))
    assert proc.returncode == 0, proc.stderr
    row = next(line for line in proc.stdout.splitlines() if line.strip().startswith("pass_s"))
    assert "1.500" in row and "EXCEEDED" in row
    assert "FAILED" not in proc.stdout


def test_compare_flags_any_failed_op(tmp_path):
    def write(path, failed):
        rec = {
            "meta": {"workload": "clique-queries"},
            "result": {"failed": failed, "metrics": {"ok_ratio": {"value": 1 - failed / 1e6, "unit": "ratio"}}},
        }
        path.write_text(json.dumps(rec) + "\n")

    write(tmp_path / "a.jsonl", 0)
    write(tmp_path / "b.jsonl", 1)
    proc = run_bench("--compare", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"))
    assert proc.returncode == 0, proc.stderr
    assert "FAILED: 1 run(s) of B had failed ops" in proc.stdout
