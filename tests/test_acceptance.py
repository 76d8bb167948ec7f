"""End-to-end acceptance checks over the exhaustive desk-scale range
(2 <= m <= 4 with m+2 <= n <= 9, plus the degenerate boundary n = m+1).

Each check prints one PASS/FAIL line; run ``pytest -s tests/test_acceptance.py``
to see them all.
"""

import io
import json
import random
import time
from itertools import combinations
from pathlib import Path

from johnson_cliques import (
    Clique,
    CliqueClass,
    JohnsonParams,
    RegimeError,
    binomial,
    clique_number,
    clique_partition,
    clique_partition_number,
    edge_count,
    enumerate_max_cliques,
    enumerate_min_cliques,
    extend_to_maximal,
    materialize,
    maximal_cliques,
    unrank,
    verify,
)
from johnson_cliques.cli import run as run_cli
from helpers import ACCEPTANCE_PAIRS, DEGENERATE_PAIRS

GOLDEN = Path(__file__).parent / "golden"


def _report(number: int, title: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {number} [{status}] {title}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def _oracle_label_cliques(oracle_cache, n, m):
    _, labels, cliques = oracle_cache(n, m)
    return [frozenset(labels[i] for i in cl) for cl in cliques]


def test_criterion_1_intersection_sizes(capsys):
    failures = []
    t0 = time.perf_counter()
    for n, m in ACCEPTANCE_PAIRS:
        g = materialize(JohnsonParams(n, m))
        labels = [unrank(r, n, m) for r in range(g.vertex_count)]
        for cl in maximal_cliques(g):
            inter = set.intersection(*(set(labels[i]) for i in cl))
            if len(inter) not in (0, m - 1):
                failures.append((n, m, sorted(cl), len(inter)))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"enumeration took {elapsed:.1f}s, budget is 60s")
    with capsys.disabled():
        _report(1, f"maximal-clique intersection sizes are 0 or m-1 ({elapsed:.1f}s)", failures)


def test_criterion_2_class_equivalence(oracle_cache, capsys):
    failures = []
    for n, m in ACCEPTANCE_PAIRS:
        p = JohnsonParams(n, m)
        oracle_sets = _oracle_label_cliques(oracle_cache, n, m)
        min_sets = {frozenset(h.members()) for h in enumerate_min_cliques(p)}
        max_sets = {frozenset(h.members()) for h in enumerate_max_cliques(p)}
        if len(min_sets) != binomial(n, m + 1) or len(max_sets) != binomial(n, m - 1):
            failures.append((n, m, "family count"))
        if min_sets & max_sets:
            failures.append((n, m, "families overlap"))
        if set(oracle_sets) != min_sets | max_sets or len(oracle_sets) != len(min_sets) + len(max_sets):
            failures.append((n, m, "set mismatch"))
    # concrete anchors
    octa = _oracle_label_cliques(oracle_cache, 4, 2)
    if not (len(octa) == 8 and all(len(cl) == 3 for cl in octa)):
        failures.append("J_4(2,1) should have 4+4=8 maximal triangles")
    ten = _oracle_label_cliques(oracle_cache, 5, 3)
    sizes = sorted(len(cl) for cl in ten)
    if sizes != [3] * 10 + [4] * 5:
        failures.append("J_5(3,2) should have 5 cliques of size 4 and 10 of size 3")
    with capsys.disabled():
        _report(2, "oracle cliques equal the two closed-form families", failures)


def test_criterion_3_clique_number(oracle_cache, capsys):
    failures = []
    for n, m in ACCEPTANCE_PAIRS:
        observed = max(len(cl) for cl in oracle_cache(n, m)[2])
        formula = clique_number(JohnsonParams(n, m))
        if observed != formula or formula != max(m + 1, n - m + 1):
            failures.append((n, m, observed, formula))
        if m == 2 and observed != max(n - 1, 3):
            failures.append((n, m, "pair-label base case"))
    with capsys.disabled():
        _report(3, "maximum clique size equals max(m+1, n-m+1)", failures)


def test_criterion_4_edge_membership(oracle_cache, capsys):
    failures = []
    for n, m in ACCEPTANCE_PAIRS:
        p = JohnsonParams(n, m)
        g, labels, _ = oracle_cache(n, m)
        edge_keys = {
            frozenset((labels[i], labels[j]))
            for i in range(g.vertex_count)
            for j in range(i + 1, g.vertex_count)
            if g.adjacent(i, j)
        }
        for family in (enumerate_min_cliques(p), enumerate_max_cliques(p)):
            marks = {key: 0 for key in edge_keys}
            for h in family:
                for a, b in combinations(h.members(), 2):
                    marks[frozenset((a, b))] += 1
            if any(count != 1 for count in marks.values()):
                failures.append((n, m, "some edge not covered exactly once"))
        lhs = binomial(n, m + 1) * binomial(m + 1, 2)
        mid = binomial(n, m) * m * (n - m) // 2
        rhs = binomial(n, m - 1) * binomial(n - m + 1, 2)
        if not (lhs == mid == rhs == len(edge_keys) == edge_count(p)):
            failures.append((n, m, "counting identity", lhs, mid, rhs))
    with capsys.disabled():
        _report(4, "each edge lies in exactly one clique per class", failures)


def test_criterion_5_unique_extension(capsys):
    failures = []
    rng = random.Random(20250809)
    pools = {}
    for n, m in ACCEPTANCE_PAIRS:
        p = JohnsonParams(n, m)
        pools[(n, m)] = (p, list(enumerate_min_cliques(p)) + list(enumerate_max_cliques(p)))

    for _ in range(1000):
        n, m = rng.choice(ACCEPTANCE_PAIRS)
        p, pool = pools[(n, m)]
        h = rng.choice(pool)
        r = rng.randint(3, h.size)
        sample = rng.sample(h.members(), r)
        extensions = extend_to_maximal(Clique.from_labels(sample, p))
        if len(extensions) != 1:
            failures.append((n, m, sample, f"{len(extensions)} extensions"))
        elif not set(sample) <= set(extensions[0].members()):
            failures.append((n, m, sample, "extension does not contain sample"))
        elif extensions[0] != h:
            failures.append((n, m, sample, "extension is not the source clique"))

    for _ in range(1000):
        n, m = rng.choice(ACCEPTANCE_PAIRS)
        p, pool = pools[(n, m)]
        h = rng.choice(pool)
        pair = rng.sample(h.members(), 2)
        extensions = extend_to_maximal(Clique.from_labels(pair, p))
        kinds = [e.kind for e in extensions]
        if kinds != [CliqueClass.MIN, CliqueClass.MAX]:
            failures.append((n, m, pair, f"edge extensions {kinds}"))
        elif not all(set(pair) <= set(e.members()) for e in extensions):
            failures.append((n, m, pair, "edge extension misses endpoints"))
    with capsys.disabled():
        _report(5, "sampled sub-cliques extend uniquely (pairs to one per class)", failures)


def test_criterion_6_partition(oracle_cache, capsys):
    failures = []
    for n, m in ACCEPTANCE_PAIRS:
        p = JohnsonParams(n, m)
        part = clique_partition(p)
        expected = binomial(n, m - 1) if n < 2 * m else binomial(n, m + 1)
        if len(part.parts) != expected or clique_partition_number(p) != expected:
            failures.append((n, m, len(part.parts), expected))
            continue
        g, labels, _ = oracle_cache(n, m)
        marks = {
            frozenset((labels[i], labels[j])): 0
            for i in range(g.vertex_count)
            for j in range(i + 1, g.vertex_count)
            if g.adjacent(i, j)
        }
        for h in part.parts:
            for a, b in combinations(h.members(), 2):
                key = frozenset((a, b))
                if key not in marks:
                    failures.append((n, m, "part uses a non-edge"))
                    break
                marks[key] += 1
        if any(count != 1 for count in marks.values()):
            failures.append((n, m, "coverage not exactly once"))
    boundary = clique_partition(JohnsonParams(6, 3)).parts
    covered = len(boundary) * binomial(boundary[0].size, 2)
    if len(boundary) != 15 or covered != 90:
        failures.append(("J_6(3,2) boundary", len(boundary), covered))
    with capsys.disabled():
        _report(6, "edge partitions have the formula size and exact coverage", failures)


def test_criterion_7_degenerate_regime(capsys):
    failures = []
    for n, m in DEGENERATE_PAIRS:
        p = JohnsonParams(n, m)
        g = materialize(p)
        oracle = maximal_cliques(g)
        if oracle != [tuple(range(g.vertex_count))]:
            failures.append((n, m, "oracle should find exactly the whole graph"))
        min_family = list(enumerate_min_cliques(p))
        if len(min_family) != 1 or set(min_family[0].members()) != {
            unrank(r, n, m) for r in range(g.vertex_count)
        }:
            failures.append((n, m, "library should report the sole class-min clique"))
        try:
            enumerate_max_cliques(p)
            failures.append((n, m, "class-max enumeration should be a regime error"))
        except RegimeError:
            pass
        report = verify(p)
        if not (report.params.degenerate and report.passed and report.oracle_clique_count == 1):
            failures.append((n, m, "verify should pass and flag the regime"))
        part = clique_partition(p)
        if clique_partition_number(p) != 1 or part.parts != tuple(min_family):
            failures.append((n, m, "the partition should be the one whole-graph clique"))
    with capsys.disabled():
        _report(7, "degenerate boundary n=m+1: one maximal clique, one part", failures)


GOLDEN_CASES = [
    ("j_4_2.dot", ["gen", "--n", "4", "--m", "2", "--format", "dot"]),
    ("j_4_2.edgelist", ["gen", "--n", "4", "--m", "2", "--format", "edgelist"]),
    ("j_4_2.json", ["gen", "--n", "4", "--m", "2", "--format", "json"]),
    ("j_4_2.cliques.jsonl", ["cliques", "--n", "4", "--m", "2", "--class", "all"]),
    ("j_5_3.dot", ["gen", "--n", "5", "--m", "3", "--format", "dot"]),
    ("j_5_3.edgelist", ["gen", "--n", "5", "--m", "3", "--format", "edgelist"]),
    ("j_5_3.json", ["gen", "--n", "5", "--m", "3", "--format", "json"]),
    ("j_5_3.cliques.jsonl", ["cliques", "--n", "5", "--m", "3", "--class", "all"]),
]


def _capture(argv):
    out, err = io.BytesIO(), io.BytesIO()
    code = run_cli(argv, out, err)
    return code, out.getvalue()


def test_criterion_8_determinism_and_goldens(capsys):
    failures = []
    for name, argv in GOLDEN_CASES:
        code1, out1 = _capture(argv)
        code2, out2 = _capture(argv)
        if code1 != 0 or code2 != 0:
            failures.append((name, "nonzero exit"))
        if out1 != out2:
            failures.append((name, "repeated runs differ"))
        if out1 != (GOLDEN / name).read_bytes():
            failures.append((name, "golden mismatch"))
    verify_argv = ["verify", "--m-range", "2..3", "--n-range", "3..6"]
    code1, first = _capture(verify_argv)
    code2, second = _capture(verify_argv)
    if first != second:
        failures.append(("verify", "repeated runs differ"))
    if code1 != 0 or code2 != 0:
        failures.append(("verify", "sweep should pass"))
    if not all(json.loads(ln)["passed"] for ln in first.decode().splitlines()):
        failures.append(("verify", "some report failed"))
    with capsys.disabled():
        _report(8, "byte-identical reruns and exact golden files", failures)
