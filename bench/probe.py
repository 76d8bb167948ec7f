"""The per-layer probe of the traced run.

It calls each module's public functions from here, one span per call, on
seeded inputs at the workloads' own sizes, and turns the spans into the
per-layer metrics. The program itself is not instrumented. The probe is the
same for every workload, so a per-layer figure means the same thing whichever
workload's traced run reports it.
"""

from __future__ import annotations

import io
import random
import statistics
from collections import deque
from itertools import chain
from math import comb

from johnson_cliques import (
    Clique,
    Edge,
    JohnsonParams,
    are_adjacent,
    classify,
    cli,
    clique_partition,
    edges,
    enumerate_max_cliques,
    enumerate_min_cliques,
    export,
    extend_to_maximal,
    iter_subsets_colex,
    neighbors,
    rank,
    unrank,
    validate_label,
)
from johnson_cliques.oracle import materialize, maximal_cliques, verify

import workloads as wl
from tracer import Tracer

CALLS_PER_SIZE = {"full": 300, "tiny": 20}
ITER_SUBSETS = {"full": (24, 6), "tiny": (6, 3)}
NEIGHBORS_SIZE = {"full": (48, 12), "tiny": (6, 3)}
MEMBERS_SAMPLE = {"full": 3000, "tiny": 5}
# Each bulk call runs this often, library and CLI alternating, and keeps its
# fastest time.
BULK_REPEATS = 2
# Alternating library and CLI calls per command for the CLI overhead.
OVERHEAD_PAIRS = {"full": 300, "tiny": 5}


def _drain(iterator) -> None:
    deque(iterator, maxlen=0)


def _drain_both(p: JohnsonParams) -> None:
    _drain(enumerate_min_cliques(p))
    _drain(enumerate_max_cliques(p))


def _member_labels(hs) -> int:
    return sum(len(h.members()) for h in hs)


def _median_us(tr: Tracer, name: str) -> float:
    return statistics.median(tr.durations(name)) * 1e6


def probe(rng: random.Random, scale: str, fail) -> tuple[Tracer, dict, int]:
    """Run the probe; return its tracer, the per-layer metrics as
    name -> (value, unit), and the number of checked calls. ``fail(message)``
    records a wrong answer."""
    tr = Tracer()
    metrics: dict[str, tuple[float, str]] = {}
    checked = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal checked
        checked += 1
        if not ok:
            fail(f"probe: {what}")

    # combinat, graph and cliques single calls at the clique-queries sizes
    k = CALLS_PER_SIZE[scale]
    for n, m in wl.QUERY_SIZES[scale]:
        p = JohnsonParams(n, m)
        for _ in range(k):
            r = rng.randrange(comb(n, m))
            label = tr.call("combinat.unrank", unrank, r, n, m)
            expect(tr.call("combinat.rank", rank, label, n) == r, f"rank(unrank({r}))")
            tr.call("combinat.validate_label", validate_label, label, n, m)
            v = wl.swap(rng, label, n) if rng.random() < 0.5 else wl.random_label(rng, n, m)
            adjacent = tr.call("graph.are_adjacent", are_adjacent, label, v)
            expect(adjacent == (len(set(label) & set(v)) == m - 1), f"are_adjacent{label, v}")
            w = wl.swap(rng, label, n)
            tr.call("graph.Edge", Edge, *rng.sample([label, w], 2))
            labels = wl.random_sub_clique(rng, n, m)
            c = tr.call("cliques.Clique.from_labels", Clique.from_labels, labels, p)
            got = tr.call("cliques.classify", classify, c)
            expected = wl.expected_classification(labels, n, m)
            expect((got.kind.value, wl.extensions_of(got.extensions)) == expected, f"classify {labels}")
            e = Clique.from_labels([label, w], p)
            got = tr.call("cliques.extend_to_maximal", extend_to_maximal, e)
            expected = wl.expected_classification([label, w], n, m)[1]
            expect(wl.extensions_of(got) == expected, f"extend {label, w}")
    n, m = NEIGHBORS_SIZE[scale]
    p = JohnsonParams(n, m)
    for _ in range(k):
        got = tr.call("graph.neighbors", neighbors, wl.random_label(rng, n, m), p)
        expect(len(got) == m * (n - m), "neighbors count")
    for name, call in (
        ("combinat.rank_us", "combinat.rank"),
        ("combinat.unrank_us", "combinat.unrank"),
        ("combinat.validate_label_us", "combinat.validate_label"),
        ("graph.are_adjacent_us", "graph.are_adjacent"),
        ("graph.neighbors_us", "graph.neighbors"),
        ("graph.edge_new_us", "graph.Edge"),
        ("cliques.from_labels_us", "cliques.Clique.from_labels"),
        ("cliques.classify_us", "cliques.classify"),
        ("cliques.extend_us", "cliques.extend_to_maximal"),
    ):
        metrics[name] = (_median_us(tr, call), "us")

    n, m = ITER_SUBSETS[scale]
    _, s = tr.timed("combinat.iter_subsets_colex", _drain, iter_subsets_colex(n, m))
    metrics["combinat.iter_subsets_per_s"] = (comb(n, m) / s, "1/s")

    # bulk streams at the export-stream sizes, each both as the library call
    # and as the CLI command that wraps it, into the same kind of sink
    commands = wl.export_commands(scale)
    gen = commands[0]
    _, s = tr.timed("graph.edges", _drain, edges(JohnsonParams(gen.n, gen.m)))
    metrics["graph.edges_per_s"] = (wl.edge_total(gen.n, gen.m) / s, "1/s")

    for c in commands:
        p = JohnsonParams(c.n, c.m)
        lib_s = cli_s = min_s = max_s = float("inf")
        for _ in range(BULK_REPEATS):
            if c.name.startswith("gen-"):
                _, s = tr.timed("graph.export", export, p, c.name[4:], wl.HashSink(c.pattern))
                lib_s = min(lib_s, s)
            elif c.name == "cliques":
                _, s = tr.timed("cliques.enumerate_min_cliques", _drain, enumerate_min_cliques(p))
                min_s = min(min_s, s)
                _, s = tr.timed("cliques.enumerate_max_cliques", _drain, enumerate_max_cliques(p))
                max_s = min(max_s, s)
            else:
                part, s = tr.timed("cliques.clique_partition", clique_partition, p)
                lib_s = min(lib_s, s)
                expect(len(part.parts) == c.expected_counts()[1], f"{c.name} part count")
            out, err = wl.HashSink(c.pattern), io.BytesIO()
            rc, s = tr.timed("cli.run", cli.run, c.argv, out, err)
            cli_s = min(cli_s, s)
            problem = c.check((rc, out, err))
            expect(problem is None, str(problem))
        if c.name.startswith("gen-"):
            metrics[f"graph.export_s.{c.name[4:]}"] = (lib_s, "s")
        elif c.name == "cliques":
            metrics["cliques.enumerate_min_per_s"] = (comb(c.n, c.m + 1) / min_s, "1/s")
            metrics["cliques.enumerate_max_per_s"] = (comb(c.n, c.m - 1) / max_s, "1/s")
            hs = list(chain(enumerate_min_cliques(p), enumerate_max_cliques(p)))
            hs = rng.sample(hs, min(len(hs), MEMBERS_SAMPLE[scale]))
            labels, s = tr.timed("cliques.MaximalClique.members", _member_labels, hs)
            metrics["cliques.members_per_s"] = (labels / s, "1/s")
        else:
            metrics[f"cliques.partition_s.{c.name[10:]}"] = (lib_s, "s")
        metrics[f"cli.run_s.{c.name}"] = (cli_s, "s")
        metrics[f"cli.stdout_bytes.{c.name}"] = (out.nbytes, "bytes")

    # what the CLI adds to a call: argument parsing, text wrapping, dispatch
    # and the serialisation of a small answer. At the full sizes that cost is
    # far below the noise of one 0.2 s call, so it is taken at the tiny sizes
    # as the median difference of many alternating library and CLI calls.
    for c in wl.export_commands("tiny"):
        p = JohnsonParams(c.n, c.m)
        diffs = []
        for _ in range(OVERHEAD_PAIRS[scale]):
            if c.name.startswith("gen-"):
                _, lib_s = tr.timed("graph.export", export, p, c.name[4:], wl.HashSink(c.pattern))
            elif c.name == "cliques":
                _, lib_s = tr.timed("cliques.enumerate", _drain_both, p)
            else:
                _, lib_s = tr.timed("cliques.clique_partition", clique_partition, p)
            out, err = wl.HashSink(c.pattern), io.BytesIO()
            rc, cli_s = tr.timed("cli.run", cli.run, c.argv, out, err)
            problem = c.check((rc, out, err))
            expect(problem is None, str(problem))
            diffs.append(cli_s - lib_s)
        metrics[f"cli.overhead_s.{c.name}"] = (statistics.median(diffs), "s")

    # the oracle over the verify-sweep pairs
    totals = dict.fromkeys(("mat", "bk", "ver", "v", "e", "cl", "pairs"), 0)
    for m, n in wl.VERIFY_PAIRS[scale]:
        p = JohnsonParams(n, m)
        g, s = tr.timed("oracle.materialize", materialize, p)
        totals["mat"] += s
        found, s = tr.timed("oracle.maximal_cliques", maximal_cliques, g)
        totals["bk"] += s
        report, s = tr.timed("oracle.verify", verify, p)
        totals["ver"] += s
        expect(report.passed, f"verify J({n},{m})")
        expect(len(found) == wl.maximal_clique_total(n, m), f"oracle cliques J({n},{m})")
        expect(g.edge_total() == wl.edge_total(n, m), f"oracle edges J({n},{m})")
        totals["v"] += g.vertex_count
        totals["e"] += g.edge_total()
        totals["cl"] += len(found)
        totals["pairs"] += g.vertex_count * (g.vertex_count - 1) // 2
    metrics["oracle.materialize_s"] = (totals["mat"], "s")
    metrics["oracle.maximal_cliques_s"] = (totals["bk"], "s")
    metrics["oracle.verify_s"] = (totals["ver"], "s")
    metrics["oracle.verify_rest_s"] = (totals["ver"] - totals["mat"] - totals["bk"], "s")
    metrics["oracle.vertices"] = (totals["v"], "count")
    metrics["oracle.edges"] = (totals["e"], "count")
    metrics["oracle.cliques_found"] = (totals["cl"], "count")
    metrics["oracle.materialize_pairs_per_s"] = (totals["pairs"] / totals["mat"], "1/s")
    metrics["oracle.bk_us_per_clique"] = (totals["bk"] / totals["cl"] * 1e6, "us")
    return tr, metrics, checked
