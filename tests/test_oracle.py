import pickle
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import johnson_cliques.oracle as oracle
from johnson_cliques import (
    CliquePartition,
    DenseGraph,
    InternalConsistencyError,
    JohnsonParams,
    RangeError,
    SkippedPair,
    ValidationError,
    VerificationReport,
    binomial,
    clique_partition,
    edge_count,
    materialize,
    maximal_cliques,
    unrank,
    verify,
    verify_range,
    vertex_count,
)
from johnson_cliques.graph import _swap_walk
from helpers import (
    ACCEPTANCE_PAIRS,
    DEGENERATE_PAIRS,
    colex_subsets,
    naive_label_cliques,
    naive_maximal_cliques,
)


def assert_all_maximal(g, cliques):
    """Every reported clique really is one, and no vertex extends it."""
    for cl in cliques:
        for i, j in combinations(cl, 2):
            assert g.adjacent(i, j)
        inside = set(cl)
        for u in range(g.vertex_count):
            if u not in inside:
                assert not all(g.adjacent(u, w) for w in cl)


class TestDenseGraph:
    def test_symmetry_enforced(self):
        with pytest.raises(ValidationError):
            DenseGraph(2, (0b10, 0b00))

    def test_self_loops_rejected(self):
        with pytest.raises(ValidationError):
            DenseGraph(1, (0b1,))

    def test_stray_bits_rejected(self):
        with pytest.raises(ValidationError):
            DenseGraph(2, (0b100, 0b000))

    @pytest.mark.parametrize(
        "vertex_count,rows",
        [(2, [0, 0]), (True, (0,)), (1.0, (0,)), (1, (False,)), (2, (0, 1.0)), (1, ("0",))],
    )
    def test_input_of_the_wrong_type_rejected(self, vertex_count, rows):
        with pytest.raises(ValidationError):
            DenseGraph(vertex_count, rows)

    def test_edge_total(self):
        g = DenseGraph(3, (0b110, 0b101, 0b011))
        assert g.edge_total() == 3

    def test_missing_mirror_of_a_later_bit_is_named(self):
        with pytest.raises(ValidationError, match=r"adjacency not symmetric at \(0, 1\)$"):
            DenseGraph(3, (0b010, 0, 0))

    def test_missing_mirror_of_an_earlier_bit_is_named(self):
        # Every later bit is mirrored here; only the bit counts differ.
        with pytest.raises(ValidationError, match=r"adjacency not symmetric at \(1, 0\)$"):
            DenseGraph(3, (0, 0b001, 0))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_symmetry_check_is_exact(self, data):
        nv = data.draw(st.integers(2, 10))
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        rows = [0] * nv
        for i, j in edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        assert DenseGraph(nv, tuple(rows)).rows == tuple(rows)
        i, j = data.draw(st.sampled_from([(i, j) for i in range(nv) for j in range(nv) if i != j]))
        rows[i] ^= 1 << j
        with pytest.raises(ValidationError) as raised:
            DenseGraph(nv, tuple(rows))
        assert str(raised.value) == first_symmetry_fault(rows)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_several_flipped_bits_name_an_asymmetric_pair(self, data):
        nv = data.draw(st.integers(2, 10))
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        rows = [0] * nv
        for i, j in data.draw(st.lists(st.sampled_from(pairs), unique=True)):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        ordered = [(i, j) for i in range(nv) for j in range(nv) if i != j]
        for i, j in data.draw(st.lists(st.sampled_from(ordered), min_size=2, unique=True)):
            rows[i] ^= 1 << j
        if first_symmetry_fault(rows) is None:
            # The flips restored every pair they touched.
            assert DenseGraph(nv, tuple(rows)).rows == tuple(rows)
            return
        with pytest.raises(ValidationError) as raised:
            DenseGraph(nv, tuple(rows))
        i, j = map(int, re.fullmatch(r"adjacency not symmetric at \((\d+), (\d+)\)",
                                     str(raised.value)).groups())
        assert (rows[i] >> j) & 1 and not (rows[j] >> i) & 1


def first_symmetry_fault(rows):
    """The message of the first asymmetric bit, scanning every bit of every row."""
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if (row >> j) & 1 and not (rows[j] >> i) & 1:
                return f"adjacency not symmetric at ({i}, {j})"
    return None


class TestMaterialize:
    def test_octahedron(self):
        g = materialize(JohnsonParams(4, 2))
        assert g.vertex_count == 6
        assert g.edge_total() == 12

    def test_triangle(self):
        g = materialize(JohnsonParams(3, 2))
        assert g.vertex_count == 3
        assert all(g.adjacent(i, j) for i in range(3) for j in range(3) if i != j)

    def test_boundary_pair(self):
        g = materialize(JohnsonParams(6, 3))
        assert g.vertex_count == 20
        assert g.edge_total() == 90 == edge_count(JohnsonParams(6, 3))

    def test_cap_enforced(self):
        with pytest.raises(RangeError):
            materialize(JohnsonParams(9, 4), max_vertices=100)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_refused(self, cap):
        with pytest.raises(ValidationError, match=f"max_vertices must be at least 1, got {cap}"):
            materialize(JohnsonParams(5, 2), max_vertices=cap)

    def test_reads_the_cap_at_call_time(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_MATERIALIZE_CAP", 5)
        with pytest.raises(RangeError, match="10 vertices, above the materialization cap 5"):
            materialize(JohnsonParams(5, 3))
        assert materialize(JohnsonParams(4, 3)).vertex_count == 4

    def test_vertex_order_is_colex(self):
        p = JohnsonParams(5, 3)
        g = materialize(p)
        labels = [unrank(r, 5, 3) for r in range(g.vertex_count)]
        for i, j in combinations(range(g.vertex_count), 2):
            expected = len(set(labels[i]) & set(labels[j])) == 2
            assert g.adjacent(i, j) == expected

    @pytest.mark.parametrize("n,m", ACCEPTANCE_PAIRS + DEGENERATE_PAIRS)
    def test_definition_build_equals_pairwise_intersections(self, n, m):
        # Row i must hold exactly the labels sharing m-1 elements with
        # label i, found here by set intersection over every pair.
        labels = colex_subsets(n, m)
        g = materialize(JohnsonParams(n, m))
        assert g.vertex_count == len(labels)
        for i, a in enumerate(labels):
            expected = sum(1 << j for j, b in enumerate(labels) if len(set(a) & set(b)) == m - 1)
            assert g.rows[i] == expected, (n, m, a)

    @pytest.mark.parametrize("n,m", ACCEPTANCE_PAIRS + DEGENERATE_PAIRS + [(12, 5)])
    def test_swap_build_equals_pairwise_definition(self, n, m):
        # The oracle's rows come from the definition, the edge stream's from
        # the single-swap walk: rows rebuilt from the walk's later ranks,
        # mirrored, must be the oracle's rows.
        p = JohnsonParams(n, m)
        labels, later_ranks = _swap_walk(p)
        rows = [0] * len(labels)
        for i, later in enumerate(later_ranks):
            for j in later:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        assert materialize(p).rows == tuple(rows)


class TestMaskVertices:
    @given(st.integers(0, (1 << 2000) - 1))
    def test_round_trip(self, mask):
        got = oracle._mask_vertices(mask)
        assert list(got) == sorted(set(got))
        assert sum(1 << i for i in got) == mask


TRIANGLE = DenseGraph(3, (0b110, 0b101, 0b011))
# Vertices i and 5 - i are the octahedron's only non-adjacent pairs.
OCTAHEDRON = DenseGraph(6, tuple(0b111111 & ~(1 << i) & ~(1 << (5 - i)) for i in range(6)))
# One triangle per antipodal choice that the class-min family of J(4,2) makes.
OCTAHEDRON_PARTITION = [0b000111, 0b011001, 0b101010, 0b110100]


class TestCoversEachEdgeOnce:
    def test_exact_covers_pass(self):
        assert oracle._covers_each_edge_once([0b111], TRIANGLE.rows)
        assert oracle._covers_each_edge_once([0b011, 0b101, 0b110], TRIANGLE.rows)
        assert oracle._covers_each_edge_once(OCTAHEDRON_PARTITION, OCTAHEDRON.rows)
        edge_pairs = [(1 << i) | (1 << j) for i, j in combinations(range(6), 2) if i + j != 5]
        assert oracle._covers_each_edge_once(edge_pairs, OCTAHEDRON.rows)

    def test_missing_edge_fails(self):
        assert not oracle._covers_each_edge_once([0b011, 0b101], TRIANGLE.rows)
        assert not oracle._covers_each_edge_once(OCTAHEDRON_PARTITION[1:], OCTAHEDRON.rows)

    def test_edge_covered_twice_fails(self):
        assert not oracle._covers_each_edge_once([0b111, 0b011], TRIANGLE.rows)
        twice = OCTAHEDRON_PARTITION + [0b000011]
        assert not oracle._covers_each_edge_once(twice, OCTAHEDRON.rows)

    def test_non_edge_pair_fails(self):
        non_edge = OCTAHEDRON_PARTITION + [0b100001]
        assert not oracle._covers_each_edge_once(non_edge, OCTAHEDRON.rows)


class TestMaximalCliques:
    def test_complete_triangle(self):
        g = DenseGraph(3, (0b110, 0b101, 0b011))
        assert maximal_cliques(g) == [(0, 1, 2)]

    def test_octahedron_has_eight_triangles(self):
        g = materialize(JohnsonParams(4, 2))
        cliques = maximal_cliques(g)
        assert len(cliques) == 8
        assert all(len(cl) == 3 for cl in cliques)
        assert_all_maximal(g, cliques)

    def test_ten_vertex_graph(self):
        g = materialize(JohnsonParams(5, 3))
        cliques = maximal_cliques(g)
        assert len(cliques) == 15
        sizes = sorted(len(cl) for cl in cliques)
        assert sizes == [3] * 10 + [4] * 5
        assert_all_maximal(g, cliques)

    def test_empty_graph(self):
        assert maximal_cliques(DenseGraph(0, ())) == []
        assert maximal_cliques(DenseGraph(3, (0, 0, 0))) == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)])
    def test_matches_subset_enumeration(self, n, m):
        assert vertex_count(JohnsonParams(n, m)) <= 12
        g = materialize(JohnsonParams(n, m))
        got = maximal_cliques(g)
        assert got == naive_maximal_cliques(g.vertex_count, g.adjacent)

    @given(st.lists(st.booleans(), min_size=0, max_size=36))
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_enumeration_on_random_graphs(self, bits):
        # the bit list fills the strict upper triangle of up to a 9-vertex graph
        nv = 0
        while nv * (nv - 1) // 2 <= len(bits) - nv and nv < 9:
            nv += 1
        nv = max(nv, 1)
        rows = [0] * nv
        idx = 0
        for i in range(nv):
            for j in range(i + 1, nv):
                if idx < len(bits) and bits[idx]:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                idx += 1
        g = DenseGraph(nv, tuple(rows))
        got = maximal_cliques(g)
        assert got == naive_maximal_cliques(nv, g.adjacent)
        assert_all_maximal(g, got)

    @given(st.integers(31, 70), st.floats(0.05, 0.5), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx_past_one_int_digit(self, nv, density, seed):
        # Row masks of more than 30 vertices span several int digits; the
        # edges come from a seeded generator, so each example stays small.
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        rows = [0] * nv
        graph = nx.Graph()
        graph.add_nodes_from(range(nv))
        for i, j in combinations(range(nv), 2):
            if rng.random() < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
                graph.add_edge(i, j)
        got = maximal_cliques(DenseGraph(nv, tuple(rows)))
        assert got == sorted(tuple(sorted(cl)) for cl in nx.find_cliques(graph))

    def test_deterministic(self):
        g = materialize(JohnsonParams(6, 3))
        first = maximal_cliques(g)
        second = maximal_cliques(g)
        assert first == second
        assert repr(first) == repr(second)
        assert len(set(first)) == len(first)


class TestVerify:
    def test_ten_vertex_pair(self):
        report = verify(JohnsonParams(5, 3))
        assert report.passed
        assert report.oracle_clique_count == 15
        assert report.closed_form_count == 15
        assert report.max_clique_size_observed == 4
        assert not report.params.degenerate

    def test_boundary_pair(self):
        report = verify(JohnsonParams(6, 3))
        assert report.passed
        assert report.oracle_clique_count == 30
        assert report.closed_form_count == binomial(6, 4) + binomial(6, 2) == 30
        assert report.max_clique_size_observed == 4

    def test_degenerate_pair(self):
        report = verify(JohnsonParams(4, 3))
        assert report.params.degenerate
        assert report.passed
        assert report.oracle_clique_count == 1
        assert report.closed_form_count == 1
        assert report.checks["partition_ok"]
        assert report.notes == (
            "degenerate regime (n == m+1): the graph is complete, the sole maximal "
            "clique is the class-min one, and the class-max family is inapplicable",
        )

    def test_cap_propagates(self):
        with pytest.raises(RangeError):
            verify(JohnsonParams(9, 4), max_vertices=50)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_refused(self, cap):
        with pytest.raises(ValidationError, match=f"max_vertices must be at least 1, got {cap}"):
            verify(JohnsonParams(5, 2), max_vertices=cap)

    def test_reads_the_cap_at_call_time(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_MATERIALIZE_CAP", 5)
        with pytest.raises(RangeError, match="10 vertices, above the materialization cap 5"):
            verify(JohnsonParams(5, 3))

    @pytest.mark.parametrize("cap", [True, 10.5, "10"])
    def test_cap_that_is_not_an_int_refused(self, cap):
        with pytest.raises(ValidationError, match=f"max_vertices must be an int, got {cap!r}"):
            verify(JohnsonParams(5, 2), max_vertices=cap)

    def test_report_serialization_is_stable(self):
        a = verify(JohnsonParams(5, 3)).to_dict()
        b = verify(JohnsonParams(5, 3)).to_dict()
        assert a == b
        assert list(a) == [
            "n",
            "m",
            "degenerate",
            "oracle_clique_count",
            "closed_form_count",
            "sets_equal",
            "intersection_sizes_ok",
            "size_laws_ok",
            "clique_number_ok",
            "edge_law_ok",
            "partition_ok",
            "max_clique_size_observed",
            "passed",
            "notes",
        ]

    def test_partition_coverage_checked_edge_by_edge(self, monkeypatch):
        # Replacing one part by a copy of another keeps the part count and
        # the counted edges right while one edge is covered twice and
        # another not at all; only the exhaustive check can see it.
        real = clique_partition(JohnsonParams(5, 3))
        broken = CliquePartition((real.parts[0],) + real.parts[:-1])
        monkeypatch.setattr(oracle, "clique_partition", lambda p: broken)
        report = verify(JohnsonParams(5, 3))
        assert not report.checks["partition_ok"]
        assert not report.passed

    @pytest.mark.parametrize(
        "family,note",
        [
            ("enumerate_min_cliques", "class-min family has 4 cliques, expected C(5,4)"),
            ("enumerate_max_cliques", "class-max family has 9 cliques, expected C(5,2)"),
        ],
        ids=["enumerate_min_cliques", "enumerate_max_cliques"],
    )
    def test_dropped_clique_is_reported(self, monkeypatch, family, note):
        real = getattr(oracle, family)
        monkeypatch.setattr(oracle, family, lambda p: list(real(p))[1:])
        report = verify(JohnsonParams(5, 3))
        assert not report.checks["sets_equal"]
        assert not report.checks["edge_law_ok"]
        assert not report.passed
        assert note in report.notes

    @pytest.mark.parametrize("family", ["enumerate_min_cliques", "enumerate_max_cliques"])
    def test_duplicated_clique_is_reported(self, monkeypatch, family):
        # The duplicate leaves the set of cliques and its size unchanged;
        # only the edge law sees that its edges are covered twice.
        real = getattr(oracle, family)
        monkeypatch.setattr(oracle, family, lambda p: [*real(p), next(real(p))])
        report = verify(JohnsonParams(5, 3))
        assert report.checks["sets_equal"]
        assert not report.checks["edge_law_ok"]
        assert not report.passed
        assert "edge law failed: some edge is not in exactly one clique per class" in report.notes

    def test_wrong_clique_number_is_reported(self, monkeypatch):
        real = oracle.clique_number
        monkeypatch.setattr(oracle, "clique_number", lambda p: real(p) + 1)
        report = verify(JohnsonParams(5, 3))
        assert report.to_dict()["clique_number_ok"] is False
        assert not report.passed
        assert "observed maximum clique size 4, formula gives 5" in report.notes

    def test_overlapping_families_are_reported(self, monkeypatch):
        # The class-max family replaced by the class-min one: the two
        # overlap, and the class-max count is C(5,4), not C(5,2).
        monkeypatch.setattr(oracle, "enumerate_max_cliques", oracle.enumerate_min_cliques)
        report = verify(JohnsonParams(5, 3))
        assert report.to_dict()["sets_equal"] is False
        assert not report.passed
        assert "class-min and class-max families overlap; they must be disjoint" in report.notes
        assert "class-max family has 5 cliques, expected C(5,2)" in report.notes

    def test_failed_partition_is_reported(self, monkeypatch):
        def fail(p):
            raise InternalConsistencyError("forced")

        monkeypatch.setattr(oracle, "clique_partition", fail)
        report = verify(JohnsonParams(5, 3))
        assert report.to_dict()["partition_ok"] is False
        assert not report.passed
        assert "partition failed: forced" in report.notes

    @pytest.mark.parametrize(
        "n,m,vertices,edges,cliques,expand_calls",
        [
            (5, 3, 10, 30, 15, 35),
            (6, 3, 20, 90, 30, 137),
            (9, 4, 126, 1260, 210, 2157),
            (12, 5, 792, 13860, 1419, 26126),
        ],
    )
    def test_phase_timings_and_counters(self, n, m, vertices, edges, cliques, expand_calls):
        # expand_calls is pinned: it counts every branch of the search,
        # including those settled in their parent. It depends on the order
        # in which the search branches, highest vertex first.
        p = JohnsonParams(n, m)
        report = verify(p)
        assert tuple(report.phase_seconds) == oracle.VERIFY_PHASES
        assert all(s >= 0 for s in report.phase_seconds.values())
        assert sum(report.phase_seconds.values()) == pytest.approx(report.elapsed_seconds)
        assert report.counters["vertices"] == vertex_count(p) == vertices
        assert report.counters["edges"] == edge_count(p) == edges
        assert report.counters["cliques_found"] == report.oracle_clique_count == cliques
        assert report.counters["expand_calls"] == expand_calls

    @pytest.mark.parametrize(
        "n,m,u,v,flag,note",
        [
            (5, 3, (1, 2, 3), (1, 4, 5), "intersection_sizes_ok",
             "clique [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 4, 5)] has intersection size 1"),
            (6, 3, (1, 2, 3), (4, 5, 6), "size_laws_ok",
             "clique with intersection size 0 has 2 members, expected 4"),
        ],
    )
    def test_broken_clique_laws_are_reported(self, monkeypatch, n, m, u, v, flag, note):
        # One extra symmetric edge between non-adjacent labels makes a
        # maximal clique that breaks the law named by ``flag``.
        real = oracle._build

        def build(p, max_vertices):
            labels, g = real(p, max_vertices)
            i, j = labels.index(u), labels.index(v)
            rows = list(g.rows)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            return labels, DenseGraph(g.vertex_count, tuple(rows))

        monkeypatch.setattr(oracle, "_build", build)
        report = verify(JohnsonParams(n, m))
        assert report.checks[flag] is False
        assert note in report.notes
        assert not report.passed

    def test_report_is_picklable(self):
        report = verify(JohnsonParams(4, 2))
        assert pickle.loads(pickle.dumps(report)) == report


class TestVerifyRange:
    def test_single_m_sweep(self):
        reports = list(verify_range([2], range(3, 9)))
        assert len(reports) == 6
        assert [(r.params.n, r.params.m) for r in reports] == [(n, 2) for n in range(3, 9)]
        assert all(r.passed for r in reports)

    def test_empty_range(self):
        assert list(verify_range([2], [])) == []
        assert list(verify_range([], range(3, 9))) == []
        assert list(verify_range([2], range(5, 3))) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pairs_over_the_cap_are_skipped(self, jobs):
        results = list(verify_range([2, 3], [6, 7], jobs=jobs, max_vertices=20))
        assert [(r.params.n, r.params.m) for r in results] == [(6, 2), (7, 2), (6, 3), (7, 3)]
        assert [type(r) for r in results] == [
            VerificationReport,
            SkippedPair,
            VerificationReport,
            SkippedPair,
        ]
        assert results[0].passed and results[2].passed
        assert results[1].to_dict() == {
            "n": 7,
            "m": 2,
            "skipped": "graph has 21 vertices, above the materialization cap 20",
        }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reads_the_cap_once_at_the_call(self, monkeypatch, jobs):
        # The cap in force at the call holds for every pair and every
        # worker, whatever the default is when the pairs are run.
        monkeypatch.setattr(oracle, "DEFAULT_MATERIALIZE_CAP", 5)
        results = verify_range([3], [4, 5], jobs=jobs)
        monkeypatch.setattr(oracle, "DEFAULT_MATERIALIZE_CAP", 2000)
        first, second = results
        assert isinstance(first, VerificationReport) and first.passed
        assert second == SkippedPair(
            JohnsonParams(5, 3), "graph has 10 vertices, above the materialization cap 5"
        )

    def test_results_stream_one_pair_at_a_time(self, monkeypatch):
        done = []
        real = oracle.verify
        monkeypatch.setattr(oracle, "verify", lambda p, cap: done.append(p) or real(p, cap))
        first = next(verify_range([2], range(3, 9)))
        assert first.params == JohnsonParams(3, 2)
        assert done == [JohnsonParams(3, 2)]

    def test_ranges_are_only_tested_with_in(self):
        class InOnly:
            """Answers ``in`` like ``values``; iterating it fails the test."""

            def __init__(self, values):
                self.values = values

            def __contains__(self, x):
                return x in self.values

            def __iter__(self):
                raise AssertionError("verify_range iterated a range argument")

        got = verify_range(InOnly(range(2, 10**12)), InOnly(range(3, 6)))
        want = verify_range(range(2, 62), range(3, 6))
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]

    def test_invalid_pairs_skipped(self):
        reports = verify_range([2, 3], [3, 4])
        assert [(r.params.n, r.params.m) for r in reports] == [(3, 2), (4, 2), (4, 3)]

    def test_worker_count_is_bounded(self, monkeypatch):
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
        assert oracle._worker_count(10**6, 27) == 2
        assert oracle._worker_count(10**6, 1) == 1
        assert oracle._worker_count(1, 27) == 1
        assert oracle._worker_count(0, 27) == 0
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
        assert oracle._worker_count(8, 27) == 1

    @pytest.mark.parametrize(
        "knobs", [{"jobs": 0}, {"jobs": -2}, {"max_vertices": 0}, {"max_vertices": -1}]
    )
    def test_knobs_below_1_are_refused_at_the_call(self, monkeypatch, knobs):
        checked = []
        monkeypatch.setattr(oracle, "verify", lambda p, cap: checked.append(p))
        with pytest.raises(ValidationError, match="must be at least 1"):
            verify_range([2], [4, 5], **knobs)
        assert checked == []

    @pytest.mark.parametrize(
        "knobs",
        [{"jobs": 1.5}, {"jobs": "2"}, {"jobs": True}, {"max_vertices": 10.5}, {"max_vertices": True}],
    )
    def test_knobs_that_are_not_ints_are_refused_at_the_call(self, monkeypatch, knobs):
        checked = []
        monkeypatch.setattr(oracle, "verify", lambda p, cap: checked.append(p))
        with pytest.raises(ValidationError, match="must be an int"):
            verify_range([2], [4, 5], **knobs)
        assert checked == []

    def test_parallel_matches_serial(self):
        serial = verify_range([2, 3], range(4, 7), jobs=1)
        parallel = verify_range([2, 3], range(4, 7), jobs=3)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_base_case_sizes_for_pair_labels(self, oracle_cache):
        # every maximal clique of the m=2 graphs has 3 or n-1 vertices,
        # matching intersection sizes 0 and 1
        for n in range(3, 10):
            _, labels, cliques = oracle_cache(n, 2)
            for cl in cliques:
                members = [labels[i] for i in cl]
                inter = set.intersection(*(set(lab) for lab in members))
                if len(inter) == 0:
                    assert len(cl) == 3
                else:
                    assert len(inter) == 1
                    assert len(cl) == n - 1


class TestOracleAgainstClosedForm:
    @pytest.mark.parametrize("n,m", [(4, 2), (5, 2), (5, 3), (6, 3)])
    def test_label_cliques_match_subset_enumeration(self, n, m, oracle_cache):
        if vertex_count(JohnsonParams(n, m)) <= 12:
            _, labels, cliques = oracle_cache(n, m)
            got = sorted(
                (sorted(labels[i] for i in cl) for cl in cliques), key=repr
            )
            expected = sorted((sorted(cl) for cl in naive_label_cliques(n, m)), key=repr)
            assert got == expected

    def test_full_range_passes(self):
        for n, m in ACCEPTANCE_PAIRS:
            assert verify(JohnsonParams(n, m)).passed


class TestSecondOracle:
    @pytest.mark.parametrize("n,m", ACCEPTANCE_PAIRS + DEGENERATE_PAIRS)
    def test_networkx_finds_the_same_cliques(self, n, m, oracle_cache):
        nx = pytest.importorskip("networkx")
        g, _, cliques = oracle_cache(n, m)
        nv = g.vertex_count
        graph = nx.Graph()
        graph.add_nodes_from(range(nv))
        graph.add_edges_from((i, j) for i in range(nv) for j in range(i + 1, nv) if g.adjacent(i, j))
        assert sorted(tuple(sorted(cl)) for cl in nx.find_cliques(graph)) == cliques
