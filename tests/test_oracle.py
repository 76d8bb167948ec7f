import ast
import pickle
import random
import re
import time
from itertools import combinations, count
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import johnson_cliques
import johnson_cliques.combinat as combinat
import johnson_cliques.oracle as oracle
from johnson_cliques import (
    CliquePartition,
    DenseGraph,
    JohnsonParams,
    MaximalClique,
    RangeError,
    SkippedPair,
    ValidationError,
    VerificationReport,
    binomial,
    clique_partition,
    edge_count,
    enumerate_min_cliques,
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


def row_bits(g):
    """The adjacency test of ``g`` that naive_maximal_cliques() takes: bit j of row i."""
    return lambda i, j: (g.rows[i] >> j) & 1


def assert_all_maximal(g, cliques):
    """Every reported clique really is one, and no vertex extends it."""
    for cl in cliques:
        for i, j in combinations(cl, 2):
            assert (g.rows[i] >> j) & 1
        inside = set(cl)
        for u in range(g.vertex_count):
            if u not in inside:
                assert not all((g.rows[u] >> w) & 1 for w in cl)


class TestDenseGraph:
    def test_symmetry_enforced(self):
        with pytest.raises(ValidationError):
            DenseGraph((0b10, 0b00))

    def test_self_loops_rejected(self):
        with pytest.raises(ValidationError):
            DenseGraph((0b1,))

    def test_stray_bits_rejected(self):
        with pytest.raises(ValidationError):
            DenseGraph((0b100, 0b000))

    @pytest.mark.parametrize(
        "rows",
        [[0, 0], (False,), (0, 1.0), ("0",)],
        ids=["list", "bool_row", "float_row", "str_row"],
    )
    def test_input_of_the_wrong_type_rejected(self, rows):
        with pytest.raises(ValidationError):
            DenseGraph(rows)

    @pytest.mark.parametrize("row", [1.5, "x", None, [0b01]], ids=["float", "str", "none", "list"])
    def test_a_later_row_is_type_checked_before_it_is_read(self, row):
        # Row 0 lists vertex 1, so a check that reads row 1 for row 0's
        # mirror before row 1's own type check raises TypeError.
        with pytest.raises(ValidationError, match=r"^row 1 is not an int"):
            DenseGraph((0b10, row))

    def test_vertex_count_is_the_number_of_rows(self):
        assert DenseGraph(()).vertex_count == 0
        assert DenseGraph((0b10, 0b01, 0)).vertex_count == 3

    def test_edge_total(self):
        g = DenseGraph((0b110, 0b101, 0b011))
        assert g.edge_total() == 3

    def test_missing_mirror_of_a_later_bit_is_named(self):
        with pytest.raises(ValidationError, match=r"adjacency not symmetric at \(0, 1\)$"):
            DenseGraph((0b010, 0, 0))

    def test_missing_mirror_of_an_earlier_bit_is_named(self):
        # Row 1 lists vertex 0, which row 0 does not list back.
        with pytest.raises(ValidationError, match=r"adjacency not symmetric at \(1, 0\)$"):
            DenseGraph((0, 0b001, 0))

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
        assert DenseGraph(tuple(rows)).rows == tuple(rows)
        i, j = data.draw(st.sampled_from([(i, j) for i in range(nv) for j in range(nv) if i != j]))
        rows[i] ^= 1 << j
        with pytest.raises(ValidationError) as raised:
            DenseGraph(tuple(rows))
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
            assert DenseGraph(tuple(rows)).rows == tuple(rows)
            return
        with pytest.raises(ValidationError) as raised:
            DenseGraph(tuple(rows))
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
        assert all((g.rows[i] >> j) & 1 for i in range(3) for j in range(3) if i != j)

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
            assert (g.rows[i] >> j) & 1 == expected

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
        labels, walk = _swap_walk(p)
        rows = [0] * len(labels)
        for i, later in enumerate(walk(range(len(labels)))):
            for j in later:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        assert materialize(p).rows == tuple(rows)

    @pytest.mark.parametrize("n,m", ACCEPTANCE_PAIRS + DEGENERATE_PAIRS + [(12, 4), (13, 4), (12, 5)])
    def test_definition_rows_pass_the_symmetry_pass(self, n, m):
        # verify() computes on its rows without DenseGraph's symmetry pass,
        # because they are symmetric by construction; this re-check takes
        # its place.
        labels, rows = oracle._build(JohnsonParams(n, m), None)
        assert DenseGraph(oracle._definition_rows(labels)).rows == rows

    def test_verify_skips_the_symmetry_pass_and_materialize_keeps_it(self, monkeypatch):
        def refuse(self):
            raise ValidationError("the symmetry pass ran")

        monkeypatch.setattr(DenseGraph, "__post_init__", refuse)
        assert verify(JohnsonParams(5, 3)).passed
        with pytest.raises(ValidationError, match="the symmetry pass ran"):
            materialize(JohnsonParams(5, 3))

    def test_verify_builds_no_dense_graph(self, monkeypatch):
        # verify() and verify_range() compute on the rows themselves.
        def refuse(*args, **kwargs):
            raise AssertionError("a DenseGraph was built")

        monkeypatch.setattr(oracle, "DenseGraph", refuse)
        for n, m in [(5, 3), (4, 3), (9, 4)]:
            assert verify(JohnsonParams(n, m)).passed
        reports = list(verify_range(range(2, 5), range(3, 10), jobs=1))
        assert len(reports) == 18 and all(r.passed for r in reports)

    @pytest.mark.parametrize("n,m", [(40, 10), (62, 2)])
    def test_definition_rows_of_a_link(self, n, m):
        # The link of rank 0 is every label that shares m-1 elements with
        # it, far from all of C(n, m): its rows must be the pairwise rows.
        v = unrank(0, n, m)
        outside = [y for y in range(1, n + 1) if y not in v]
        link = sorted({tuple(sorted(rest + (y,))) for rest in combinations(v, m - 1)
                       for y in outside})
        assert len(link) == m * (n - m)
        rows = oracle._definition_rows(link)
        assert rows == tuple(
            sum(1 << j for j, b in enumerate(link) if len(set(a) & set(b)) == m - 1) for a in link
        )
        assert DenseGraph(rows).edge_total() == len(link) * (n - 2) // 2


BITS_2000 = [1 << i for i in range(2000)]


class TestMaskVertices:
    @given(st.integers(0, (1 << 2000) - 1))
    def test_round_trip(self, mask):
        got = oracle._mask_vertices(mask, BITS_2000)
        assert list(got) == sorted(set(got))
        assert sum(1 << i for i in got) == mask


def random_edges(nv, density, seed):
    """Each pair is an edge with probability ``density``; the edges come
    from a seeded generator, so each hypothesis example stays small."""
    rng = random.Random(seed)
    return [(i, j) for i, j in combinations(range(nv), 2) if rng.random() < density]


def assert_matches_networkx(nv, edges):
    """maximal_cliques agrees with networkx on the graph with these edges."""
    nx = pytest.importorskip("networkx")
    rows = [0] * nv
    graph = nx.Graph()
    graph.add_nodes_from(range(nv))
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        graph.add_edge(i, j)
    got = maximal_cliques(DenseGraph(tuple(rows)))
    assert got == sorted(tuple(sorted(cl)) for cl in nx.find_cliques(graph))


TRIANGLE = DenseGraph((0b110, 0b101, 0b011))
# Vertices i and 5 - i are the octahedron's only non-adjacent pairs.
OCTAHEDRON = DenseGraph(tuple(0b111111 & ~(1 << i) & ~(1 << (5 - i)) for i in range(6)))
# One triangle per antipodal choice that the class-min family of J(4,2) makes.
OCTAHEDRON_PARTITION = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]


def covers_each_edge_once(cliques, g):
    bits = [1 << i for i in range(g.vertex_count)]
    return oracle._cover(cliques, bits) == (g.rows, g.edge_total())


class TestCoversEachEdgeOnce:
    def test_exact_covers_pass(self):
        assert covers_each_edge_once([(0, 1, 2)], TRIANGLE)
        assert covers_each_edge_once([(0, 1), (0, 2), (1, 2)], TRIANGLE)
        assert covers_each_edge_once(OCTAHEDRON_PARTITION, OCTAHEDRON)
        edge_pairs = [(i, j) for i, j in combinations(range(6), 2) if i + j != 5]
        assert covers_each_edge_once(edge_pairs, OCTAHEDRON)

    def test_missing_edge_fails(self):
        assert not covers_each_edge_once([(0, 1), (0, 2)], TRIANGLE)
        assert not covers_each_edge_once(OCTAHEDRON_PARTITION[1:], OCTAHEDRON)

    def test_edge_covered_twice_fails(self):
        assert not covers_each_edge_once([(0, 1, 2), (0, 1)], TRIANGLE)
        twice = OCTAHEDRON_PARTITION + [(0, 1)]
        assert not covers_each_edge_once(twice, OCTAHEDRON)

    def test_non_edge_pair_fails(self):
        non_edge = OCTAHEDRON_PARTITION + [(0, 5)]
        assert not covers_each_edge_once(non_edge, OCTAHEDRON)

    def test_right_pair_count_with_an_edge_uncovered_fails(self):
        # One clique twice in place of another: the cliques still count
        # exactly |E| pairs, but one pair twice and some edge not at all.
        assert not covers_each_edge_once([(0, 1), (0, 1), (0, 2)], TRIANGLE)
        twice = OCTAHEDRON_PARTITION[1:] + OCTAHEDRON_PARTITION[1:2]
        assert not covers_each_edge_once(twice, OCTAHEDRON)

    def test_member_listed_twice_fails(self):
        # (0, 0, 1) counts C(3, 2) = 3 pairs, the triangle's edge total, but
        # covers only the edge 01.
        assert not covers_each_edge_once([(0, 0, 1)], TRIANGLE)


class TestMaximalCliques:
    def test_complete_triangle(self):
        g = DenseGraph((0b110, 0b101, 0b011))
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

    @pytest.mark.parametrize("g", [5, None, ((0b10, 0b01),)])
    def test_non_graph_is_refused(self, g):
        with pytest.raises(ValidationError, match="expected a DenseGraph"):
            maximal_cliques(g)

    def test_empty_graph(self):
        assert maximal_cliques(DenseGraph(())) == []
        assert maximal_cliques(DenseGraph((0, 0, 0))) == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)])
    def test_matches_subset_enumeration(self, n, m):
        assert vertex_count(JohnsonParams(n, m)) <= 12
        g = materialize(JohnsonParams(n, m))
        got = maximal_cliques(g)
        assert got == naive_maximal_cliques(g.vertex_count, row_bits(g))

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
        g = DenseGraph(tuple(rows))
        got = maximal_cliques(g)
        assert got == naive_maximal_cliques(nv, row_bits(g))
        assert_all_maximal(g, got)

    @given(st.integers(31, 70), st.floats(0.05, 0.5), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx_past_one_int_digit(self, nv, density, seed):
        # Row masks of more than 30 vertices span several int digits.
        assert_matches_networkx(nv, random_edges(nv, density, seed))

    @given(st.integers(31, 38), st.floats(0.5, 0.95), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx_on_dense_graphs(self, nv, density, seed):
        # Dense graphs leave many search nodes whose candidates form a
        # clique, which the search settles without branching. The number
        # of maximal cliques grows fast with density, so the graphs stay
        # below 39 vertices.
        assert_matches_networkx(nv, random_edges(nv, density, seed))

    @given(st.integers(20, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx_on_unions_of_cliques(self, nv, count, seed):
        # A few random cliques laid over each other leave many search nodes
        # whose candidates split into cliques with no edge between them.
        rng = random.Random(seed)
        edges = set()
        for _ in range(count):
            edges.update(combinations(sorted(rng.sample(range(nv), rng.randint(2, 8))), 2))
        assert_matches_networkx(nv, sorted(edges))

    def test_excluded_vertex_dominating_a_clique_of_candidates(self):
        # {0, 1, 2, 6} is a K4, and 5 is adjacent to 1, 2, 3 and 4. The root
        # pivots on 5 and branches on 6, 5, then 0. The branch on 0 has the
        # clique {1, 2} for candidates, but 6, excluded, is adjacent to both:
        # {0, 1, 2} is no maximal clique, and must not be reported.
        edges = [(0, 1), (0, 2), (0, 6), (1, 2), (1, 5), (1, 6), (2, 5), (2, 6), (3, 5), (4, 5)]
        rows = [0] * 7
        for i, j in edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        g = DenseGraph(tuple(rows))
        assert maximal_cliques(g) == [(0, 1, 2, 6), (1, 2, 5), (3, 5), (4, 5)]
        assert maximal_cliques(g) == naive_maximal_cliques(7, row_bits(g))

    def test_excluded_vertex_dominating_one_of_two_cliques_of_candidates(self):
        # 6 is adjacent to 1, 2, 3, 4, 7 and 8, the most of any vertex, so
        # the root pivots on it and branches on 6, 5, then 0. The branch on
        # 6 has the cliques {8}, {7}, {3, 4} and {1, 2} for candidates, and
        # reports all four. The branch on 0 has {3, 4} and {1, 2}, with no
        # edge between them, but 5, excluded, is adjacent to 1 and 2: only
        # {0, 3, 4} is reported there, since {0, 1, 2} lies in {0, 1, 2, 5}.
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (1, 6), (2, 5),
                 (2, 6), (3, 4), (3, 6), (4, 6), (6, 7), (6, 8)]
        rows = [0] * 9
        for i, j in edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        g = DenseGraph(tuple(rows))
        assert maximal_cliques(g) == [
            (0, 1, 2, 5), (0, 3, 4), (1, 2, 6), (3, 4, 6), (6, 7), (6, 8)
        ]
        assert maximal_cliques(g) == naive_maximal_cliques(9, row_bits(g))
        # The root, four leaves under 6, one under 5 and two under 0.
        assert oracle._bron_kerbosch(g.rows, [1 << i for i in range(9)])[1] == 8

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

    @pytest.mark.parametrize(
        "breaking",
        [
            # One part repeated in place of the last: the part count and the
            # counted edges stay right, one edge is covered twice.
            lambda parts: (parts[0],) + parts[:-1],
            # Every edge still covered once, but not in the family's order.
            lambda parts: parts[::-1],
            lambda parts: tuple(enumerate_min_cliques(JohnsonParams(5, 3))),
            lambda parts: parts[1:],
        ],
        ids=["repeated", "reversed", "class_min", "first_dropped"],
    )
    def test_partition_coverage_checked_edge_by_edge(self, monkeypatch, breaking):
        # J(5,3) is partitioned by its class-max family.
        broken = CliquePartition(breaking(clique_partition(JohnsonParams(5, 3)).parts))
        monkeypatch.setattr("johnson_cliques.cliques.clique_partition", lambda p: broken)
        report = verify(JohnsonParams(5, 3))
        assert not report.checks["partition_ok"]
        assert not report.passed
        assert sum(note.startswith("partition failed: ") for note in report.notes) == 1

    def test_partition_note_names_its_witness(self, monkeypatch):
        # A partition that drops its last part: one note gives the part
        # count, clique_partition_number() and each family's size.
        parts = clique_partition(JohnsonParams(5, 3)).parts[:-1]
        monkeypatch.setattr("johnson_cliques.cliques.clique_partition",
                            lambda p: CliquePartition(parts))
        report = verify(JohnsonParams(5, 3))
        assert not report.checks["partition_ok"]
        assert report.notes == (
            "partition failed: part count 9, clique_partition_number gives 10; "
            "family sizes: class-min 5, class-max 10",
        )

    def test_wrong_edge_count_fails_only_the_edge_law(self, monkeypatch):
        # The partition is judged by the family covers, not by edge_count().
        # Every family cover passes, so the one note names the count alone.
        monkeypatch.setattr("johnson_cliques.graph.edge_count", lambda p: edge_count(p) + 1)
        report = verify(JohnsonParams(5, 3))
        assert not report.checks["edge_law_ok"]
        assert report.notes == ("edge law failed: edge_count gives 31, the graph has 30 edges",)
        assert report.checks["partition_ok"]
        assert not report.passed

    @pytest.mark.parametrize(
        "family,name,note",
        [
            ("enumerate_min_cliques", "class-min",
             "class-min family has 4 cliques, expected C(5,4)"),
            ("enumerate_max_cliques", "class-max",
             "class-max family has 9 cliques, expected C(5,2)"),
        ],
        ids=["enumerate_min_cliques", "enumerate_max_cliques"],
    )
    def test_dropped_clique_is_reported(self, monkeypatch, family, name, note):
        # Each family's first clique holds {1,2,3} and {1,2,4}, the first
        # pair of vertices; with it gone, nothing covers their edge.
        real = getattr(johnson_cliques, family)
        patched = f"johnson_cliques.cliques.{family}"
        monkeypatch.setattr(patched, lambda p: list(real(p))[1:])
        report = verify(JohnsonParams(5, 3))
        assert not report.checks["sets_equal"]
        assert not report.checks["edge_law_ok"]
        assert not report.passed
        assert note in report.notes
        assert [n for n in report.notes if n.startswith("edge law failed: ")] == [
            f"edge law failed: {name} family leaves the edge between (1, 2, 3) and (1, 2, 4) "
            "uncovered"
        ]

    @pytest.mark.parametrize(
        "family,edge_note,partition_notes",
        [
            # A clique of class min has 4 members, 6 pairs; of class max, 3.
            ("enumerate_min_cliques",
             "edge law failed: class-min family counts 36 pairs, the graph has 30 edges", ()),
            # J(5,3) is partitioned by its class-max family, which the
            # duplicate no longer equals.
            ("enumerate_max_cliques",
             "edge law failed: class-max family counts 33 pairs, the graph has 30 edges", (
                "partition failed: part count 10, clique_partition_number gives 10; "
                "family sizes: class-min 5, class-max 11",
            )),
        ],
        ids=["enumerate_min_cliques", "enumerate_max_cliques"],
    )
    def test_duplicated_clique_is_reported(self, monkeypatch, family, edge_note, partition_notes):
        # The duplicate leaves the set of cliques and its size unchanged;
        # only the edge law sees that its edges are covered twice: every
        # edge is covered, and the pair count is too high.
        real = getattr(johnson_cliques, family)
        patched = f"johnson_cliques.cliques.{family}"
        monkeypatch.setattr(patched, lambda p: [*real(p), next(real(p))])
        report = verify(JohnsonParams(5, 3))
        assert report.checks["sets_equal"]
        assert not report.checks["edge_law_ok"]
        assert not report.passed
        assert report.notes == (edge_note, *partition_notes)

    def test_wrong_clique_number_is_reported(self, monkeypatch):
        real = johnson_cliques.clique_number
        monkeypatch.setattr("johnson_cliques.cliques.clique_number", lambda p: real(p) + 1)
        report = verify(JohnsonParams(5, 3))
        assert report.to_dict()["clique_number_ok"] is False
        assert not report.passed
        assert "observed maximum clique size 4, formula gives 5" in report.notes

    def test_overlapping_families_are_reported(self, monkeypatch):
        # The class-max family replaced by the class-min one: the two
        # overlap, and the class-max count is C(5,4), not C(5,2).
        monkeypatch.setattr("johnson_cliques.cliques.enumerate_max_cliques", enumerate_min_cliques)
        report = verify(JohnsonParams(5, 3))
        assert report.to_dict()["sets_equal"] is False
        assert not report.passed
        assert "class-min and class-max families overlap; they must be disjoint" in report.notes
        assert "class-max family has 5 cliques, expected C(5,2)" in report.notes

    def test_partition_reuse_cannot_hide_a_member_fault(self, monkeypatch):
        # The partition of J(5,3) is the class-max family, so its check
        # reuses that family's edge-law verdict. A member dropped from the
        # family's first clique must fail both checks.
        p = JohnsonParams(5, 3)
        first = clique_partition(p).parts[0]
        real = MaximalClique.members
        monkeypatch.setattr(
            MaximalClique, "members", lambda h: real(h)[1:] if h == first else real(h)
        )
        report = verify(p)
        assert not report.checks["edge_law_ok"]
        assert not report.checks["partition_ok"]
        assert not report.passed

    @pytest.mark.parametrize(
        "doubling",
        [lambda real: real + real[-1:], lambda real: real[:1] + real],
        ids=["last_twice", "first_twice"],
    )
    @pytest.mark.parametrize("n,m", [(5, 3), (6, 3), (9, 4)])
    def test_member_listed_twice_is_reported(self, monkeypatch, doubling, n, m):
        # A clique that lists one member twice is not an oracle clique, and
        # counts more pairs than it covers; it is reported, not raised.
        real = MaximalClique.members
        monkeypatch.setattr(MaximalClique, "members", lambda h: doubling(real(h)))
        report = verify(JohnsonParams(n, m))
        assert not report.checks["sets_equal"]
        assert not report.checks["edge_law_ok"]
        assert not report.passed

    @pytest.mark.parametrize(
        "stray,note",
        [
            (lambda real: real[:-1] + ((1, 2, 9),),
             "class-max family lists (1, 2, 9), which is not a vertex label"),
            (lambda real: real[:-1] + (list(real[-1]),),
             "class-min family lists [2, 3, 4], which is not a vertex label"),
            (lambda real: real + ((1, 2, 9),),
             "class-min family lists (1, 2, 9), which is not a vertex label"),
        ],
        ids=["unknown_label", "list_member", "extra_unknown_label"],
    )
    def test_member_that_is_not_a_vertex_label_is_reported(self, monkeypatch, stray, note):
        # A member that is not a vertex label, unknown or unhashable, is
        # reported by name, not raised from the label lookup as KeyError or
        # TypeError, which ended a whole sweep. Left out of its tuple, a
        # stray added to a real clique leaves that clique whole: the family
        # fails on the stray alone.
        real = MaximalClique.members
        monkeypatch.setattr(MaximalClique, "members", lambda h: stray(real(h)))
        report = verify(JohnsonParams(5, 3))
        assert not report.checks["sets_equal"]
        assert not report.checks["edge_law_ok"]
        assert not report.passed
        assert note in report.notes
        # Each family lists the stray, so neither cover is built.
        assert [n for n in report.notes if n.startswith("edge law failed: ")] == [
            f"edge law failed: {name} family lists a member that is not a vertex label"
            for name in ("class-min", "class-max")
        ]

    def test_members_in_another_order_pass(self, monkeypatch):
        # The families are compared with the oracle on membership alone.
        real = MaximalClique.members
        monkeypatch.setattr(MaximalClique, "members", lambda h: tuple(reversed(real(h))))
        for n, m in [(5, 3), (6, 3), (9, 4)]:
            assert verify(JohnsonParams(n, m)).passed

    def test_colex_stepper_fault_is_reported(self, monkeypatch):
        # The enumerations take their sets from combinat._colex_runs(); the
        # oracle sorts its labels out of combinations(). A stepper that drops
        # the last set of every run longer than one must fail verify.
        real = combinat._colex_runs

        def dropping(*args):
            for prefixes, rest in real(*args):
                yield (prefixes[:-1] if len(prefixes) > 1 else prefixes), rest

        monkeypatch.setattr(combinat, "_colex_runs", dropping)
        report = verify(JohnsonParams(9, 4))
        assert report.oracle_clique_count == 210
        assert not report.checks["sets_equal"]
        assert not report.passed

    @pytest.mark.parametrize(
        "n,m,vertices,edges,cliques,expand_calls",
        [
            (5, 3, 10, 30, 15, 25),
            (6, 3, 20, 90, 30, 81),
            (9, 4, 126, 1260, 210, 1280),
            (12, 5, 792, 13860, 1419, 15536),
        ],
    )
    def test_phase_timings_and_counters(self, n, m, vertices, edges, cliques, expand_calls):
        # expand_calls is pinned: it counts every node of the search tree,
        # including branches settled in their parent. It depends on the
        # order in which the search branches, highest vertex first, on the
        # pivot coming from the candidates alone, and on a node whose
        # candidates split into k cliques with no edge between them
        # counting as k leaves.
        p = JohnsonParams(n, m)
        report = verify(p)
        assert tuple(report.phase_seconds) == oracle.VERIFY_PHASES
        assert all(s >= 0 for s in report.phase_seconds.values())
        assert report.counters["vertices"] == vertex_count(p) == vertices
        assert report.counters["edges"] == edge_count(p) == edges
        assert report.counters["cliques_found"] == report.oracle_clique_count == cliques
        assert report.counters["expand_calls"] == expand_calls

    def test_each_phase_is_one_lap_of_the_clock(self, monkeypatch):
        # cli verify sums phase_seconds over pairs: a phase timed twice, or
        # work between two phases, would misreport that sum.
        reads = count()
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(reads)))
        report = verify(JohnsonParams(5, 3))
        assert report.phase_seconds == {phase: 1.0 for phase in oracle.VERIFY_PHASES}
        assert next(reads) == len(oracle.VERIFY_PHASES) + 1

    @staticmethod
    def _verify_with_extra_edges(monkeypatch, p, extra):
        # Extra symmetric edges between non-adjacent labels make maximal
        # cliques that break the clique laws.
        real = oracle._build

        def build(p, max_vertices):
            labels, rows = real(p, max_vertices)
            rows = list(rows)
            for u, v in extra:
                i, j = labels.index(u), labels.index(v)
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            return labels, DenseGraph(tuple(rows)).rows

        monkeypatch.setattr(oracle, "_build", build)
        return verify(p)

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
        # One extra edge makes a maximal clique that breaks the law named by ``flag``.
        report = self._verify_with_extra_edges(monkeypatch, JohnsonParams(n, m), [(u, v)])
        assert report.checks[flag] is False
        assert note in report.notes
        assert not report.passed

    @pytest.mark.parametrize(
        "u,v,fault",
        [((1, 2, 3), (1, 4, 5), "leaves the edge between (1, 2, 3) and (1, 4, 5) uncovered"),
         ((1, 2, 3), (1, 2, 4), "covers (1, 2, 3) and (1, 2, 4), which are not adjacent")],
        ids=["extra_bit", "dropped_bit"],
    )
    def test_one_sided_row_fault_fails_verify(self, monkeypatch, u, v, fault):
        # verify()'s rows skip the symmetry pass, so a row build that flips
        # bit v of row u alone must fail the checks, not slip through.
        real = oracle._build

        def build(p, max_vertices):
            labels, rows = real(p, max_vertices)
            rows = list(rows)
            rows[labels.index(u)] ^= 1 << labels.index(v)
            return labels, tuple(rows)

        monkeypatch.setattr(oracle, "_build", build)
        report = verify(JohnsonParams(5, 3))
        assert not report.passed
        assert {key for key, ok in report.checks.items() if not ok} >= {
            "sets_equal", "intersection_sizes_ok", "edge_law_ok", "partition_ok"
        }
        # Each family's cover names the first pair whose bit it disagrees on.
        for name in ("class-min", "class-max"):
            assert f"edge law failed: {name} family {fault}" in report.notes

    def test_clique_notes_follow_maximal_cliques_order(self, monkeypatch):
        # The search finds these two faulty cliques in the reverse of their
        # maximal_cliques() order; the notes follow maximal_cliques().
        extra = [((1, 2, 3), (1, 4, 5)), ((1, 2, 4), (1, 3, 5))]
        report = self._verify_with_extra_edges(monkeypatch, JohnsonParams(5, 3), extra)
        assert report.checks["intersection_sizes_ok"] is False
        assert [note for note in report.notes if note.startswith("clique ")] == [
            "clique [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (1, 4, 5)] has intersection size 1",
            "clique [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 5), (1, 4, 5)] has intersection size 1",
        ]

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

    @pytest.mark.parametrize("m_values,n_values", [(2, 4), (None, [4]), ([], None), ([2], "4")])
    def test_ranges_that_cannot_answer_in_are_refused_at_the_call(
        self, monkeypatch, m_values, n_values
    ):
        checked = []
        monkeypatch.setattr(oracle, "verify", lambda p, cap: checked.append(p))
        with pytest.raises(ValidationError, match="must answer 'in' for ints"):
            verify_range(m_values, n_values)
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
        graph.add_edges_from(
            (i, j) for i in range(nv) for j in range(i + 1, nv) if (g.rows[i] >> j) & 1
        )
        assert sorted(tuple(sorted(cl)) for cl in nx.find_cliques(graph)) == cliques


# The oracle is the independent check of the closed forms: it must reach
# none of the code that builds what it checks.
CHECKED_CODE = {
    "_swap_walk", "_colex_runs", "_colex_values", "iter_subsets_colex", "_insertions",
    "neighbors", "are_adjacent", "rank", "unrank", "binomial",
}


def test_oracle_reaches_none_of_the_code_it_checks():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert {"combinations", "colex_key", "bit_count"} <= names
    assert not names & CHECKED_CODE, sorted(names & CHECKED_CODE)


# The closed forms verify() checks, by the module that defines each.
CHECKED_CLOSED_FORMS = {
    ("cliques", "enumerate_min_cliques"),
    ("cliques", "enumerate_max_cliques"),
    ("cliques", "clique_number"),
    ("cliques", "clique_partition"),
    ("cliques", "clique_partition_number"),
    ("graph", "edge_count"),
}


def test_oracle_looks_each_closed_form_up_in_its_own_module():
    # An import binds a second name for a function, which a patch applied
    # where the function is defined never reaches; a module attribute is read
    # at the call. So every module but __init__ (the public API) and __main__
    # imports its siblings as modules, and binds no name to their attributes.
    package = Path(oracle.__file__).parent
    siblings = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    for module in sorted(siblings):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = {alias.name for alias in node.names}
                assert node.module in (None, "errors"), (module, node.module, sorted(names))
                assert node.module or names <= siblings, (module, sorted(names - siblings))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported = [node.module] if isinstance(node, ast.ImportFrom) else []
                imported += [alias.name for alias in node.names]
                assert not any(name.startswith("johnson_cliques") for name in imported), module
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                values = getattr(node.value, "elts", [node.value])
                bound = [
                    ast.unparse(value) for value in values
                    if isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id in siblings
                ]
                assert not bound, (module, bound)

    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            read.add((node.value.id, node.attr))
    assert not imported & {name for _, name in CHECKED_CLOSED_FORMS}
    assert {"cliques", "graph"} <= imported
    assert CHECKED_CLOSED_FORMS <= read, sorted(CHECKED_CLOSED_FORMS - read)
