import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from johnson_cliques import (
    Edge,
    JohnsonParams,
    RangeError,
    ValidationError,
    are_adjacent,
    edge_count,
    edges,
    export,
    make_label,
    neighbors,
    rank,
    vertex_count,
)
import johnson_cliques.graph as graph
from johnson_cliques.combinat import _CHUNK_LINES
from johnson_cliques.graph import _swap_walk
from helpers import (
    ACCEPTANCE_PAIRS,
    DEGENERATE_PAIRS,
    colex_subsets,
    quadratic_edges,
    swap_adjacent,
    swap_neighbors,
)


class WriteRecorder(io.BytesIO):
    """A byte sink that records the size of each non-empty write."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes: list[int] = []

    def write(self, data) -> int:
        if data:
            self.sizes.append(len(data))
        return super().write(data)


# The clique-queries bench sizes, plus the extreme label sizes at n = 62.
QUERY_SIZES = [(24, 6), (48, 12), (62, 31), (62, 2), (62, 61)]


@st.composite
def query_labels(draw):
    n, m = draw(st.sampled_from(QUERY_SIZES))
    order = draw(st.permutations(range(1, n + 1)))
    return n, m, tuple(sorted(order[:m]))


class TestParams:
    def test_degenerate_boundary_accepted(self):
        assert JohnsonParams(3, 2).degenerate
        assert JohnsonParams(4, 3).degenerate
        assert not JohnsonParams(4, 2).degenerate

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (4, 4), (5, 5)])
    def test_invalid_rejected(self, n, m):
        with pytest.raises(ValidationError):
            JohnsonParams(n, m)

    def test_ground_set_bound(self):
        JohnsonParams(62, 2)
        with pytest.raises(RangeError):
            JohnsonParams(63, 2)


class TestCounts:
    def test_vertex_count_examples(self):
        assert vertex_count(JohnsonParams(4, 2)) == 6
        assert vertex_count(JohnsonParams(5, 3)) == 10
        assert vertex_count(JohnsonParams(9, 4)) == 126

    @pytest.mark.parametrize(
        "n,m,expected",
        [(4, 2, 12), (5, 3, 30), (3, 2, 3)],
    )
    def test_edge_count_examples(self, n, m, expected):
        # frozen from the quadratic pair scan below
        labels = colex_subsets(n, m)
        assert len(quadratic_edges(labels)) == expected
        assert edge_count(JohnsonParams(n, m)) == expected

    def test_edge_count_matches_pair_scan(self):
        for m in (2, 3, 4):
            for n in range(m + 1, 9):
                labels = colex_subsets(n, m)
                assert edge_count(JohnsonParams(n, m)) == len(quadratic_edges(labels))


class TestAdjacency:
    def test_examples(self):
        assert are_adjacent((1, 2), (1, 3))
        assert not are_adjacent((1, 2), (3, 4))
        assert not are_adjacent((1, 2, 3), (1, 4, 5))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            are_adjacent((1, 2), (1, 2, 3))

    def test_labels_beyond_ground_set_bound_rejected(self):
        with pytest.raises(ValidationError):
            are_adjacent((1, 100), (1, 101))

    def test_self_not_adjacent(self):
        assert not are_adjacent((1, 2), (1, 2))

    @given(
        st.frozensets(st.integers(1, 12), min_size=3, max_size=3),
        st.frozensets(st.integers(1, 12), min_size=3, max_size=3),
    )
    def test_symmetry(self, a, b):
        la, lb = make_label(a), make_label(b)
        assert are_adjacent(la, lb) == are_adjacent(lb, la)


class TestNeighbors:
    def test_examples(self):
        got = neighbors((1, 2), JohnsonParams(4, 2))
        assert got == [(1, 3), (2, 3), (1, 4), (2, 4)]
        assert len(neighbors((1, 2, 3), JohnsonParams(5, 3))) == 6
        assert neighbors((1, 2), JohnsonParams(3, 2)) == [(1, 3), (2, 3)]

    def test_matches_filter_of_all_labels(self):
        for n, m in [(4, 2), (5, 3), (6, 3), (6, 4)]:
            labels = colex_subsets(n, m)
            p = JohnsonParams(n, m)
            for u in labels:
                expected = [v for v in labels if v != u and swap_adjacent(u, v)]
                assert neighbors(u, p) == expected

    def test_degree_regularity(self):
        for m in (2, 3, 4):
            for n in range(m + 1, 10):
                p = JohnsonParams(n, m)
                total = 0
                for u in colex_subsets(n, m):
                    deg = len(neighbors(u, p))
                    assert deg == m * (n - m)
                    total += deg
                assert total == 2 * edge_count(p)

    def test_label_validated(self):
        with pytest.raises(ValidationError):
            neighbors((1, 5), JohnsonParams(4, 2))

    @pytest.mark.parametrize("n,m", ACCEPTANCE_PAIRS + DEGENERATE_PAIRS)
    def test_matches_bulk_swap_walk(self, n, m):
        # the per-query path and the bulk path behind edges() and export:
        # given the ranks, the walk yields, for vertex i, the ranks of
        # neighbors(u) above i, ascending
        p = JohnsonParams(n, m)
        labels, walk = _swap_walk(p)
        assert labels == colex_subsets(n, m)
        rank_of = {u: i for i, u in enumerate(labels)}
        walked = list(walk(range(len(labels))))
        assert len(walked) == len(labels)
        for i, (u, later) in enumerate(zip(labels, walked)):
            assert later == [rank_of[v] for v in neighbors(u, p) if rank_of[v] > i], u

    @given(query_labels())
    def test_matches_definition_at_query_sizes(self, case):
        n, m, u = case
        assert neighbors(u, JohnsonParams(n, m)) == swap_neighbors(u, n)

    @pytest.mark.parametrize("n,m", QUERY_SIZES)
    def test_matches_definition_at_labels_holding_1_or_n(self, n, m):
        p = JohnsonParams(n, m)
        # Also the shapes that bound the merge of the runs before u: gaps of
        # one element between the first m odd numbers (every gap at J(62,31)),
        # and a single gap inside u, after its k-th element.
        odd = [tuple(range(1, 2 * m, 2))] if 2 * m - 1 <= n else []
        one_gap = [(*range(1, k + 1), *range(n - m + k + 1, n + 1)) for k in range(1, m)]
        for u in [
            tuple(range(1, m + 1)),
            tuple(range(n - m + 1, n + 1)),
            (1, *range(n - m + 2, n + 1)),
            (*range(1, m), n),
            *odd,
            *one_gap,
        ]:
            assert neighbors(u, p) == swap_neighbors(u, n), u


class TestEdges:
    def test_triangle(self):
        got = list(edges(JohnsonParams(3, 2)))
        assert got == [((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))]

    @pytest.mark.parametrize("n,m", [(4, 2), (5, 3)])
    def test_counts(self, n, m):
        assert sum(1 for _ in edges(JohnsonParams(n, m))) == edge_count(JohnsonParams(n, m))

    def test_matches_quadratic_scan(self):
        # exact list, order included: the scan visits pairs in (colex rank,
        # colex rank) order
        for n, m in ACCEPTANCE_PAIRS + DEGENERATE_PAIRS:
            expected = quadratic_edges(colex_subsets(n, m))
            assert list(edges(JohnsonParams(n, m))) == expected, (n, m)

    def test_canonical_order(self):
        p = JohnsonParams(5, 3)
        seen = [(rank(u, 5), rank(v, 5)) for u, v in edges(p)]
        assert all(i < j for i, j in seen)
        assert seen == sorted(seen)

    def test_export_cap_enforced_before_any_label(self, monkeypatch):
        monkeypatch.setattr(graph, "DEFAULT_EXPORT_CAP", 10)
        assert next(edges(JohnsonParams(5, 2))) == ((1, 2), (1, 3))  # 10 vertices
        monkeypatch.setattr(graph, "_swap_walk", lambda p: pytest.fail("labels listed"))
        with pytest.raises(RangeError, match="20 vertices, above the export cap 10"):
            next(edges(JohnsonParams(6, 3)))

    # A text stream has a callable write, but one that takes str, not the
    # bytes export writes.
    @pytest.mark.parametrize("sink", [5, None, "graph.txt", io.StringIO()])
    def test_export_refuses_a_sink_without_write_before_any_label(self, monkeypatch, sink):
        monkeypatch.setattr(graph, "_swap_walk", lambda p: pytest.fail("labels listed"))
        with pytest.raises(ValidationError, match="sink must have a callable write"):
            export(JohnsonParams(5, 2), "edgelist", sink)

    def test_over_cap_graph_refused_at_the_call(self, monkeypatch):
        monkeypatch.setattr(graph, "_swap_walk", lambda p: pytest.fail("labels listed"))
        with pytest.raises(RangeError, match="137846528820 vertices, above the export cap 100000"):
            edges(JohnsonParams(40, 20))

    def test_export_reads_the_cap_at_call_time(self, monkeypatch):
        monkeypatch.setattr(graph, "DEFAULT_EXPORT_CAP", 10)
        sink = io.BytesIO()
        with pytest.raises(RangeError, match="20 vertices, above the export cap 10"):
            export(JohnsonParams(6, 3), "edgelist", sink)
        assert sink.getvalue() == b""


class TestEdgeType:
    def test_endpoints_normalized(self):
        e = Edge((1, 3), (1, 2))
        assert (e.u, e.v) == ((1, 2), (1, 3))

    def test_non_adjacent_rejected(self):
        with pytest.raises(ValidationError):
            Edge((1, 2), (3, 4))
        with pytest.raises(ValidationError):
            Edge((1, 2), (1, 2))


class TestExport:
    def test_edgelist_triangle(self):
        sink = io.BytesIO()
        export(JohnsonParams(3, 2), "edgelist", sink)
        assert sink.getvalue() == b"{1,2} -- {1,3}\n{1,2} -- {2,3}\n{1,3} -- {2,3}\n"

    def test_dot_counts(self):
        sink = io.BytesIO()
        export(JohnsonParams(4, 2), "dot", sink)
        text = sink.getvalue().decode()
        lines = text.splitlines()
        assert lines[0] == "graph J_4_2 {"
        assert lines[-1] == "}"
        statements = [ln for ln in lines if "--" in ln]
        assert len(statements) == 12
        ids = set()
        for ln in statements:
            left, right = ln.strip().rstrip(";").split(" -- ")
            ids.add(left.strip('"'))
            ids.add(right.strip('"'))
        assert len(ids) == 6

    def test_json_structure(self):
        sink = io.BytesIO()
        export(JohnsonParams(5, 3), "json", sink)
        payload = json.loads(sink.getvalue().decode())
        assert payload["n"] == 5 and payload["m"] == 3
        assert len(payload["vertices"]) == 10
        assert all(len(v) == 3 for v in payload["vertices"])
        assert len(payload["edges"]) == 30
        for i, j in payload["edges"]:
            assert 0 <= i < j < 10
            u = tuple(payload["vertices"][i])
            v = tuple(payload["vertices"][j])
            assert swap_adjacent(u, v)
        assert payload["edges"] == sorted(payload["edges"])

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            export(JohnsonParams(3, 2), "gml", io.BytesIO())

    def test_cap_enforced(self):
        with pytest.raises(RangeError):
            export(JohnsonParams(9, 4), "edgelist", io.BytesIO(), max_vertices=100)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_refused(self, cap):
        sink = io.BytesIO()
        with pytest.raises(ValidationError, match=f"max_vertices must be at least 1, got {cap}"):
            export(JohnsonParams(5, 2), "dot", sink, max_vertices=cap)
        assert sink.getvalue() == b""

    @pytest.mark.parametrize("cap", [10.5, True, "10"])
    def test_cap_that_is_not_an_int_refused(self, cap):
        sink = io.BytesIO()
        with pytest.raises(ValidationError, match=f"max_vertices must be an int, got {cap!r}"):
            export(JohnsonParams(5, 2), "dot", sink, max_vertices=cap)
        assert sink.getvalue() == b""

    # J(4,3): the last vertex has no later neighbour. J(11,4): 4,620 edges,
    # more than one write's worth.
    @pytest.mark.parametrize("fmt", ["edgelist", "dot", "json"])
    @pytest.mark.parametrize("n,m", [(8, 3), (9, 4), (4, 3), (11, 4)])
    def test_bytes_match_quadratic_scan(self, n, m, fmt):
        labels = colex_subsets(n, m)
        pairs = quadratic_edges(labels)
        if fmt == "edgelist":
            opening = closing = ""
            body = "".join(
                "{%s} -- {%s}\n" % (",".join(map(str, a)), ",".join(map(str, b))) for a, b in pairs
            )
        elif fmt == "dot":
            opening, closing = "graph J_%d_%d {\n" % (n, m), "}\n"
            body = "".join(
                '  "%s" -- "%s";\n' % ("_".join(map(str, a)), "_".join(map(str, b)))
                for a, b in pairs
            )
        else:
            index = {label: i for i, label in enumerate(labels)}
            vertices = ",".join("[%s]" % ",".join(map(str, a)) for a in labels)
            opening = '{"n":%d,"m":%d,"vertices":[%s],"edges":[' % (n, m, vertices)
            closing = "]}\n"
            body = ",".join("[%d,%d]" % (index[a], index[b]) for a, b in pairs)
        sink = WriteRecorder()
        export(JohnsonParams(n, m), fmt, sink)
        assert sink.getvalue() == (opening + body + closing).encode()
        if len(pairs) > _CHUNK_LINES:
            # the edges go out in more than one non-empty write
            assert len(sink.sizes) > 1
            assert max(sink.sizes) < len(body)

    def test_deterministic(self):
        a, b = io.BytesIO(), io.BytesIO()
        export(JohnsonParams(5, 3), "dot", a)
        export(JohnsonParams(5, 3), "dot", b)
        assert a.getvalue() == b.getvalue()
