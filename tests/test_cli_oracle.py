"""The CLI's bulk bytes checked against the oracle, not against goldens.

The goldens were recorded from the CLI's own output. This module parses the
stdout of ``gen`` in all three formats, ``cliques --class all`` and
``partition`` for every pair of the acceptance range (m 2..4, n 3..9) and
for J(14,4), whose 20,020 edges and 2,366 clique lines span more than one
write of each stream, and compares it with the oracle's graph: the edges
with its rows, the clique lines with its maximal cliques, and the partition
with its edges. Label text is read by ``parse_label``; a defining set is
expanded into its members here, from its class's definition, not by
``members()``. The partition's minimality is item 1's, left to the strict
xfail in tests/test_cliques.py.
"""

import io
import json
import re
from functools import cache
from itertools import combinations

import pytest

import johnson_cliques.cli as cli
from johnson_cliques import JohnsonParams, materialize, maximal_cliques, parse_label
from johnson_cliques.combinat import _CHUNK_LINES
from helpers import colex_subsets

PAIRS = [(n, m) for m in range(2, 5) for n in range(m + 1, 10)] + [(14, 4)]
IDS = [f"J({n},{m})" for n, m in PAIRS]
DOT_EDGE = re.compile(r'  "([0-9_]+)" -- "([0-9_]+)";\Z')


@cache
def oracle(n, m):
    """The oracle's graph, each label's vertex index and the sorted maximal
    cliques; vertex i carries the label of colex rank i, listed here by
    sorting, with no code of the package."""
    g = materialize(JohnsonParams(n, m))
    index = {label: i for i, label in enumerate(colex_subsets(n, m))}
    return g, index, maximal_cliques(g)


def stdout(*argv):
    out, err = io.BytesIO(), io.BytesIO()
    assert cli.run([str(a) for a in argv], out, err) == 0, err.getvalue()
    return out.getvalue().decode()


def rows_of(pairs, vertex_count):
    """Adjacency rows with a bit for each end of each pair."""
    rows = [0] * vertex_count
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def check_edges(pairs, n, m):
    """The pairs are the oracle's edges, each once, colex-smaller end first,
    in order."""
    g, _, _ = oracle(n, m)
    assert all(i < j for i, j in pairs)
    assert pairs == sorted(set(pairs))
    assert rows_of(pairs, g.vertex_count) == g.rows


def expand(line, n, m):
    """The member labels of one clique line by the definition of its class:
    a class-min set B holds the m-sets B minus one element, a class-max set
    A the m-sets A plus one element outside A."""
    defining = line["set"]
    assert (line["n"], line["m"]) == (n, m)
    if line["class"] == "min":
        assert len(defining) == m + 1
        return [tuple(e for e in defining if e != x) for x in defining]
    assert line["class"] == "max" and len(defining) == m - 1
    return [tuple(sorted([*defining, y])) for y in range(1, n + 1) if y not in defining]


def vertex_tuples(lines, n, m):
    """Each clique line as its sorted vertex indices; its size field must
    count its members."""
    _, index, _ = oracle(n, m)
    tuples = []
    for line in lines:
        members = expand(line, n, m)
        assert line["size"] == len(members)
        tuples.append(tuple(sorted(index[label] for label in members)))
    return tuples


def test_j_14_4_spans_more_than_one_write():
    assert oracle(14, 4)[0].edge_total() == 20020 > _CHUNK_LINES
    assert len(stdout("cliques", "--n", 14, "--m", 4).splitlines()) == 2366 > _CHUNK_LINES


@pytest.mark.parametrize("n,m", PAIRS, ids=IDS)
def test_edgelist_edges_are_the_oracle_rows(n, m):
    _, index, _ = oracle(n, m)
    text = stdout("gen", "--n", n, "--m", m, "--format", "edgelist")
    assert text.endswith("\n")
    pairs = []
    for line in text.splitlines():
        u, v = line.split(" -- ")
        pairs.append((index[parse_label(u)], index[parse_label(v)]))
    check_edges(pairs, n, m)


@pytest.mark.parametrize("n,m", PAIRS, ids=IDS)
def test_dot_edges_are_the_oracle_rows(n, m):
    _, index, _ = oracle(n, m)
    lines = stdout("gen", "--n", n, "--m", m, "--format", "dot").split("\n")
    assert lines[0] == f"graph J_{n}_{m} {{" and lines[-2:] == ["}", ""]
    pairs = []
    for line in lines[1:-2]:
        ids = DOT_EDGE.match(line).groups()
        u, v = (parse_label("{" + text.replace("_", ",") + "}") for text in ids)
        pairs.append((index[u], index[v]))
    check_edges(pairs, n, m)


@pytest.mark.parametrize("n,m", PAIRS, ids=IDS)
def test_json_vertices_and_edges_are_the_oracle_graph(n, m):
    _, index, _ = oracle(n, m)
    text = stdout("gen", "--n", n, "--m", m, "--format", "json")
    assert text.endswith("}\n")
    graph = json.loads(text)
    assert list(graph) == ["n", "m", "vertices", "edges"]
    assert (graph["n"], graph["m"]) == (n, m)
    vertices = [index[tuple(v)] for v in graph["vertices"]]
    assert vertices == list(range(len(index)))
    check_edges([(vertices[i], vertices[j]) for i, j in graph["edges"]], n, m)


@pytest.mark.parametrize("n,m", PAIRS, ids=IDS)
def test_clique_lines_are_the_oracle_cliques(n, m):
    _, _, found = oracle(n, m)
    text = stdout("cliques", "--n", n, "--m", m, "--class", "all")
    assert text.endswith("\n")
    lines = [json.loads(line) for line in text.splitlines()]
    assert sorted(vertex_tuples(lines, n, m)) == found


@pytest.mark.parametrize("n,m", PAIRS, ids=IDS)
def test_partition_is_an_edge_partition_of_the_oracle_graph(n, m):
    g, _, _ = oracle(n, m)
    text = stdout("partition", "--n", n, "--m", m)
    assert text.endswith("\n")
    partition = json.loads(text)
    assert list(partition) == ["cp", "parts"]
    assert partition["cp"] == len(partition["parts"])
    pairs = [pair for part in vertex_tuples(partition["parts"], n, m)
             for pair in combinations(part, 2)]
    assert len(pairs) == len(set(pairs)) == g.edge_total()
    assert rows_of(pairs, g.vertex_count) == g.rows
