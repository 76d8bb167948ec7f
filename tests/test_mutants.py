"""The one-line mutants that score ``verify``, one row each.

Each row patches one closed form in the module (or class) that defines it,
runs verify_range over the acceptance range (m 2..4, n 3..9: 18 pairs) and
asserts how many pairs fail and which report keys turn false on them. A
mutant that ``verify`` misses today is a strict xfail that names the
ROADMAP item whose check flips it; such a row asks only that some pair
fails. When the item lands, the row XPASSes: its mark goes, and the row
gets its count and keys. A separate, unmarked test shows that each row's
mutant changes the patched function's output at some acceptance pair, so
no row can pass, or xfail, with a mutant that changes nothing.
"""

import dataclasses
import io
from typing import Callable, NamedTuple

import pytest

import johnson_cliques.cliques as cliques
import johnson_cliques.combinat as combinat
import johnson_cliques.graph as graph
from johnson_cliques import (
    ClassificationKind,
    Clique,
    CliqueClass,
    JohnsonParams,
    MaximalClique,
    VerificationReport,
    verify_range,
)

PAIRS = [JohnsonParams(n, m) for m in range(2, 5) for n in range(m + 1, 10)]
SWAP = {CliqueClass.MIN: CliqueClass.MAX, CliqueClass.MAX: CliqueClass.MIN}


def _low(p):
    """The label {1..m}, rank 0."""
    return tuple(range(1, p.m + 1))


def _edge(p):
    """The clique of {1..m} and {2..m+1}, which share m-1 elements."""
    return Clique.from_labels([_low(p), _low(p)[1:] + (p.m + 1,)], p)


def _exported(export, p):
    """The edge list that ``export`` writes for ``p``."""
    sink = io.BytesIO()
    export(p, "edgelist", sink)
    return sink.getvalue()


def _broken_triangle(p):
    """{1..m}, {2..m+1} and {1..m-1, m+2}: the first two are adjacent, the
    last two share only m-2 elements."""
    return [_low(p), _low(p)[1:] + (p.m + 1,), _low(p)[:-1] + (p.m + 2,)]


class Mutant(NamedTuple):
    owner: object  # the module or class that defines the function
    name: str
    mutate: Callable  # the real function -> the mutant
    probe: Callable  # p -> an output of the function, read through its owner
    failing: int | None = None  # pairs that fail verify; None: at least one
    keys: frozenset = frozenset()  # the report keys false on those pairs


def _row(mutant: Mutant, item: int | None = None):
    marks = ()
    if item is not None:
        marks = pytest.mark.xfail(strict=True, reason=f"verify misses it until item {item}")
    owner = mutant.owner.__name__.rpartition(".")[2]
    return pytest.param(mutant, marks=marks, id=f"{owner}.{mutant.name}")


ROWS = [
    _row(Mutant(
        graph, "edge_count",
        lambda real: lambda p: real(p) + 1,
        lambda p: graph.edge_count(p),
        18, frozenset({"edge_law_ok"}),
    )),
    _row(Mutant(
        MaximalClique, "members",
        lambda real: lambda h: real(h)[:-1],
        lambda p: next(cliques.enumerate_min_cliques(p)).members(),
        18, frozenset({"sets_equal", "edge_law_ok", "partition_ok"}),
    )),
    _row(Mutant(
        cliques, "clique_number",
        lambda real: lambda p: p.m + 1,
        lambda p: cliques.clique_number(p),
        9, frozenset({"clique_number_ok"}),
    )),
    _row(Mutant(
        combinat, "iter_subsets_colex",
        lambda real: lambda n, k: list(real(n, k))[:-1],
        lambda p: list(combinat.iter_subsets_colex(p.n, p.m)),
        18, frozenset({"sets_equal", "edge_law_ok", "partition_ok"}),
    )),
    # The three pairs with n = m+1 have no class-max family.
    _row(Mutant(
        combinat, "_insertions",
        lambda real: lambda label, n: real(label, n)[:-1],
        lambda p: combinat._insertions(_low(p), p.n),
        15, frozenset({"sets_equal", "edge_law_ok", "partition_ok"}),
    )),
    _row(Mutant(
        combinat, "binomial",
        lambda real: lambda n, k: real(n, k) + 1,
        lambda p: combinat.binomial(p.n, p.m),
        18, frozenset({"sets_equal", "edge_law_ok", "partition_ok"}),
    )),
    _row(Mutant(
        cliques, "clique_partition_number",
        lambda real: lambda p: real(p) + 1,
        lambda p: cliques.clique_partition_number(p),
        18, frozenset({"partition_ok"}),
    )),
    _row(Mutant(
        cliques, "_partition_class",
        lambda real: lambda p: SWAP[real(p)] if p.m + 2 <= p.n != 2 * p.m else real(p),
        lambda p: cliques._partition_class(p),
    ), item=1),
    _row(Mutant(
        graph, "neighbors",
        lambda real: lambda u, p: real(u, p)[:-1],
        lambda p: graph.neighbors(_low(p), p),
    ), item=2),
    _row(Mutant(
        graph, "_swap_walk",
        lambda real: lambda p: (lambda labels, walk: (labels[:-1], walk))(*real(p)),
        lambda p: graph._swap_walk(p)[0],
    ), item=2),
    _row(Mutant(
        combinat, "rank",
        lambda real: lambda label, n: real(label, n) + 1,
        lambda p: combinat.rank(_low(p), p.n),
    ), item=2),
    _row(Mutant(
        combinat, "unrank",
        lambda real: lambda r, n, m: real(max(r - 1, 0), n, m),
        lambda p: combinat.unrank(1, p.n, p.m),
    ), item=2),
    _row(Mutant(
        graph, "export",
        lambda real: lambda p, fmt, sink, max_vertices=None: sink.write(
            b"".join(_exported(real, p).splitlines(True)[:-1])
        ),
        lambda p: _exported(graph.export, p),
    ), item=2),
    _row(Mutant(
        graph, "vertex_count",
        lambda real: lambda p: real(p) + 1,
        lambda p: graph.vertex_count(p),
    ), item=2),
    _row(Mutant(
        cliques, "classify",
        lambda real: lambda c: dataclasses.replace(real(c), kind=ClassificationKind.UNIQUE_MIN),
        lambda p: cliques.classify(_edge(p)).kind,
    ), item=3),
    _row(Mutant(
        cliques, "extend_to_maximal",
        lambda real: lambda c: real(c)[:1],
        lambda p: cliques.extend_to_maximal(_edge(p)),
    ), item=3),
    # Judged by its first two members only.
    _row(Mutant(
        cliques, "is_clique",
        lambda real: lambda labels: real(list(labels)[:2]),
        lambda p: cliques.is_clique(_broken_triangle(p)),
    ), item=3),
]


def _patch(monkeypatch, mutant: Mutant) -> None:
    """Put the mutant where its function is defined."""
    real = getattr(mutant.owner, mutant.name)
    monkeypatch.setattr(mutant.owner, mutant.name, mutant.mutate(real))


# Unmarked, so that a row whose verify check is a strict xfail still fails
# here when its mutant changes nothing.
@pytest.mark.parametrize("mutant", [row.values[0] for row in ROWS], ids=[row.id for row in ROWS])
def test_the_mutant_changes_output(monkeypatch, mutant):
    before = [mutant.probe(p) for p in PAIRS]
    _patch(monkeypatch, mutant)
    assert [mutant.probe(p) for p in PAIRS] != before, "the mutant changes no output"


@pytest.mark.parametrize("mutant", ROWS)
def test_verify_fails_the_mutant(monkeypatch, mutant):
    _patch(monkeypatch, mutant)
    reports = list(verify_range(range(2, 5), range(3, 10), jobs=1))
    assert [r.params for r in reports] == PAIRS
    assert all(isinstance(r, VerificationReport) for r in reports)
    failed = [r for r in reports if not r.passed]
    if mutant.failing is None:
        assert failed
        return
    assert len(failed) == mutant.failing
    assert {key for r in failed for key, ok in r.checks.items() if not ok} == mutant.keys


@pytest.mark.parametrize(
    "p,note",
    [
        (JohnsonParams(5, 3), "partition failed: part count 10, clique_partition_number gives 11; "
                              "family sizes: class-min 5, class-max 10"),
        (JohnsonParams(4, 3), "partition failed: part count 1, clique_partition_number gives 2; "
                              "family sizes: class-min 1"),
    ],
    ids=["J(5,3)", "J(4,3)"],
)
def test_partition_only_row_names_its_witness(monkeypatch, p, note):
    """The row that fails partition_ok alone leaves one note on it, which
    gives the part count, clique_partition_number() and each family's size."""
    (mutant,) = [row.values[0] for row in ROWS if row.values[0].keys == {"partition_ok"}]
    _patch(monkeypatch, mutant)
    (report,) = verify_range([p.m], [p.n])
    assert [key for key, ok in report.checks.items() if not ok] == ["partition_ok"]
    assert [line for line in report.notes if line.startswith("partition failed: ")] == [note]
