"""Brute-force ground truth for the closed-form results.

Materializes J_n(m, m-1) as an explicit dense graph, enumerates all maximal
cliques with Bron-Kerbosch, pivoting on a candidate, and compares what it
finds against the closed-form enumerations, clique number, and edge
partition. Each clique, found or closed-form, is held as its sorted tuple of
vertex indices, and the two are compared as sets of those tuples. The clique
search knows nothing about Johnson structure; it only sees adjacency bits,
and its pruning rule is exact on any graph. The graph is built from the
pairwise "share m-1 elements" definition, by masks keyed on each label's
(m-1)-subsets, for any list of labels of one size; it does not use the
single-swap walk that the edge stream and export use, and the tests check
that the two give the same rows. verify() and the search compute on those
rows and build no DenseGraph: the rows are symmetric by construction, and
the tests check that DenseGraph accepts them. materialize() still hands
them to DenseGraph, which checks them. Its labels are every
m-combination of {1..n} sorted by the reversed tuple, colex order by its
definition, so it shares no colex stepper with the streams and enumerations
it checks. The edge law
compares edge_count() with the graph's own edge total and covers that graph
with each family; the partition passes only when its parts are, in order, a
family whose cover passed, so no part is mapped to vertices a second time.
verify() looks up each closed form it checks in its own module at the call
(``cliques.clique_number``, ``graph.edge_count``, ``members()`` on the
clique's class) and binds none at import: each claim has one binding, so a
patch applied where a claim is defined is what verify() checks.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Container, Iterable, Iterator

from . import cliques, combinat, graph
from .errors import RangeError, ValidationError

#: Largest graph the oracle builds by default; every entry point reads it at the call.
DEFAULT_MATERIALIZE_CAP = 2000

#: The phases verify() times, in the order it runs them.
VERIFY_PHASES = ("materialize", "clique_search", "families", "edge_law", "partition")


@dataclass(frozen=True)
class DenseGraph:
    """Adjacency as one bit-set row per vertex: bit j of rows[i] means edge ij.

    ``rows`` is the one field; ``vertex_count`` is its length. The
    constructor raises ValidationError for ``rows`` that is not a tuple,
    then for the first row i, in order, that is not an int, has stray bits
    or a self-loop, or whose bits j < i differ from bit i of rows j; at the
    lowest such j it names the pair (a, b) of i and j where row a lists b
    and row b does not list a.
    """

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = self.rows
        if type(rows) is not tuple:
            raise ValidationError(f"expected a tuple of rows, got a {type(rows).__name__}")
        nv = len(rows)
        bits = [1 << i for i in range(nv)]
        # mirror[i] gathers bit j of every earlier row j that lists i.
        mirror = [0] * nv
        for i, row in enumerate(rows):
            bit_i = bits[i]
            if type(row) is not int:
                raise ValidationError(f"row {i} is not an int: {row!r}")
            if row >> nv:
                raise ValidationError(f"row {i} has bits beyond vertex {nv - 1}")
            if row & bit_i:
                raise ValidationError(f"self-loop at vertex {i}")
            later = row & -bit_i
            if diff := row ^ later ^ mirror[i]:
                j = (diff & -diff).bit_length() - 1
                pair = (i, j) if row & bits[j] else (j, i)
                raise ValidationError(f"adjacency not symmetric at {pair}")
            while later:
                j = later.bit_length() - 1
                mirror[j] |= bit_i
                later ^= bits[j]

    @property
    def vertex_count(self) -> int:
        return len(self.rows)

    def adjacent(self, i: int, j: int) -> bool:
        """Whether ij is an edge; ValidationError for an index that is not
        an int in range(vertex_count)."""
        nv = self.vertex_count
        if type(i) is not int or type(j) is not int or not (0 <= i < nv and 0 <= j < nv):
            raise ValidationError(f"vertex pair ({i!r}, {j!r}) is not in range({nv})")
        return bool((self.rows[i] >> j) & 1)

    def edge_total(self) -> int:
        return _edge_total(self.rows)


def _edge_total(rows: tuple[int, ...]) -> int:
    return sum(row.bit_count() for row in rows) // 2


def materialize(p: graph.JohnsonParams, max_vertices: int | None = None) -> DenseGraph:
    """Build the explicit graph; vertex i carries the label of colex rank i.
    The cap is ``max_vertices``, or DEFAULT_MATERIALIZE_CAP read at the call."""
    return DenseGraph(_build(p, max_vertices)[1])


def _build(p: graph.JohnsonParams, cap: int | None) -> tuple[list[combinat.Label], tuple[int, ...]]:
    """The labels in colex order, every m-combination sorted by the
    reversed tuple, and their _definition_rows(): row i holds the
    neighbours of labels[i]."""
    graph._check_cap(p, DEFAULT_MATERIALIZE_CAP if cap is None else cap, "materialization")
    labels = sorted(combinations(range(1, p.n + 1), p.m), key=combinat.colex_key)
    return labels, _definition_rows(labels)


def _definition_rows(labels: list[combinat.Label]) -> tuple[int, ...]:
    """Adjacency rows of ``labels``, any list of labels of one size m, from
    the definition: row i holds every other label that shares m-1 elements
    with labels[i]. Each (m-1)-subset of a label keys the mask of the labels
    that hold it, and row i is the OR of the masks of the m subsets of
    labels[i], with bit i cleared."""
    holders: dict[combinat.Label, int] = {}
    for i, label in enumerate(labels):
        for key in combinations(label, len(label) - 1):
            holders[key] = holders.get(key, 0) | (1 << i)
    rows = []
    for i, label in enumerate(labels):
        row = 0
        for key in combinations(label, len(label) - 1):
            row |= holders[key]
        rows.append(row ^ (1 << i))
    return tuple(rows)


def _mask_vertices(mask: int, bits: list[int]) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending; ``bits[i]`` is ``1 << i``. Peels
    the top bit, which makes one new int per bit where peeling the low bit
    makes two."""
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= bits[i]
    out.reverse()
    return tuple(out)


def maximal_cliques(g: DenseGraph) -> list[tuple[int, ...]]:
    """All maximal cliques of ``g``, each once, members ascending, cliques
    sorted; pivoted Bron-Kerbosch, deterministic across runs. ValidationError
    if ``g`` is not a DenseGraph."""
    if not isinstance(g, DenseGraph):
        raise ValidationError(f"expected a DenseGraph, got {g!r}")
    return sorted(_bron_kerbosch(g.rows, [1 << i for i in range(g.vertex_count)])[0])


def _bron_kerbosch(rows: tuple[int, ...], bits: list[int]) -> tuple[list[tuple[int, ...]], int]:
    """The maximal cliques of the graph with DenseGraph-style ``rows``, as
    ascending vertex tuples in the order found, and the number of nodes of
    the search tree; ``bits[i]`` is ``1 << i``. The search holds each clique
    as a vertex mask and decodes each once, at the end. Each call pivots on
    the candidate with the most candidate neighbours, and branches on the
    others from its highest vertex down. A call whose candidates split into
    k >= 1 cliques with no edge between them settles them all and branches
    no further: it reports its base plus each of those cliques that no
    excluded vertex is adjacent to in full, and counts as k leaves. The
    candidates and excluded vertices together are the common neighbourhood
    of the base, so every clique among the candidates lies in one of the k,
    and only an excluded vertex can extend one; the rule is exact on any
    graph. A call with no candidates is a leaf: it reports its base when no
    excluded vertex is left, and counts one node."""
    # Each loop peels its top vertex with one new int, bits[i] being reused,
    # not the two that peeling the low bit (x & -x, then x ^ low) makes.
    found: list = []  # masks while the search runs, vertex tuples after it
    calls = 0

    def expand(base: int, cand: int, excl: int) -> None:
        nonlocal calls
        if not cand:
            calls += 1
            if not excl:
                found.append(base)
            return
        # Peel the candidates one clique at a time from the top: the top
        # vertex's comp is itself and its candidate neighbours, and every
        # other member must see exactly the rest of comp among the
        # candidates. The excluded vertices adjacent to all of comp are excl
        # ANDed with its members' rows. The peel stops at the first member
        # that fails, so a cand that does not split costs about one step.
        start, rest, leaves = len(found), cand, 0
        while rest:
            i = rest.bit_length() - 1
            row = rows[i]
            members = row & cand
            comp, dominators = members | bits[i], excl & row
            while members:
                j = members.bit_length() - 1
                row = rows[j]
                if row & cand | bits[j] != comp:
                    break
                members ^= bits[j]
                dominators &= row
            if members:
                del found[start:]
                break
            if not dominators:
                found.append(base | comp)
            rest ^= comp
            leaves += 1
        else:
            calls += leaves
            return
        calls += 1
        # Tomita, Tanaka & Takahashi (2006) pivot on the vertex of P | X with
        # the most neighbours in P, so the fewest branches remain. This pivot
        # comes from P alone: any pivot keeps the search exact, about half of
        # P | X is X on the Johnson graphs, and the tree grows by under 1 %.
        best = -1
        rest = cand
        while rest:
            i = rest.bit_length() - 1
            rest ^= bits[i]
            row = rows[i]
            score = (row & cand).bit_count()
            if score > best:
                best, pivot_row = score, row
        todo = cand & ~pivot_row
        while todo:
            i = todo.bit_length() - 1
            bit = bits[i]
            todo ^= bit
            row = rows[i]
            expand(base | bit, cand & row, excl & row)
            cand ^= bit
            excl |= bit

    if rows:  # the empty graph reports no clique, not the empty one
        expand(0, (1 << len(rows)) - 1, 0)
    # Decoded in place, so each mask is freed as its tuple takes its slot.
    for k, mask in enumerate(found):
        found[k] = _mask_vertices(mask, bits)
    return found, calls


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one (n, m) pair against the brute-force oracle.

    All checks are reported, never raised. ``checks`` maps each check's name
    to its outcome, in report order, and ``passed`` is their conjunction.
    ``notes`` carries explanations, in particular that the class-max family
    does not apply in the degenerate regime n == m+1.
    ``phase_seconds`` holds the time of each of VERIFY_PHASES; ``counters``
    holds vertices, edges, the nodes of the Bron-Kerbosch search tree
    (expand_calls) and cliques found.
    """

    params: graph.JohnsonParams
    oracle_clique_count: int
    closed_form_count: int
    checks: dict[str, bool]
    max_clique_size_observed: int
    phase_seconds: dict[str, float]
    counters: dict[str, int]
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        # phase_seconds and counters are deliberately left out: report
        # lines must be byte-identical across runs.
        return {
            "n": self.params.n,
            "m": self.params.m,
            "degenerate": self.params.degenerate,
            "oracle_clique_count": self.oracle_clique_count,
            "closed_form_count": self.closed_form_count,
            **self.checks,
            "max_clique_size_observed": self.max_clique_size_observed,
            "passed": self.passed,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class SkippedPair:
    """A pair that a sweep did not verify, and why."""

    params: graph.JohnsonParams
    reason: str

    def to_dict(self) -> dict:
        return {"n": self.params.n, "m": self.params.m, "skipped": self.reason}


@dataclass(frozen=True)
class FailedPair:
    """A pair whose check raised; ``error`` is the exception's type and text,
    and ``trace`` its traceback, which the report line leaves out."""

    params: graph.JohnsonParams
    error: str
    trace: str

    def to_dict(self) -> dict:
        return {"n": self.params.n, "m": self.params.m, "passed": False, "error": self.error}


def _covers_each_edge_once(
    family: Iterable[tuple[int, ...]], rows: tuple[int, ...], edges: int, bits: list[int]
) -> bool:
    """Whether these cliques, each a tuple of vertex indices, cover every
    edge of the graph on adjacency ``rows`` exactly once, and no non-edge
    pair; ``edges`` is its edge total and ``bits[i]`` is ``1 << i``.

    Each member's cover row ORs in its clique's mask, itself an OR, so a
    member listed twice sets its bit once; with the diagonal cleared, the
    cover rows must equal ``rows``, so every pair covered is an edge and
    every edge is covered. A clique of s listed members counts C(s, 2)
    pairs, each covered pair at least once and a member listed twice more
    than that; a total of exactly ``edges`` leaves no pair counted twice.
    """
    cover = [0] * len(rows)
    pairs = 0
    for members in family:
        mask = 0
        for i in members:
            mask |= bits[i]
        for i in members:
            cover[i] |= mask
        size = len(members)
        pairs += size * (size - 1) // 2
    return pairs == edges and all(c & ~bit == row for c, bit, row in zip(cover, bits, rows))


def _index_tuples(
    name: str,
    family: tuple[cliques.MaximalClique, ...],
    index: dict[combinat.Label, int],
    notes: list[str],
) -> tuple[list[tuple[int, ...]], bool]:
    """Each clique's members as their sorted vertex indices by ``index``, and
    whether every member is a vertex label. A member that is not, unknown or
    unhashable, is left out of its tuple, and one note in ``notes`` names the
    first."""
    tuples, clean = [], True
    for h in family:
        indices = []
        for member in h.members():
            try:
                indices.append(index[member])
            except (KeyError, TypeError):
                if clean:
                    notes.append(f"{name} family lists {member!r}, which is not a vertex label")
                clean = False
        tuples.append(tuple(sorted(indices)))
    return tuples, clean


def verify(p: graph.JohnsonParams, max_vertices: int | None = None) -> VerificationReport:
    """Run every closed-form claim for one (n, m) against the oracle. The
    cap is materialize()'s: ``max_vertices``, or the default read at the call."""
    marks = [time.perf_counter()]
    labels, rows = _build(p, max_vertices)
    marks.append(time.perf_counter())
    notes: list[str] = []
    n, m = p.n, p.m

    bits = [1 << i for i in range(len(rows))]
    oracle, expand_calls = _bron_kerbosch(rows, bits)
    marks.append(time.perf_counter())
    max_size = max(map(len, oracle))
    oracle.sort()  # the order of maximal_cliques(), which the notes follow

    # A clique's common elements are the AND of its members' label masks.
    label_masks = [sum(1 << e for e in label) for label in labels]
    # Keys in report order: sets_equal leads, but is decided after the laws.
    checks = dict.fromkeys(("sets_equal", "intersection_sizes_ok", "size_laws_ok"), True)
    for members in oracle:
        shared = -1
        for i in members:
            shared &= label_masks[i]
        common = shared.bit_count()
        if common not in (0, m - 1):
            checks["intersection_sizes_ok"] = False
            labels_in = sorted(labels[i] for i in members)
            notes.append(f"clique {labels_in} has intersection size {common}")
            continue
        expected = m + 1 if common == 0 else n - m + 1
        if len(members) != expected:
            checks["size_laws_ok"] = False
            notes.append(f"clique with intersection size {common} has "
                         f"{len(members)} members, expected {expected}")

    # Closed-form members reach the rows only through the oracle's own labels.
    index = {label: i for i, label in enumerate(labels)}

    # (class, cliques, k): each clique of a class is fixed by a k-set.
    classes = [("class-min", tuple(cliques.enumerate_min_cliques(p)), m + 1)]
    if p.degenerate:
        notes.append(
            "degenerate regime (n == m+1): the graph is complete, the sole maximal "
            "clique is the class-min one, and the class-max family is inapplicable"
        )
    else:
        classes.append(("class-max", tuple(cliques.enumerate_max_cliques(p)), m - 1))
    # Each clique as its sorted vertex indices: the sets are compared on
    # membership, and a member listed twice stays in the tuple. A family
    # that lists a member that is not a vertex label fails both checks.
    tuples, clean = zip(
        *[_index_tuples(name, family, index, notes) for name, family, _ in classes]
    )
    families = [set(family) for family in tuples]
    closed = set().union(*families)
    if len(closed) < sum(map(len, families)):
        notes.append("class-min and class-max families overlap; they must be disjoint")
    found = set(oracle)
    checks["sets_equal"] = all(clean) and found == closed and len(oracle) == len(closed)
    if found != closed:  # the first clique that each side lacks, by labels
        named = [f"oracle clique {sorted(labels[i] for i in c)} is in no family"
                 for c in oracle if c not in closed][:1]
        named += [f"the oracle lacks {name} clique {sorted(labels[i] for i in c)}"
                  for (name, *_), f in zip(classes, tuples) for c in f if c not in found][:1]
        notes.append("sets_equal failed: " + "; ".join(named))
    for (name, _, k), family in zip(classes, families):
        if len(family) != math.comb(n, k):
            checks["sets_equal"] = False
            notes.append(f"{name} family has {len(family)} cliques, expected C({n},{k})")

    omega = cliques.clique_number(p)
    checks["clique_number_ok"] = max_size == omega
    if not checks["clique_number_ok"]:
        notes.append(f"observed maximum clique size {max_size}, formula gives {omega}")
    marks.append(time.perf_counter())

    edges = _edge_total(rows)
    covers = [ok and _covers_each_edge_once(f, rows, edges, bits) for f, ok in zip(tuples, clean)]
    counted = graph.edge_count(p)
    checks["edge_law_ok"] = counted == edges and all(covers)
    if counted != edges:
        notes.append(f"edge law failed: edge_count gives {counted}, the graph has {edges} edges")
    if not all(covers):
        notes.append("edge law failed: some edge is not in exactly one clique per class")
    marks.append(time.perf_counter())

    parts = cliques.clique_partition(p).parts
    # Each edge lies in exactly one clique of each class, so the only
    # partition into cliques of one class is that class's whole family:
    # the parts must be, in order, a family whose cover passed above.
    number = cliques.clique_partition_number(p)
    checks["partition_ok"] = len(parts) == number and any(
        ok and family == parts for (_, family, _), ok in zip(classes, covers)
    )
    if not checks["partition_ok"]:
        sizes = ", ".join(f"{name} {len(family)}" for name, family, _ in classes)
        notes.append(f"partition failed: part count {len(parts)}, clique_partition_number "
                     f"gives {number}; family sizes: {sizes}")
    marks.append(time.perf_counter())

    return VerificationReport(
        params=p,
        oracle_clique_count=len(oracle),
        closed_form_count=len(closed),
        checks=checks,
        max_clique_size_observed=max_size,
        phase_seconds={
            phase: end - start for phase, start, end in zip(VERIFY_PHASES, marks, marks[1:])
        },
        counters={
            "vertices": len(rows),
            "edges": edges,
            "expand_calls": expand_calls,
            "cliques_found": len(oracle),
        },
        notes=tuple(notes),
    )


def verify_range(
    m_values: Container[int],
    n_values: Container[int],
    jobs: int = 1,
    max_vertices: int | None = None,
) -> Iterator[VerificationReport | SkippedPair | FailedPair]:
    """Verify each valid pair (n, m), m >= 2 and m+1 <= n <= MAX_GROUND_SET,
    with m in ``m_values`` and n in ``n_values``: collections only tested
    with ``in``, never iterated, so ranges of any width are cheap. Results
    come in (m, n) order as they are ready, whatever ``jobs`` is. A pair over
    ``max_vertices`` (default: DEFAULT_MATERIALIZE_CAP, read once at the call,
    for every worker) yields a SkippedPair, a pair whose check raises yields
    a FailedPair, and the sweep goes on. ``jobs`` and ``max_vertices`` below
    1 raise ValidationError at the call, before any pair is checked, as do
    values that are not ints and ``m_values`` or ``n_values`` that cannot
    answer ``in`` for an int."""
    graph._check_knob("jobs", jobs)
    max_vertices = DEFAULT_MATERIALIZE_CAP if max_vertices is None else max_vertices
    graph._check_knob("max_vertices", max_vertices)
    try:
        ms = [m for m in range(2, combinat.MAX_GROUND_SET) if m in m_values]
        ns = [n for n in range(3, combinat.MAX_GROUND_SET + 1) if n in n_values]
    except TypeError:
        raise ValidationError("m_values and n_values must answer 'in' for ints") from None
    pairs = [graph.JohnsonParams(n, m) for m in ms for n in ns if n > m]
    check = partial(_verify_or_skip, max_vertices=max_vertices)
    workers = _worker_count(jobs, len(pairs))
    if workers <= 1:
        return map(check, pairs)
    return _pooled(check, pairs, workers)


def _pooled(check, pairs: list[graph.JohnsonParams], workers: int) -> Iterator:
    # Imported here: the pool pulls in multiprocessing, which only jobs > 1 uses.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(check, pairs)


def _verify_or_skip(
    p: graph.JohnsonParams, max_vertices: int
) -> VerificationReport | SkippedPair | FailedPair:
    try:
        graph._check_cap(p, max_vertices, "materialization")
    except RangeError as exc:
        return SkippedPair(p, str(exc))
    try:
        return verify(p, max_vertices)
    except Exception as exc:
        return FailedPair(p, f"{type(exc).__name__}: {exc}", traceback.format_exc())


def _worker_count(jobs: int, pair_count: int) -> int:
    """Processes worth starting for ``pair_count`` pairs: ``jobs``, bounded by
    the pair count and the CPU count."""
    return min(jobs, pair_count, os.cpu_count() or 1)
