"""Brute-force ground truth for the closed-form results.

Materializes J_n(m, m-1) as an explicit dense graph, enumerates all maximal
cliques with pivoted Bron-Kerbosch, and compares what it finds against the
closed-form enumerations, clique number, and edge partition. The clique
search knows nothing about Johnson structure; it only sees adjacency bits.
The graph is built from the pairwise "share m-1 elements" definition by
column masks, not from the single-swap walk that the edge stream and export
use; the tests check that the two give the same rows.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Container, Iterable, Iterator

from .combinat import MAX_GROUND_SET, Label, binomial, iter_subsets_colex
from .cliques import (
    clique_number,
    clique_partition,
    clique_partition_number,
    enumerate_max_cliques,
    enumerate_min_cliques,
)
from .errors import InternalConsistencyError, RangeError, ValidationError
from .graph import JohnsonParams, _check_cap, _check_knob, edge_count

#: Largest graph the oracle builds by default; every entry point reads it at the call.
DEFAULT_MATERIALIZE_CAP = 2000

#: The phases verify() times, in the order it runs them.
VERIFY_PHASES = ("materialize", "clique_search", "families", "edge_law", "partition")


@dataclass(frozen=True)
class DenseGraph:
    """Adjacency as one bit-set row per vertex: bit j of rows[i] means edge ij.

    The constructor raises ValidationError for a non-int ``vertex_count``,
    non-tuple ``rows``, then the first row, in order, that is not an int, has
    stray bits or a self-loop, or has a later bit j > i whose mirror (bit i of
    row j) is missing. If every later bit is mirrored but an earlier bit is
    not, it names the first earlier bit with no mirror, in row order.
    """

    vertex_count: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        nv, rows = self.vertex_count, self.rows
        if type(nv) is not int or type(rows) is not tuple:
            raise ValidationError(f"expected an int vertex count and a tuple of rows, "
                                  f"got {nv!r} and a {type(rows).__name__}")
        if len(rows) != nv:
            raise ValidationError(f"expected {nv} adjacency rows, got {len(rows)}")
        bits = later = 0
        for i, row in enumerate(rows):
            bit_i = 1 << i
            if type(row) is not int:
                raise ValidationError(f"row {i} is not an int: {row!r}")
            if row >> nv:
                raise ValidationError(f"row {i} has bits beyond vertex {nv - 1}")
            if row & bit_i:
                raise ValidationError(f"self-loop at vertex {i}")
            bits += row.bit_count()
            rest = row & -(bit_i << 1)
            later += rest.bit_count()
            for j in _mask_vertices(rest):
                if not rows[j] & bit_i:
                    raise ValidationError(f"adjacency not symmetric at ({i}, {j})")
        if bits != 2 * later:
            # Mirroring maps the later bits, all mirrored, one to one into
            # the earlier bits; there are more of those, so one has no mirror.
            for i, row in enumerate(rows):
                bit_i = 1 << i
                for j in _mask_vertices(row & (bit_i - 1)):
                    if not rows[j] & bit_i:
                        raise ValidationError(f"adjacency not symmetric at ({i}, {j})")

    def adjacent(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def edge_total(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2


def materialize(p: JohnsonParams, max_vertices: int | None = None) -> DenseGraph:
    """Build the explicit graph; vertex i carries the label of colex rank i.
    The cap is ``max_vertices``, or DEFAULT_MATERIALIZE_CAP read at the call."""
    return _build(p, max_vertices)[1]


def _build(p: JohnsonParams, cap: int | None) -> tuple[list[Label], DenseGraph]:
    """The labels in colex order and the graph whose vertex i is labels[i],
    built from the definition: row i holds every other label that has all
    but one element x of label i. With col[e] the mask of the labels that
    hold e, that is the OR over x in label i of the AND of col[e] over the
    rest of label i, taken from prefix and suffix ANDs."""
    _check_cap(p, DEFAULT_MATERIALIZE_CAP if cap is None else cap, "materialization")
    labels = list(iter_subsets_colex(p.n, p.m))
    col = [0] * (p.n + 1)
    for i, label in enumerate(labels):
        bit = 1 << i
        for e in label:
            col[e] |= bit
    rows = []
    for i, label in enumerate(labels):
        cols = [col[e] for e in label]
        # suffix[k] is the AND of cols[k:]; -1 is the AND of none.
        suffix = [-1] * (len(cols) + 1)
        for k in range(len(cols) - 1, -1, -1):
            suffix[k] = suffix[k + 1] & cols[k]
        row, prefix = 0, -1
        for k, c in enumerate(cols):
            row |= prefix & suffix[k + 1]
            prefix &= c
        rows.append(row ^ (1 << i))
    return labels, DenseGraph(len(labels), tuple(rows))


def _mask_vertices(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending. Peels the top bit, which makes
    one new int per bit where peeling the low bit makes two."""
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    return tuple(out)


def maximal_cliques(g: DenseGraph) -> list[tuple[int, ...]]:
    """All maximal cliques of ``g``, each once, members ascending, cliques
    sorted; pivoted Bron-Kerbosch, deterministic across runs."""
    return sorted(map(_mask_vertices, _bron_kerbosch(g)[0]))


def _bron_kerbosch(g: DenseGraph) -> tuple[list[int], int]:
    """The vertex masks of the maximal cliques of ``g``, in the order found,
    and the number of expand calls it took. Each call branches from its
    highest vertex down. A branch left with no candidates is settled in its
    parent, and counted as the call it would have been."""
    if g.vertex_count == 0:
        return [], 0
    rows = g.rows
    # Each loop peels its top vertex with one new int, bits[i], not the two
    # that peeling the low bit (x & -x, then x ^ low) makes.
    bits = [1 << i for i in range(g.vertex_count)]
    found: list[int] = []
    calls = 0

    def expand(base: int, cand: int, excl: int) -> None:
        # Entered only with candidates left.
        nonlocal calls
        calls += 1
        # Tomita, Tanaka & Takahashi (2006): pivot on the vertex of P | X
        # with the most neighbours in P, so the fewest branches remain.
        best = -1
        rest = cand | excl
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
            sub = cand & row
            if sub:
                expand(base | bit, sub, excl & row)
            else:
                calls += 1
                if not excl & row:
                    found.append(base | bit)
            cand ^= bit
            excl |= bit

    expand(0, (1 << g.vertex_count) - 1, 0)
    return found, calls


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one (n, m) pair against the brute-force oracle.

    All checks are reported, never raised. ``checks`` maps each check's name
    to its outcome, in report order, and ``passed`` is their conjunction.
    ``notes`` carries explanations, in particular that the class-max family
    does not apply in the degenerate regime n == m+1.
    ``phase_seconds`` holds the time of each of VERIFY_PHASES; ``counters``
    holds vertices, edges, Bron-Kerbosch expand calls and cliques found.
    """

    params: JohnsonParams
    oracle_clique_count: int
    closed_form_count: int
    checks: dict[str, bool]
    max_clique_size_observed: int
    elapsed_seconds: float
    phase_seconds: dict[str, float]
    counters: dict[str, int]
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        # elapsed_seconds, phase_seconds and counters are deliberately left
        # out: report lines must be byte-identical across runs.
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

    params: JohnsonParams
    reason: str

    def to_dict(self) -> dict:
        return {"n": self.params.n, "m": self.params.m, "skipped": self.reason}


def _covers_each_edge_once(masks: Iterable[int], rows: tuple[int, ...]) -> bool:
    """Whether the cliques with these vertex masks cover every edge of the
    graph with adjacency ``rows`` exactly once, and no non-edge pair."""
    cover = [0] * len(rows)
    for mask in masks:
        for i in _mask_vertices(mask):
            if cover[i] & mask:
                return False
            cover[i] |= mask ^ (1 << i)
    return cover == list(rows)


def verify(p: JohnsonParams, max_vertices: int | None = None) -> VerificationReport:
    """Run every closed-form claim for one (n, m) against the oracle. The
    cap is materialize()'s: ``max_vertices``, or the default read at the call."""
    marks = [time.perf_counter()]
    labels, g = _build(p, max_vertices)
    marks.append(time.perf_counter())
    notes: list[str] = []
    n, m = p.n, p.m

    oracle, expand_calls = _bron_kerbosch(g)
    marks.append(time.perf_counter())
    max_size = max(mask.bit_count() for mask in oracle)

    # A clique's common elements are the AND of its members' label masks.
    label_masks = [sum(1 << e for e in label) for label in labels]
    faults: list[tuple[tuple[int, ...], str]] = []
    # Keys in report order: sets_equal leads, but is decided after the laws.
    checks = dict.fromkeys(("sets_equal", "intersection_sizes_ok", "size_laws_ok"), True)
    for mask in oracle:
        members = _mask_vertices(mask)
        shared = -1
        for i in members:
            shared &= label_masks[i]
        common = shared.bit_count()
        if common not in (0, m - 1):
            checks["intersection_sizes_ok"] = False
            labels_in = sorted(labels[i] for i in members)
            faults.append((members, f"clique {labels_in} has intersection size {common}"))
            continue
        expected = m + 1 if common == 0 else n - m + 1
        if len(members) != expected:
            checks["size_laws_ok"] = False
            faults.append((members, f"clique with intersection size {common} has "
                                    f"{len(members)} members, expected {expected}"))
    # One note per faulty clique, in the sorted order of maximal_cliques().
    notes.extend(note for _, note in sorted(faults))

    # Closed-form members reach the rows only through the oracle's own labels.
    bit_of = {label: 1 << i for i, label in enumerate(labels)}.__getitem__

    def masks_of(family) -> list[int]:
        return [sum(map(bit_of, h.members())) for h in family]

    # (class, masks, k): each clique of a class is fixed by a k-set.
    classes = [("class-min", masks_of(enumerate_min_cliques(p)), m + 1)]
    if p.degenerate:
        notes.append(
            "degenerate regime (n == m+1): the graph is complete, the sole maximal "
            "clique is the class-min one, and the class-max family is inapplicable"
        )
    else:
        classes.append(("class-max", masks_of(enumerate_max_cliques(p)), m - 1))
    families = [set(masks) for _, masks, _ in classes]
    closed = set().union(*families)
    if len(closed) < sum(map(len, families)):
        notes.append("class-min and class-max families overlap; they must be disjoint")
    closed_form_count = len(closed)
    checks["sets_equal"] = set(oracle) == closed and len(oracle) == closed_form_count
    for (name, _, k), family in zip(classes, families):
        if len(family) != binomial(n, k):
            checks["sets_equal"] = False
            notes.append(f"{name} family has {len(family)} cliques, expected C({n},{k})")

    checks["clique_number_ok"] = max_size == clique_number(p)
    if not checks["clique_number_ok"]:
        notes.append(f"observed maximum clique size {max_size}, formula gives {clique_number(p)}")
    marks.append(time.perf_counter())

    identity_ok = (
        binomial(n, m + 1) * binomial(m + 1, 2)
        == edge_count(p)
        == binomial(n, m - 1) * binomial(n - m + 1, 2)
    )
    checks["edge_law_ok"] = identity_ok and all(
        _covers_each_edge_once(masks, g.rows) for _, masks, _ in classes
    )
    if not checks["edge_law_ok"]:
        notes.append("edge law failed: some edge is not in exactly one clique per class")
    marks.append(time.perf_counter())

    try:
        part = clique_partition(p)
        checks["partition_ok"] = (
            len(part.parts) == clique_partition_number(p)
            and part.covered_edge_count == edge_count(p)
            and _covers_each_edge_once(masks_of(part.parts), g.rows)
        )
    except InternalConsistencyError as exc:
        checks["partition_ok"] = False
        notes.append(f"partition failed: {exc}")
    marks.append(time.perf_counter())

    return VerificationReport(
        params=p,
        oracle_clique_count=len(oracle),
        closed_form_count=closed_form_count,
        checks=checks,
        max_clique_size_observed=max_size,
        elapsed_seconds=marks[-1] - marks[0],
        phase_seconds={
            phase: end - start for phase, start, end in zip(VERIFY_PHASES, marks, marks[1:])
        },
        counters={
            "vertices": g.vertex_count,
            "edges": g.edge_total(),
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
) -> Iterator[VerificationReport | SkippedPair]:
    """Verify each valid pair (n, m), m >= 2 and m+1 <= n <= MAX_GROUND_SET,
    with m in ``m_values`` and n in ``n_values``: collections only tested
    with ``in``, never iterated, so ranges of any width are cheap. Results
    come in (m, n) order as they are ready, whatever ``jobs`` is. A pair over
    ``max_vertices`` (default: DEFAULT_MATERIALIZE_CAP, read once at the call,
    for every worker) yields a SkippedPair and the sweep goes on. ``jobs``
    and ``max_vertices`` below 1 raise ValidationError at the call, before
    any pair is checked, as do values that are not ints."""
    _check_knob("jobs", jobs)
    max_vertices = DEFAULT_MATERIALIZE_CAP if max_vertices is None else max_vertices
    _check_knob("max_vertices", max_vertices)
    pairs = [
        JohnsonParams(n, m)
        for m in range(2, MAX_GROUND_SET)
        if m in m_values
        for n in range(m + 1, MAX_GROUND_SET + 1)
        if n in n_values
    ]
    check = partial(_verify_or_skip, max_vertices=max_vertices)
    workers = _worker_count(jobs, len(pairs))
    if workers <= 1:
        return map(check, pairs)
    return _pooled(check, pairs, workers)


def _pooled(check, pairs: list[JohnsonParams], workers: int) -> Iterator:
    # Imported here: the pool pulls in multiprocessing, which only jobs > 1 uses.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(check, pairs)


def _verify_or_skip(p: JohnsonParams, max_vertices: int) -> VerificationReport | SkippedPair:
    try:
        _check_cap(p, max_vertices, "materialization")
    except RangeError as exc:
        return SkippedPair(p, str(exc))
    return verify(p, max_vertices)


def _worker_count(jobs: int, pair_count: int) -> int:
    """Processes worth starting for ``pair_count`` pairs: ``jobs``, bounded by
    the pair count and the CPU count."""
    return min(jobs, pair_count, os.cpu_count() or 1)
