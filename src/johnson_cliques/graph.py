"""The Johnson graph J_n(m, m-1) as an implicit graph.

Vertices are the m-subsets of {1..n}; two vertices are adjacent exactly when
their labels share m-1 elements, i.e. when one label is the other with one
element swapped for one outside it. Per-label queries (adjacency,
neighborhoods) store nothing and work even when C(n, m) is far too large to
materialize. The bulk paths (the edge stream, export and the oracle's dense
build) hold all C(n, m) labels and their bit masks, and walk the single swaps
of each label to find its neighbours' ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Iterator

from .combinat import (
    MAX_GROUND_SET,
    Label,
    binomial,
    colex_key,
    format_label,
    iter_subsets_colex,
    validate_label,
)
from .errors import RangeError, ValidationError

#: Largest graph export() will materialize by default.
DEFAULT_EXPORT_CAP = 100_000

EXPORT_FORMATS = ("dot", "json", "edgelist")


@dataclass(frozen=True)
class JohnsonParams:
    """Parameters (n, m) of J_n(m, m-1).

    Requires m >= 2 and n >= m + 1. The boundary n == m + 1 is accepted but
    degenerate: the graph is the complete graph K_{m+1} and the closed-form
    counting of fixed-core maximal cliques does not apply there (see the
    cliques module).
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValidationError(f"m must be at least 2, got m={self.m}")
        if self.n < self.m + 1:
            raise ValidationError(f"n must be at least m+1={self.m + 1}, got n={self.n}")
        if self.n > MAX_GROUND_SET:
            raise RangeError(f"n={self.n} exceeds the supported bound n <= {MAX_GROUND_SET}")

    @property
    def degenerate(self) -> bool:
        """True when n == m + 1, i.e. the graph is complete."""
        return self.n == self.m + 1


@dataclass(frozen=True)
class Edge:
    """An undirected edge between two adjacent labels; endpoints are stored
    colex-smaller first."""

    u: Label
    v: Label

    def __post_init__(self) -> None:
        if not are_adjacent(self.u, self.v):
            raise ValidationError(f"{self.u} and {self.v} are not adjacent")
        if colex_key(self.u) > colex_key(self.v):
            u, v = self.u, self.v
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)


def vertex_count(p: JohnsonParams) -> int:
    """Number of vertices, C(n, m)."""
    return binomial(p.n, p.m)


def edge_count(p: JohnsonParams) -> int:
    """Number of undirected edges, C(n, m) * m * (n - m) / 2."""
    return binomial(p.n, p.m) * p.m * (p.n - p.m) // 2


def are_adjacent(u: Label, v: Label) -> bool:
    """True when the two labels differ by exactly one element swap."""
    validate_label(u, MAX_GROUND_SET)
    validate_label(v, MAX_GROUND_SET, len(u))
    return len(set(u) & set(v)) == len(u) - 1


def neighbors(u: Label, p: JohnsonParams) -> list[Label]:
    """The m*(n-m) labels adjacent to ``u``, in colex order.

    Each neighbor swaps one element x of ``u`` for one element y outside it.
    Colex order on m-sets is the numeric order of their bit masks, so the
    output order is known up front and each neighbor is built once, by
    slicing ``u``, with no sort. First the swaps with y < x, which precede
    ``u``: x descending, then y ascending. Then the swaps with y > x, which
    follow ``u``: y ascending, then x descending.
    """
    validate_label(u, p.n, p.m)
    m = len(u)
    bounds = (0, *u, p.n + 1)
    # gaps[k]: the elements outside u that sort between u[k-1] and u[k], so
    # that y in gaps[k] is inserted at index k.
    gaps = [
        (k, range(bounds[k] + 1, bounds[k + 1]))
        for k in range(m + 1)
        if bounds[k + 1] > bounds[k] + 1
    ]
    out: list[Label] = []
    for i in range(m - 1, -1, -1):
        tail = u[i + 1 :]
        for k, ys in gaps:
            if k > i:
                break
            head, rest = u[:k], u[k:i] + tail
            out += [head + (y,) + rest for y in ys]
    for k, ys in gaps:
        heads = [u[:i] + u[i + 1 : k] for i in range(k - 1, -1, -1)]
        for y in ys:
            tail = (y,) + u[k:]
            out += [head + tail for head in heads]
    return out


def _swap_walk(p: JohnsonParams) -> tuple[list[Label], Iterator[list[int]]]:
    """The labels in colex order and, lazily, each vertex's neighbour ranks.

    Vertex i's neighbours are labels[i] with one element swapped for one
    outside it: m(n-m) lookups of bit masks in one mask -> rank dict, yielded
    as an ascending list. Holds all C(n, m) labels, masks and dict entries up
    front.
    """
    labels = list(iter_subsets_colex(p.n, p.m))
    bits = [1 << e for e in range(p.n + 1)]
    masks = [sum(bits[e] for e in label) for label in labels]
    rank_of = {mask: i for i, mask in enumerate(masks)}

    def neighbour_ranks() -> Iterator[list[int]]:
        for label, mask in zip(labels, masks):
            rests = [mask ^ bits[e] for e in label]
            outside = [bit for bit in bits[1:] if not mask & bit]
            ranks = [rank_of[rest | bit] for rest in rests for bit in outside]
            ranks.sort()
            yield ranks

    return labels, neighbour_ranks()


def edges(p: JohnsonParams) -> Iterator[tuple[Label, Label]]:
    """All edges exactly once as (u, v) label pairs, sorted by (colex rank
    of u, colex rank of v).

    Before the first edge it holds all C(n, m) labels, their bit masks and
    a mask -> rank dict, O(C(n, m)) memory; the edges themselves are
    streamed. So, like export(), it refuses graphs with more than
    DEFAULT_EXPORT_CAP vertices (RangeError) before it lists any label.
    """
    _check_export_cap(p, DEFAULT_EXPORT_CAP)
    labels, neighbour_ranks = _swap_walk(p)
    for i, ranks in enumerate(neighbour_ranks):
        u = labels[i]
        for j in ranks:
            if j > i:
                yield u, labels[j]


def _check_export_cap(p: JohnsonParams, max_vertices: int) -> None:
    nv = vertex_count(p)
    if nv > max_vertices:
        raise RangeError(f"graph has {nv} vertices, above the export cap {max_vertices}")


def _node_id(label: Label) -> str:
    return "_".join(str(e) for e in label)


def export(p: JohnsonParams, fmt: str, sink: BinaryIO, max_vertices: int | None = None) -> None:
    """Write the whole graph to ``sink`` as UTF-8 bytes.

    Formats:
      * ``edgelist`` -- one edge per line, ``{a,..} -- {b,..}``, canonical order.
      * ``dot``      -- ``graph J_n_m { "a_b" -- "a_c"; ... }``.
      * ``json``     -- ``{"n":..,"m":..,"vertices":[[..],..],"edges":[[i,j],..]}``
                        with vertices in colex order and edges as rank pairs.

    Refuses graphs with more than ``max_vertices`` vertices (default:
    DEFAULT_EXPORT_CAP, read at call time as edges() does), and unknown
    formats, before any work. Like edges(), it holds all C(n, m) labels and
    their bit masks, O(C(n, m)) memory; each label is formatted once, and
    the edges of every format are written one chunk per vertex.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValidationError(f"unknown export format {fmt!r}, expected one of {EXPORT_FORMATS}")
    _check_export_cap(p, DEFAULT_EXPORT_CAP if max_vertices is None else max_vertices)
    labels, neighbour_ranks = _swap_walk(p)
    if fmt == "edgelist":
        names = [format_label(u) for u in labels]
        for i, ranks in enumerate(neighbour_ranks):
            lines = (f"{names[i]} -- {names[j]}\n" for j in ranks if j > i)
            sink.write("".join(lines).encode())
    elif fmt == "dot":
        names = [_node_id(u) for u in labels]
        sink.write(f"graph J_{p.n}_{p.m} {{\n".encode())
        for i, ranks in enumerate(neighbour_ranks):
            lines = (f'  "{names[i]}" -- "{names[j]}";\n' for j in ranks if j > i)
            sink.write("".join(lines).encode())
        sink.write(b"}\n")
    else:
        vertices = ",".join(["[" + ",".join(map(str, u)) + "]" for u in labels])
        sink.write(f'{{"n":{p.n},"m":{p.m},"vertices":[{vertices}],"edges":['.encode())
        lead = ""
        for i, ranks in enumerate(neighbour_ranks):
            pairs = [f"[{i},{j}]" for j in ranks if j > i]
            if pairs:
                sink.write((lead + ",".join(pairs)).encode())
                lead = ","
        sink.write(b"]}\n")
