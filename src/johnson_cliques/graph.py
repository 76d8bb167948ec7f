"""The Johnson graph J_n(m, m-1) as an implicit graph.

Vertices are the m-subsets of {1..n}; two vertices are adjacent exactly when
their labels share m-1 elements, i.e. when one label is the other with one
element swapped for one outside it. Per-label queries (adjacency,
neighborhoods) store nothing and work even when C(n, m) is far too large to
materialize. The bulk paths (the edge stream and export) hold all C(n, m)
labels and their bit masks, and walk the single swaps of each label to find
the ranks of its later neighbours only, already ascending: each edge is
found once, from its colex-smaller end. export() writes the edge lines of a
fixed number of vertices per write. The oracle builds its dense graph from
the pairwise definition instead, so it shares no code with this walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice, zip_longest
from typing import BinaryIO, Callable, Iterable, Iterator

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

#: Largest graph edges() and export() list by default; read at each call.
DEFAULT_EXPORT_CAP = 100_000

EXPORT_FORMATS = ("dot", "json", "edgelist")


@dataclass(frozen=True)
class JohnsonParams:
    """Parameters (n, m) of J_n(m, m-1).

    Requires ints m >= 2 and n >= m + 1. The boundary n == m + 1 is
    accepted but degenerate: the graph is the complete graph K_{m+1} and
    the closed-form counting of fixed-core maximal cliques does not apply
    there (see the cliques module).
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if type(self.m) is not int or self.m < 2:
            raise ValidationError(f"m must be an int of at least 2, got m={self.m!r}")
        if type(self.n) is not int or self.n < self.m + 1:
            raise ValidationError(f"n must be an int of at least m+1={self.m + 1}, got n={self.n!r}")
        if self.n > MAX_GROUND_SET:
            raise RangeError(f"n={self.n} exceeds the supported bound n <= {MAX_GROUND_SET}")

    @property
    def degenerate(self) -> bool:
        """True when n == m + 1, i.e. the graph is complete."""
        return self.n == self.m + 1


def _check_params(p: object) -> None:
    """Refuse a ``p`` that is not a JohnsonParams, such as an (n, m) tuple."""
    if not isinstance(p, JohnsonParams):
        raise ValidationError(f"expected JohnsonParams, got {p!r}")


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
    _check_params(p)
    return binomial(p.n, p.m)


def edge_count(p: JohnsonParams) -> int:
    """Number of undirected edges, C(n, m) * m * (n - m) / 2."""
    _check_params(p)
    return binomial(p.n, p.m) * p.m * (p.n - p.m) // 2


def are_adjacent(u: Label, v: Label) -> bool:
    """True when the two labels differ by exactly one element swap."""
    validate_label(u, MAX_GROUND_SET)
    validate_label(v, MAX_GROUND_SET, len(u))
    return len(set(u) & set(v)) == len(u) - 1


def neighbors(u: Label, p: JohnsonParams) -> list[Label]:
    """The m*(n-m) labels adjacent to ``u``, in colex order.

    Each edge {u, v} lies in one class-min clique, the m-subsets of u | v,
    so the neighbours are the rows of combinations(u | {y}, m) but ``u``, for
    each y outside ``u``, ascending. The rows drop the largest element first,
    so they run in colex order (the numeric order of the bit masks): the rows
    before ``u`` are transposed to x descending, then y ascending (x the
    element dropped), and the rows after it follow as they are. No sort runs.
    """
    _check_params(p)
    validate_label(u, p.n, p.m)
    m = len(u)
    bounds = (0, *u, p.n + 1)
    lows, highs = [], []
    for k in range(m + 1):
        # The y between u[k-1] and u[k] go in at index k.
        if ys := range(bounds[k] + 1, bounds[k + 1]):
            head, tail = u[:k], u[k:]
            for y in ys:
                rows = list(combinations(head + (y,) + tail, m))
                lows.append(rows[: m - k])
                highs += rows[m - k + 1 :]
    # The runs before u shorten as y grows: zip_longest pads only their ends.
    return [*filter(None, chain.from_iterable(zip_longest(*lows))), *highs]


def _swap_walk(p: JohnsonParams) -> tuple[list[Label], Iterator[list[int]]]:
    """The labels in colex order and, lazily, each vertex's later neighbour
    ranks: for vertex i, the ranks j > i of its neighbours, ascending.

    Colex order on m-sets is the numeric order of their bit masks, as in
    neighbors(), so the later neighbours of a label swap one element x for
    an outside element y > x, in order of y ascending, then x descending.
    Each run of outside elements between the k-th and (k+1)-th element of
    the label pairs with the masks that drop one of its k smallest elements,
    largest first: one lookup per edge in a mask -> rank dict, with no sort.
    Holds all C(n, m) labels, masks and dict entries up front.
    """
    labels = list(iter_subsets_colex(p.n, p.m))
    bits = [1 << e for e in range(p.n + 1)]
    masks = [sum(bits[e] for e in label) for label in labels]
    rank_of = {mask: i for i, mask in enumerate(masks)}
    ends = (p.n + 1,)
    # rests[start:] drops one of the m - start smallest elements, largest
    # first; the run after the label's i-th element uses start = m-1-i.
    starts = range(p.m - 1, -1, -1)

    def later_ranks() -> Iterator[list[int]]:
        for label, mask in zip(labels, masks):
            rests = [mask ^ bits[e] for e in reversed(label)]
            yield [
                rank_of[rest | bit]
                for x, end, start in zip(label, label[1:] + ends, starts)
                if end > x + 1
                for lows in (rests[start:],)
                for bit in bits[x + 1 : end]
                for rest in lows
            ]

    return labels, later_ranks()


def edges(p: JohnsonParams) -> Iterator[tuple[Label, Label]]:
    """All edges exactly once as (u, v) label pairs, sorted by (colex rank
    of u, colex rank of v).

    Like export(), the call refuses a graph over DEFAULT_EXPORT_CAP vertices,
    read when the call is made, with RangeError before it lists any label. It
    then holds all C(n, m) labels, their bit masks and a mask -> rank dict,
    O(C(n, m)) memory, and streams the edges from the walk's later ranks.
    """
    _check_cap(p, DEFAULT_EXPORT_CAP, "export")
    labels, later_ranks = _swap_walk(p)
    return ((u, labels[j]) for u, later in zip(labels, later_ranks) for j in later)


def _check_cap(p: JohnsonParams, max_vertices: int, cap: str) -> None:
    """Refuse a ``p`` as _check_params does, a cap as _check_knob does, and a
    graph with more than ``max_vertices`` vertices (RangeError, naming the
    ``cap``)."""
    _check_params(p)
    _check_knob("max_vertices", max_vertices)
    nv = vertex_count(p)
    if nv > max_vertices:
        raise RangeError(f"graph has {nv} vertices, above the {cap} cap {max_vertices}")


def _check_knob(name: str, value: int) -> None:
    """Refuse a resource knob that is not an int (a bool included) of at least 1."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValidationError(f"{name} must be at least 1, got {value}")


#: Vertices whose edge lines export() joins into one write.
_CHUNK_VERTICES = 256


def export(p: JohnsonParams, fmt: str, sink: BinaryIO, max_vertices: int | None = None) -> None:
    """Write the whole graph to ``sink`` as UTF-8 bytes.

    Formats:
      * ``edgelist`` -- one edge per line, ``{a,..} -- {b,..}``, canonical order.
      * ``dot``      -- ``graph J_n_m { "a_b" -- "a_c"; ... }``.
      * ``json``     -- ``{"n":..,"m":..,"vertices":[[..],..],"edges":[[i,j],..]}``
                        with vertices in colex order and edges as rank pairs.

    Refuses caps below 1, graphs with more than ``max_vertices`` vertices
    (default: DEFAULT_EXPORT_CAP, read when the call is made), and
    unknown formats, before any work. Like edges(), it holds all C(n, m)
    labels and their bit masks, O(C(n, m)) memory. The formats differ only
    in each vertex's name (the label, its DOT id or its rank) and the fixed
    text around each edge: each name is formatted once, each vertex's later
    neighbours are joined into its edge lines at once, and the lines of
    _CHUNK_VERTICES vertices go out as one write.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValidationError(f"unknown export format {fmt!r}, expected one of {EXPORT_FORMATS}")
    _check_cap(p, DEFAULT_EXPORT_CAP if max_vertices is None else max_vertices, "export")
    labels, later_ranks = _swap_walk(p)
    # The text of edge (u, v) is left + names[u] + mid + names[v] + right,
    # and consecutive edges are separated by sep.
    if fmt == "edgelist":
        names = [format_label(u) for u in labels]
        opening = closing = ""
        left, mid, right, sep = "", " -- ", "\n", ""
    elif fmt == "dot":
        names = ["_".join(map(str, u)) for u in labels]
        opening, closing = f"graph J_{p.n}_{p.m} {{\n", "}\n"
        left, mid, right, sep = '  "', '" -- "', '";\n', ""
    else:
        names = [str(i) for i in range(len(labels))]
        vertices = ",".join(["[" + ",".join(map(str, u)) + "]" for u in labels])
        opening = f'{{"n":{p.n},"m":{p.m},"vertices":[{vertices}],"edges":['
        closing = "]}\n"
        left, mid, right, sep = "[", ",", "]", ","
    heads = (left + name + mid for name in names)
    # The last vertex has no later neighbour, and so no edge text.
    blocks = (
        head + (right + sep + head).join([names[j] for j in later]) + right
        for head, later in zip(heads, later_ranks)
        if later
    )
    sink.write(opening.encode())
    _write_chunked(lambda text: sink.write(text.encode()), blocks, sep, _CHUNK_VERTICES)
    sink.write(closing.encode())


def _write_chunked(
    write: Callable[[str], object], items: Iterable[str], sep: str, size: int
) -> int:
    """Pass ``items``, separated by ``sep``, to ``write`` ``size`` items at a
    time; return the number of items."""
    items = iter(items)
    lead = ""
    count = 0
    while chunk := list(islice(items, size)):
        write(lead + sep.join(chunk))
        lead = sep
        count += len(chunk)
    return count
