"""The Johnson graph J_n(m, m-1) as an implicit graph.

Vertices are the m-subsets of {1..n}; two vertices are adjacent exactly when
their labels share m-1 elements, i.e. when one label is the other with one
element swapped for one outside it. Per-label queries (adjacency,
neighborhoods) store nothing and work even when C(n, m) is far too large to
materialize. The bulk paths (the edge stream and export) hold all C(n, m)
labels and their bit masks, and walk the single swaps of each label to find
its later neighbours only, already ascending: each edge is found once, from
its colex-smaller end, as the value its caller gave that neighbour (a label,
or export's text of it). export() writes the edge lines of a fixed number
of vertices per write.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain, combinations, islice, zip_longest
from typing import BinaryIO, Callable, Iterable, Iterator

from . import combinat
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
        combinat.binomial(self.n, self.m)  # binomial owns the n <= MAX_GROUND_SET rule

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

    u: combinat.Label
    v: combinat.Label

    def __post_init__(self) -> None:
        if not are_adjacent(self.u, self.v):
            raise ValidationError(f"{self.u} and {self.v} are not adjacent")
        if combinat.colex_key(self.u) > combinat.colex_key(self.v):
            u, v = self.u, self.v
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)


def vertex_count(p: JohnsonParams) -> int:
    """Number of vertices, C(n, m)."""
    _check_params(p)
    return combinat.binomial(p.n, p.m)


def edge_count(p: JohnsonParams) -> int:
    """Number of undirected edges, C(n, m) * m * (n - m) / 2."""
    _check_params(p)
    return combinat.binomial(p.n, p.m) * p.m * (p.n - p.m) // 2


def are_adjacent(u: combinat.Label, v: combinat.Label) -> bool:
    """True when the two labels differ by exactly one element swap."""
    combinat.validate_label(u, combinat.MAX_GROUND_SET)
    combinat.validate_label(v, combinat.MAX_GROUND_SET, len(u))
    return len(set(u) & set(v)) == len(u) - 1


def neighbors(u: combinat.Label, p: JohnsonParams) -> list[combinat.Label]:
    """The m*(n-m) labels adjacent to ``u``, in colex order.

    Each edge {u, v} lies in one class-min clique, the m-subsets of u | v,
    so the neighbours are the rows of combinations(u | {y}, m) but ``u``, for
    each y outside ``u``, ascending, from combinat._insertions(). The rows
    drop the largest element first, so they run in colex order (the bit masks'
    order): the rows before ``u`` are transposed to x descending, then y
    ascending (x the element dropped), and the rows after it follow. No sort.
    """
    _check_params(p)
    combinat.validate_label(u, p.n, p.m)
    m, lows, highs = len(u), [], []
    for k, head, tail, ys in combinat._insertions(u, p.n):
        cut = m - k
        for y in ys:
            rows = list(combinations(head + (y,) + tail, m))
            lows.append(rows[:cut])
            highs += rows[cut + 1 :]
    # The runs before u shorten as y grows: zip_longest pads only their ends.
    return [*filter(None, chain.from_iterable(zip_longest(*lows))), *highs]


def _swap_walk(p: JohnsonParams) -> tuple[list[combinat.Label], Callable[[Iterable], Iterator[list]]]:
    """The labels in colex order, and the walk: given one value per label,
    in that order, it lazily yields each vertex's later neighbours' values,
    for vertex i those of its neighbours j > i, in order of j ascending.

    Colex order on m-sets is the numeric order of their bit masks, as in
    neighbors(), so the later neighbours of a label swap one element x for
    an outside element y > x, in order of y ascending, then x descending.
    Each run of outside elements between the k-th and (k+1)-th element of
    the label pairs with the masks that drop one of its k smallest elements,
    largest first: one lookup per edge in a mask -> value dict, which the
    walk fills from the caller's values, with no sort. Holds all C(n, m)
    labels and masks up front, each list built by runs, and the dict while
    the walk runs.
    """
    bits = [1 << e for e in range(p.n + 1)]
    singles = [(e,) for e in range(p.n + 1)]
    labels = _colex_values(p, singles, singles, ())
    masks = _colex_values(p, bits, bits, 0)
    ends = (p.n + 1,)
    # rests[start:] drops one of the m - start smallest elements, largest
    # first; the run after the label's i-th element uses start = m-1-i.
    starts = range(p.m - 1, -1, -1)

    def walk(values: Iterable) -> Iterator[list]:
        value_of = dict(zip(masks, values))
        for label, mask in zip(labels, masks):
            rests = [mask ^ bits[e] for e in reversed(label)]
            yield [
                value_of[rest | bit]
                for x, end, start in zip(label, label[1:] + ends, starts)
                if end > x + 1
                for lows in (rests[start:],)
                for bit in bits[x + 1 : end]
                for rest in lows
            ]

    return labels, walk


def _colex_values(p: JohnsonParams, firsts: list, others: list, tail) -> list:
    """The value of each m-subset of {1..n}, in colex order, built as
    combinat._colex_runs() says from ``firsts``, ``others`` and ``tail``."""
    runs = combinat._colex_runs(p.n, p.m, firsts, others, tail)
    return [q + rest for prefixes, rest in runs for q in prefixes]


def edges(p: JohnsonParams) -> Iterator[tuple[combinat.Label, combinat.Label]]:
    """All edges exactly once as (u, v) label pairs, sorted by (colex rank
    of u, colex rank of v).

    Like export(), the call refuses a graph over DEFAULT_EXPORT_CAP vertices,
    read when the call is made, with RangeError before it lists any label. It
    then holds all C(n, m) labels, their bit masks and a mask -> label dict,
    O(C(n, m)) memory, and streams the edges from the walk's later labels.
    """
    _check_cap(p, DEFAULT_EXPORT_CAP, "export")
    labels, walk = _swap_walk(p)
    return ((u, v) for u, later in zip(labels, walk(labels)) for v in later)


def _check_cap(p: JohnsonParams, max_vertices: int, cap: str) -> None:
    """Refuse a ``p`` as _check_params does, a cap as _check_knob does, and a
    graph with more than ``max_vertices`` vertices (RangeError, naming the
    ``cap``)."""
    _check_params(p)
    _check_knob("max_vertices", max_vertices)
    nv = combinat.binomial(p.n, p.m)
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
    (default: DEFAULT_EXPORT_CAP, read when the call is made), unknown
    formats, and a sink with no callable ``write`` or a text stream's, before
    any work. Like edges(), it holds all C(n, m) labels and their bit masks,
    O(C(n, m)) memory. The formats differ only in each vertex's name (the
    label, its DOT id or its rank) and the fixed text around each edge: the
    names are built by runs, as the labels are, and fill the walk's table,
    so the walk yields each vertex's later neighbours by name, which are
    joined into its edge lines at once, and the lines of _CHUNK_VERTICES
    vertices go out as one write.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValidationError(f"unknown export format {fmt!r}, expected one of {EXPORT_FORMATS}")
    if isinstance(sink, io.TextIOBase) or not callable(getattr(sink, "write", None)):
        raise ValidationError(f"sink must have a callable write that takes bytes, got {sink!r}")
    _check_cap(p, DEFAULT_EXPORT_CAP if max_vertices is None else max_vertices, "export")
    labels, walk = _swap_walk(p)
    digits = [str(e) for e in range(p.n + 1)]

    def texts(opening: str, between: str, closing: str) -> list[str]:
        # Each label's elements joined by ``between``, in colex order.
        return _colex_values(p, [opening + d for d in digits], [between + d for d in digits], closing)

    # The text of edge (u, v) is left + names[u] + mid + names[v] + right,
    # and consecutive edges are separated by sep.
    if fmt == "edgelist":
        names = texts("{", ",", "}")
        opening = closing = ""
        left, mid, right, sep = "", " -- ", "\n", ""
    elif fmt == "dot":
        names = texts("", "_", "")
        opening, closing = f"graph J_{p.n}_{p.m} {{\n", "}\n"
        left, mid, right, sep = '  "', '" -- "', '";\n', ""
    else:
        names = [str(i) for i in range(len(labels))]
        vertices = ",".join(texts("[", ",", "]"))
        opening = f'{{"n":{p.n},"m":{p.m},"vertices":[{vertices}],"edges":['
        closing = "]}\n"
        left, mid, right, sep = "[", ",", "]", ","
    heads = (left + name + mid for name in names)
    # The last vertex has no later neighbour, and so no edge text.
    blocks = (
        head + (right + sep + head).join(later) + right
        for head, later in zip(heads, walk(names))
        if later
    )
    sink.write(opening.encode())
    lead = ""
    while chunk := list(islice(blocks, _CHUNK_VERTICES)):
        sink.write((lead + sep.join(chunk)).encode())
        lead = sep
    sink.write(closing.encode())

