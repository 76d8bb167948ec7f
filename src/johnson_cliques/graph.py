"""The Johnson graph J_n(m, m-1) as an implicit graph.

Vertices are the m-subsets of {1..n}; two vertices are adjacent exactly when
their labels share m-1 elements. Nothing is stored: adjacency, neighborhoods,
and the edge stream are computed from labels on demand, so queries work even
when C(n, m) is far too large to materialize.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import BinaryIO, Iterator

from .combinat import (
    MAX_GROUND_SET,
    Label,
    binomial,
    colex_key,
    format_label,
    rank,
    unrank,
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

    Each neighbor swaps one element of ``u`` for one element outside it.
    """
    validate_label(u, p.n, p.m)
    inside = set(u)
    out: list[Label] = []
    for y in range(1, p.n + 1):
        if y in inside:
            continue
        for x in u:
            out.append(tuple(sorted((inside - {x}) | {y})))
    out.sort(key=colex_key)
    return out


def edges(p: JohnsonParams) -> Iterator[tuple[Label, Label]]:
    """All edges exactly once as (u, v) label pairs, sorted by (colex rank
    of u, colex rank of v)."""
    for r in range(vertex_count(p)):
        u = unrank(r, p.n, p.m)
        ku = colex_key(u)
        for v in neighbors(u, p):
            if colex_key(v) > ku:
                yield u, v


def _node_id(label: Label) -> str:
    return "_".join(str(e) for e in label)


def export(p: JohnsonParams, fmt: str, sink: BinaryIO, max_vertices: int = DEFAULT_EXPORT_CAP) -> None:
    """Write the whole graph to ``sink`` as UTF-8 bytes.

    Formats:
      * ``edgelist`` -- one edge per line, ``{a,..} -- {b,..}``, canonical order.
      * ``dot``      -- ``graph J_n_m { "a_b" -- "a_c"; ... }``.
      * ``json``     -- ``{"n":..,"m":..,"vertices":[[..],..],"edges":[[i,j],..]}``
                        with vertices in colex order and edges as rank pairs.

    Refuses graphs with more than ``max_vertices`` vertices.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValidationError(f"unknown export format {fmt!r}, expected one of {EXPORT_FORMATS}")
    nv = vertex_count(p)
    if nv > max_vertices:
        raise RangeError(f"graph has {nv} vertices, above the export cap {max_vertices}")

    if fmt == "edgelist":
        for u, v in edges(p):
            sink.write(f"{format_label(u)} -- {format_label(v)}\n".encode())
    elif fmt == "dot":
        sink.write(f"graph J_{p.n}_{p.m} {{\n".encode())
        for u, v in edges(p):
            sink.write(f'  "{_node_id(u)}" -- "{_node_id(v)}";\n'.encode())
        sink.write(b"}\n")
    else:
        payload = {
            "n": p.n,
            "m": p.m,
            "vertices": [list(unrank(r, p.n, p.m)) for r in range(nv)],
            "edges": [[rank(u, p.n), rank(v, p.n)] for u, v in edges(p)],
        }
        sink.write(json.dumps(payload, separators=(",", ":")).encode() + b"\n")
