"""Closed-form clique structure of J_n(m, m-1).

Every maximal clique of the graph belongs to exactly one of two classes,
told apart by the intersection of all member labels:

* class ``min`` -- the members are all m-subsets of a fixed (m+1)-element
  set B; the total intersection is empty; there are m+1 members. There is
  one such clique per (m+1)-subset B of {1..n}.
* class ``max`` -- the members are A plus one extra element, for a fixed
  (m-1)-element core A and every choice of extra element outside A; the
  total intersection is A; there are n-m+1 members. There is one such
  clique per (m-1)-subset A, provided n >= m+2. When n == m+1 those
  candidates have only two members inside the complete graph K_{m+1} and
  are not maximal, so the class is rejected as a regime error.

Maximal cliques are stored by defining set only (B or A); member lists are
expanded on demand. A clique with more than two members extends to exactly
one maximal clique, an edge to one of each class, which is what makes the
closed-form edge partitions below work.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator

from .combinat import (
    Label,
    binomial,
    colex_key,
    iter_subsets_colex,
    make_label,
    validate_label,
)
from .errors import InternalConsistencyError, RegimeError, ValidationError
from .graph import JohnsonParams, edge_count


class CliqueClass(str, Enum):
    """The two maximal-clique classes."""

    MIN = "min"  # empty total intersection; members are the m-subsets of B
    MAX = "max"  # total intersection is the (m-1)-element core A


class ClassificationKind(str, Enum):
    SINGLETON = "singleton"
    EDGE_BOTH = "edge_both"
    UNIQUE_MIN = "unique_min"
    UNIQUE_MAX = "unique_max"
    ALREADY_MAXIMAL = "already_maximal"


@dataclass(frozen=True)
class MaximalClique:
    """A maximal clique, stored by its defining set.

    ``defining_set`` is B (size m+1) for class ``min`` and A (size m-1) for
    class ``max``. Class ``max`` requires the non-degenerate regime n >= m+2.
    """

    params: JohnsonParams
    kind: CliqueClass
    defining_set: Label

    def __post_init__(self) -> None:
        p = self.params
        validate_label(self.defining_set, p.n, _class_shape(p, self.kind)[0])

    @property
    def size(self) -> int:
        """Number of members: m+1 for class min, n-m+1 for class max."""
        return _class_shape(self.params, self.kind)[1]

    def members(self) -> tuple[Label, ...]:
        """The member labels, in colex order."""
        if self.kind is CliqueClass.MIN:
            # combinations() over the sorted B is already colex: both orders
            # go by the omitted element, largest first.
            return tuple(combinations(self.defining_set, self.params.m))
        core = set(self.defining_set)
        return tuple(
            tuple(sorted(core | {x}))
            for x in range(1, self.params.n + 1)
            if x not in core
        )

    def contains(self, label: Label) -> bool:
        """True when ``label``, an m-subset of {1..n}, is a member of this clique."""
        validate_label(label, self.params.n, self.params.m)
        if self.kind is CliqueClass.MIN:
            return set(label) <= set(self.defining_set)
        return set(self.defining_set) <= set(label)

    def to_dict(self) -> dict:
        return {
            "class": self.kind.value,
            "set": list(self.defining_set),
            "n": self.params.n,
            "m": self.params.m,
            "size": self.size,
        }


@dataclass(frozen=True)
class Clique:
    """A clique of J_n(m, m-1): distinct, pairwise-adjacent m-subsets of {1..n}."""

    params: JohnsonParams
    members: tuple[Label, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.members, tuple):
            raise ValidationError(f"clique members must be a tuple of labels, got {self.members!r}")
        for lab in self.members:
            validate_label(lab, self.params.n, self.params.m)
        if not _forms_clique(self.members):
            raise ValidationError(f"labels {self.members} are not adjacent pairwise; not a clique")

    @classmethod
    def from_labels(cls, labels: Iterable[Label], params: JohnsonParams) -> "Clique":
        """The clique on ``labels``, each sorted, members in colex order."""
        return cls(params, tuple(sorted((tuple(sorted(lab)) for lab in labels), key=colex_key)))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def intersection_set(self) -> Label:
        return _intersection(self.members)

    @property
    def union_set(self) -> Label:
        return _union(self.members)


@dataclass(frozen=True)
class Classification:
    """How a clique sits inside the maximal cliques containing it.

    ``extensions`` holds the containing maximal cliques: empty for a
    singleton, (min, max) for an edge in the non-degenerate regime, and a
    single clique otherwise.
    """

    kind: ClassificationKind
    extensions: tuple[MaximalClique, ...]


@dataclass(frozen=True)
class CliquePartition:
    """A family of maximal cliques whose edge sets partition the graph's edges."""

    parts: tuple[MaximalClique, ...]

    @property
    def covered_edge_count(self) -> int:
        """Edges covered by the parts: each part is a clique of one common size."""
        return len(self.parts) * binomial(self.parts[0].size, 2) if self.parts else 0

    def to_dict(self) -> dict:
        return {"cp": len(self.parts), "parts": [h.to_dict() for h in self.parts]}


def _intersection(members: tuple[Label, ...]) -> Label:
    return tuple(sorted(set(members[0]).intersection(*members[1:])))


def _union(members: tuple[Label, ...]) -> Label:
    return tuple(sorted(set().union(*members)))


def _forms_clique(members: tuple[Label, ...]) -> bool:
    """Whether same-size labels are distinct and pairwise adjacent.

    Raises ValidationError for no labels, labels of mixed sizes or a repeated
    label. Pairwise adjacency of r >= 2 m-sets holds exactly when they all lie
    in one (m+1)-set or all contain one (m-1)-core, so the test costs O(r m)
    instead of r(r-1)/2 pair tests.
    """
    if not members:
        raise ValidationError("a clique needs at least one member")
    m = len(members[0])
    if any(len(lab) != m for lab in members):
        raise ValidationError(f"labels {members} differ in size")
    if len(set(members)) != len(members):
        raise ValidationError("clique members must be distinct")
    return len(members) == 1 or len(_union(members)) == m + 1 or len(_intersection(members)) == m - 1


def _normalized(labels: Iterable[Label]) -> tuple[Label, ...]:
    members = tuple(make_label(lab) for lab in labels)
    if not members:
        raise ValidationError("need at least one label")
    return members


def is_clique(labels: Iterable[Label]) -> bool:
    """True when the labels are pairwise adjacent (all same size, distinct)."""
    return _forms_clique(_normalized(labels))


def intersection_of(labels: Iterable[Label]) -> Label:
    """Sorted intersection of all labels; input must be non-empty."""
    return _intersection(_normalized(labels))


def union_of(labels: Iterable[Label]) -> Label:
    """Sorted union of all labels; input must be non-empty."""
    return _union(_normalized(labels))


def classify(c: Clique) -> Classification:
    """Determine which maximal cliques contain ``c``.

    A single vertex lies in many maximal cliques and gets no extension. An
    edge lies in exactly one clique of each class (class min defined by the
    union of its endpoints, class max by their intersection); in the
    degenerate regime only the class-min extension exists. A clique with
    r > 2 members satisfies exactly one of |union| == m+1 (class min) or
    |intersection| == m-1 (class max) and extends to exactly one maximal
    clique; if it already equals that clique's full member set it is
    reported as already maximal.
    """
    p = c.params
    r = c.size
    if r == 1:
        return Classification(ClassificationKind.SINGLETON, ())
    union_set = c.union_set
    if r == 2:
        h_min = MaximalClique(p, CliqueClass.MIN, union_set)
        if p.degenerate:
            return Classification(ClassificationKind.UNIQUE_MIN, (h_min,))
        h_max = MaximalClique(p, CliqueClass.MAX, c.intersection_set)
        return Classification(ClassificationKind.EDGE_BOTH, (h_min, h_max))
    if len(union_set) == p.m + 1:
        ext = MaximalClique(p, CliqueClass.MIN, union_set)
        kind = ClassificationKind.UNIQUE_MIN
    else:
        ext = MaximalClique(p, CliqueClass.MAX, c.intersection_set)
        kind = ClassificationKind.UNIQUE_MAX
    if r == ext.size:
        return Classification(ClassificationKind.ALREADY_MAXIMAL, (ext,))
    return Classification(kind, (ext,))


def extend_to_maximal(c: Clique) -> tuple[MaximalClique, ...]:
    """The maximal cliques containing ``c``: two for an edge (one per class,
    class min first), one for anything larger. Requires at least two members."""
    result = classify(c)
    if result.kind is ClassificationKind.SINGLETON:
        raise ValidationError("extension requires a clique with at least two members")
    return result.extensions


def _class_shape(p: JohnsonParams, kind: CliqueClass) -> tuple[int, int]:
    """(defining-set size, member count) of the class-``kind`` cliques:
    (m+1, m+1) for class min, (m-1, n-m+1) for class max.

    Raises ValidationError for a ``kind`` that is not a CliqueClass, and
    RegimeError for class max at n == m+1, where it is not maximal.
    """
    if not isinstance(kind, CliqueClass):
        raise ValidationError(f"clique class must be a CliqueClass, got {kind!r}")
    if kind is CliqueClass.MIN:
        return p.m + 1, p.m + 1
    if p.degenerate:
        raise RegimeError(
            f"n={p.n} equals m+1: the graph is complete and the class-max family "
            f"is not maximal; only the single class-min clique exists"
        )
    return p.m - 1, p.n - p.m + 1


def _family(p: JohnsonParams, kind: CliqueClass, k: int) -> Iterator[MaximalClique]:
    # iter_subsets_colex makes only valid k-subsets of {1..n}, so the
    # cliques skip __post_init__ and its re-validation of each set.
    new, put = object.__new__, object.__setattr__
    for s in iter_subsets_colex(p.n, k):
        h = new(MaximalClique)
        put(h, "params", p)
        put(h, "kind", kind)
        put(h, "defining_set", s)
        yield h


def enumerate_min_cliques(p: JohnsonParams) -> Iterator[MaximalClique]:
    """One class-min clique per (m+1)-subset B of {1..n}, in colex order of B."""
    return _family(p, CliqueClass.MIN, p.m + 1)


def enumerate_max_cliques(p: JohnsonParams) -> Iterator[MaximalClique]:
    """One class-max clique per (m-1)-subset A of {1..n}, in colex order of A.

    Rejects the degenerate regime n == m+1, where these candidates are not
    maximal.
    """
    return _family(p, CliqueClass.MAX, _class_shape(p, CliqueClass.MAX)[0])


def clique_number(p: JohnsonParams) -> int:
    """Size of a largest clique: max(m+1, n-m+1)."""
    return max(p.m + 1, p.n - p.m + 1)


def clique_partition_number(p: JohnsonParams) -> int:
    """Number of parts in the edge partition built by clique_partition:
    C(n, m-1) when m+2 <= n < 2m, else C(n, m+1), which is 1 at n == m+1."""
    return binomial(p.n, _class_shape(p, _partition_class(p))[0])


def _partition_class(p: JohnsonParams) -> CliqueClass:
    """The class whose family partitions the edges in clique_partition:
    class max when m+2 <= n < 2m, class min otherwise."""
    return CliqueClass.MAX if p.m + 2 <= p.n < 2 * p.m else CliqueClass.MIN


def _check_partition(p: JohnsonParams, kind: CliqueClass, parts: int) -> None:
    """O(1) check of a class-``kind`` edge partition of ``parts`` cliques:
    raises InternalConsistencyError unless the part count equals
    clique_partition_number and the parts cover edge_count edges.

    No edge lies in two parts: two distinct (m+1)-sets share at most one
    m-subset, and two distinct (m-1)-cores have at most one common
    m-superset (their union). So the parts cover exactly
    parts * C(size, 2) distinct edges, and matching the edge count proves
    the cover exact. verify() re-checks it edge by edge.
    """
    covered = parts * binomial(_class_shape(p, kind)[1], 2)
    if parts != clique_partition_number(p) or covered != edge_count(p):
        raise InternalConsistencyError(
            f"partition has {parts} parts covering {covered} edges; "
            f"expected {clique_partition_number(p)} parts and {edge_count(p)} edges"
        )


def clique_partition(p: JohnsonParams) -> CliquePartition:
    """Partition the edge set into maximal cliques of a single class.

    Uses the class-max family when m+2 <= n < 2m and the class-min family
    otherwise (at n == 2m both families have the same size; at n == m+1 the
    one class-min clique is the whole graph). The part count and the covered
    edge count are checked in O(1).
    """
    kind = _partition_class(p)
    parts = tuple(_family(p, kind, _class_shape(p, kind)[0]))
    _check_partition(p, kind, len(parts))
    return CliquePartition(parts)
