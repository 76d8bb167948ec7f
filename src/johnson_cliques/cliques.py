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
closed-form edge partitions below work. Distinct m-sets form a clique
exactly when their union has m+1 elements (B) or their intersection m-1
(A): a clique is checked with one union and one intersection.
``_span`` builds the other unions and intersections; ``intersection_of``
and ``union_of`` are its public form. Labels, or collections of labels, that
cannot be iterated or compared, and a non-Clique ``classify`` argument,
raise ValidationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator

from . import combinat, graph
from .errors import RegimeError, ValidationError


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

    params: graph.JohnsonParams
    kind: CliqueClass
    defining_set: combinat.Label

    def __post_init__(self) -> None:
        p = self.params
        graph._check_params(p)
        combinat.validate_label(self.defining_set, p.n, _class_shape(p, self.kind)[0])

    @property
    def size(self) -> int:
        """Number of members: m+1 for class min, n-m+1 for class max."""
        return _class_shape(self.params, self.kind)[1]

    def members(self) -> tuple[combinat.Label, ...]:
        """The member labels, in colex order."""
        if self.kind is CliqueClass.MIN:
            # combinations() over the sorted B is already colex: both orders
            # go by the omitted element, largest first.
            return tuple(combinations(self.defining_set, self.params.m))
        gaps = combinat._insertions(self.defining_set, self.params.n)
        return tuple([head + (y,) + tail for _, head, tail, ys in gaps for y in ys])

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

    params: graph.JohnsonParams
    members: tuple[combinat.Label, ...]

    def __post_init__(self) -> None:
        graph._check_params(self.params)
        if not isinstance(self.members, tuple):
            raise ValidationError(f"clique members must be a tuple of labels, got {self.members!r}")
        for lab in self.members:
            combinat.validate_label(lab, self.params.n, self.params.m)
        if not _forms_clique(self.members):
            raise ValidationError(f"labels {self.members} are not adjacent pairwise; not a clique")

    @classmethod
    def from_labels(cls, labels: Iterable[combinat.Label], params: graph.JohnsonParams) -> "Clique":
        """The clique on ``labels``, each sorted, members in colex order."""
        try:
            members = tuple(sorted(map(tuple, map(sorted, labels)), key=combinat.colex_key))
        except TypeError:
            raise ValidationError(f"expected an iterable of labels of ints, got {labels!r}") from None
        return cls(params, members)

    @property
    def size(self) -> int:
        return len(self.members)


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

    def to_dict(self) -> dict:
        return {"cp": len(self.parts), "parts": [h.to_dict() for h in self.parts]}


def _span(first: combinat.Label, *rest: combinat.Label) -> tuple[set[int], set[int]]:
    """The union and the intersection of the labels, as sets."""
    union = set(first)
    return union.union(*rest), union.intersection(*rest)


def _forms_clique(members: tuple[combinat.Label, ...]) -> bool:
    """Whether same-size labels are distinct and pairwise adjacent.

    Raises ValidationError for no labels, labels of mixed sizes or a repeated
    label. Distinct m-sets are pairwise adjacent exactly when they all lie in
    one (m+1)-set or all hold one (m-1)-set, that is, when their union has
    m+1 elements or their intersection has m-1: one union and one
    intersection over the family instead of r(r-1)/2 pair tests.
    """
    if not members:
        raise ValidationError("a clique needs at least one member")
    m = len(members[0])
    if any(len(lab) != m for lab in members):
        raise ValidationError(f"labels {members} differ in size")
    if len(set(members)) != len(members):
        raise ValidationError("clique members must be distinct")
    first = set(members[0])
    return (
        len(members) == 1
        or len(first.union(*members)) == m + 1
        or len(first.intersection(*members)) == m - 1
    )


def _normalized(labels: Iterable[combinat.Label]) -> tuple[combinat.Label, ...]:
    try:
        members = tuple(map(combinat.make_label, labels))
    except TypeError:
        raise ValidationError(f"expected an iterable of labels of ints, got {labels!r}") from None
    if not members:
        raise ValidationError("need at least one label")
    return members


def is_clique(labels: Iterable[combinat.Label]) -> bool:
    """True when the labels are pairwise adjacent (all same size, distinct)."""
    return _forms_clique(_normalized(labels))


def intersection_of(labels: Iterable[combinat.Label]) -> combinat.Label:
    """Sorted intersection of all labels; input must be non-empty."""
    return tuple(sorted(_span(*_normalized(labels))[1]))


def union_of(labels: Iterable[combinat.Label]) -> combinat.Label:
    """Sorted union of all labels; input must be non-empty."""
    return tuple(sorted(_span(*_normalized(labels))[0]))


def classify(c: Clique) -> Classification:
    """Determine which maximal cliques contain ``c``.

    A single vertex lies in many maximal cliques and gets no extension. An
    edge lies in exactly one clique of each class (class min defined by the
    union of its endpoints, class max by their intersection); in the
    degenerate regime only the class-min extension exists. A clique with
    r > 2 members extends to exactly one maximal clique: class min on the
    union of its first two members when that holds the third member, else
    class max on their intersection (only two m-sets lie between the two).
    If it already equals that clique's full member set it is reported as
    already maximal. O(m): it reads three members of ``c``, which must be a
    Clique (anything else raises ValidationError).
    """
    if not isinstance(c, Clique):
        raise ValidationError(f"expected Clique, got {c!r}")
    p, members = c.params, c.members
    r = len(members)
    if r == 1:
        return Classification(ClassificationKind.SINGLETON, ())
    union, core = _span(members[0], members[1])
    if r == 2 and not p.degenerate:
        h_min = _trusted(p, CliqueClass.MIN, tuple(sorted(union)))
        h_max = _trusted(p, CliqueClass.MAX, tuple(sorted(core)))
        return Classification(ClassificationKind.EDGE_BOTH, (h_min, h_max))
    if r == 2 or union.issuperset(members[2]):
        ext = _trusted(p, CliqueClass.MIN, tuple(sorted(union)))
        kind = ClassificationKind.UNIQUE_MIN
    else:
        ext = _trusted(p, CliqueClass.MAX, tuple(sorted(core)))
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


def _class_shape(p: graph.JohnsonParams, kind: CliqueClass) -> tuple[int, int]:
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


def _trusted(p: graph.JohnsonParams, kind: CliqueClass, s: combinat.Label) -> MaximalClique:
    """The class-``kind`` clique on ``s``, skipping __post_init__: callers pass
    only sets they generated or derived from validated labels."""
    h = object.__new__(MaximalClique)
    h.__dict__.update(params=p, kind=kind, defining_set=s)
    return h


def _family(p: graph.JohnsonParams, kind: CliqueClass) -> Iterator[MaximalClique]:
    # iter_subsets_colex makes only valid k-subsets of {1..n}.
    k = _class_shape(p, kind)[0]  # class max at n == m+1 raises RegimeError here
    return (_trusted(p, kind, s) for s in combinat.iter_subsets_colex(p.n, k))


def enumerate_min_cliques(p: graph.JohnsonParams) -> Iterator[MaximalClique]:
    """One class-min clique per (m+1)-subset B of {1..n}, in colex order of B."""
    graph._check_params(p)
    return _family(p, CliqueClass.MIN)


def enumerate_max_cliques(p: graph.JohnsonParams) -> Iterator[MaximalClique]:
    """One class-max clique per (m-1)-subset A of {1..n}, in colex order of A.

    Rejects the degenerate regime n == m+1, where these candidates are not
    maximal.
    """
    graph._check_params(p)
    return _family(p, CliqueClass.MAX)


def clique_number(p: graph.JohnsonParams) -> int:
    """Size of a largest clique: max(m+1, n-m+1)."""
    graph._check_params(p)
    return max(p.m + 1, p.n - p.m + 1)


def clique_partition_number(p: graph.JohnsonParams) -> int:
    """Number of parts in the edge partition built by clique_partition:
    C(n, m-1) when m+2 <= n < 2m, else C(n, m+1), which is 1 at n == m+1."""
    graph._check_params(p)
    return combinat.binomial(p.n, _class_shape(p, _partition_class(p))[0])


def _partition_class(p: graph.JohnsonParams) -> CliqueClass:
    """The class whose family partitions the edges in clique_partition:
    class max when m+2 <= n < 2m, class min otherwise."""
    return CliqueClass.MAX if p.m + 2 <= p.n < 2 * p.m else CliqueClass.MIN


def clique_partition(p: graph.JohnsonParams) -> CliquePartition:
    """Partition the edge set into maximal cliques of a single class.

    Uses the class-max family when m+2 <= n < 2m and the class-min family
    otherwise (at n == 2m both families have the same size; at n == m+1 the
    one class-min clique is the whole graph). Every edge lies in exactly one
    clique of each class, so a whole family is an edge partition;
    oracle.verify() checks it edge by edge.
    """
    graph._check_params(p)
    return CliquePartition(tuple(_family(p, _partition_class(p))))
