"""Exact combinatorics on m-subsets of {1..n}.

A *label* is a sorted tuple of distinct 1-based integers. Labels are ordered
colexicographically (largest elements compared first), which makes the rank
of a label independent of the ambient ground-set size and lets unranking run
in O(m) binomial evaluations with no precomputed tables.

Colex order runs over the least elements fastest. _colex_runs() holds the
one colex successor rule and yields whole runs of least elements, one slice
of a prefix table each; iter_subsets_colex() and the bulk streams take their
sets from it. _insertions() adds each outside element to a label, the one
rule behind graph.neighbors() and the class-max members.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator
from operator import itemgetter

from .errors import RangeError, ValidationError

Label = tuple[int, ...]

# C(62, 31) still fits in an unsigned 64-bit word; beyond that we refuse
# rather than hand fixed-width consumers values they cannot hold.
MAX_GROUND_SET = 62

#: Most lines the CLI's bulk streams put in one write, and most values in
#: the prefix table of _colex_runs(), so that a run fits in one write.
_CHUNK_LINES = 2048

_LABEL_RE = re.compile(r"\{(\d+(?:,\d+)*)\}\Z", re.ASCII)


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); 0 when k > n.

    Raises RangeError for n > MAX_GROUND_SET instead of growing without
    bound, and ValidationError for arguments that are not non-negative ints.
    """
    if type(n) is not int or type(k) is not int or n < 0 or k < 0:
        raise ValidationError(f"n and k must be non-negative ints, got ({n!r}, {k!r})")
    if n > MAX_GROUND_SET:
        raise RangeError(f"n={n} exceeds the supported bound n <= {MAX_GROUND_SET}")
    return math.comb(n, k)


def make_label(elements: Iterable[int]) -> Label:
    """Normalize an iterable of integers in 1..MAX_GROUND_SET into a sorted label."""
    try:
        label = tuple(sorted(elements))
    except TypeError:
        raise ValidationError(f"label {elements!r} is not an iterable of comparable ints") from None
    validate_label(label, MAX_GROUND_SET)
    return label


def validate_label(label: Label, n: int, m: int | None = None) -> None:
    """Check that ``label`` is a non-empty tuple of strictly increasing ints
    in 1..n (and of size ``m`` when given); raise ValidationError otherwise,
    and RangeError, as binomial() does, for n > MAX_GROUND_SET."""
    if type(n) is not int:
        raise ValidationError(f"n must be an int, got {n!r}")
    if n > MAX_GROUND_SET:
        raise RangeError(f"n={n} exceeds the supported bound n <= {MAX_GROUND_SET}")
    if not isinstance(label, tuple):
        raise ValidationError(f"label {label!r} is not a tuple")
    if not label:
        raise ValidationError("the empty label is refused; a label needs an element")
    prev = 0
    for e in label:
        if type(e) is not int or e <= prev:
            raise ValidationError(f"label {label!r} is not strictly increasing positive ints")
        prev = e
    if prev > n:
        raise ValidationError(f"label {label!r} has element {prev} > n={n}")
    if m is not None and len(label) != m:
        raise ValidationError(f"label {label!r} has size {len(label)}, expected {m}")


def parse_label(text: str) -> Label:
    """Parse the textual form ``{a,b,c}`` (no spaces) into a label, sorting
    the elements and dropping leading zeros: ``{3,1,02}`` gives (1, 2, 3)."""
    if not isinstance(text, str):
        raise ValidationError(f"label text {text!r} is not a str; use make_label for ints")
    match = _LABEL_RE.match(text)
    if match is None:
        raise ValidationError(f"invalid label syntax: {text!r} (expected e.g. '{{1,3,4}}')")
    # int() refuses text past 4300 digits with ValueError, leading zeros
    # included, so they are dropped and a longer element is refused first.
    digits = [part.lstrip("0") or "0" for part in match.group(1).split(",")]
    if max(map(len, digits)) > len(str(MAX_GROUND_SET)):
        raise ValidationError(f"label text has an element above {MAX_GROUND_SET}")
    return make_label(map(int, digits))


def format_label(label: Label) -> str:
    """Render a label in the canonical ``{a,b,c}`` form; ValidationError for
    a label that validate_label() refuses."""
    validate_label(label, MAX_GROUND_SET)
    return "{" + ",".join(str(e) for e in label) + "}"


def _insertions(label: Label, n: int) -> list[tuple[int, Label, Label, range]]:
    """``(k, label[:k], label[k:], ys)`` for each gap of the sorted ``label``
    in 1..n: each y in ys goes in at index k, and the sets so made, y
    ascending, run in colex order. Unchecked."""
    bounds = (0, *label, n + 1)
    gaps = []
    for k in range(len(label) + 1):
        if ys := range(bounds[k] + 1, bounds[k + 1]):
            gaps.append((k, label[:k], label[k:], ys))
    return gaps


#: Sort key realizing colexicographic order on sorted labels: the label
#: reversed, largest element first, taken by one C-level slice.
colex_key = itemgetter(slice(None, None, -1))


def rank(label: Label, n: int) -> int:
    """Colex rank of ``label`` among all subsets of {1..n} of its size. The
    one binomial(n, 0) call checks n, as in unrank(), so the sum needs no
    checks."""
    binomial(n, 0)
    validate_label(label, n)
    return sum(math.comb(e - 1, i) for i, e in enumerate(label, start=1))


def unrank(r: int, n: int, m: int) -> Label:
    """The m-subset of {1..n} with colex rank ``r`` (inverse of rank). The
    one binomial(n, m) call checks n and m, so the scan needs no checks.
    For m = 0 it is the empty subset, which is not a label."""
    total = binomial(n, m)
    if type(r) is not int:
        raise ValidationError(f"rank must be an int, got {r!r}")
    if not 0 <= r < total:
        raise RangeError(f"rank {r} out of range 0..{total - 1} for C({n},{m})")
    out = []
    bound = n
    rem = r
    for i in range(m, 0, -1):
        c = bound
        while (below := math.comb(c - 1, i)) > rem:
            c -= 1
        rem -= below
        out.append(c)
        bound = c - 1
    out.reverse()
    return tuple(out)


def iter_subsets_colex(n: int, k: int) -> Iterator[Label]:
    """All k-subsets of {1..n} in colex order, as tuples from the runs of
    _colex_runs(). At the first item, binomial(n, k) checks n and k, as in
    unrank(); it is 0, and the stream empty, when k > n. For k = 0 the one
    item is the empty subset, which is not a label."""
    if not binomial(n, k):
        return
    if k == 0:
        yield ()
        return
    singles = [(e,) for e in range(n + 1)]
    for prefixes, rest in _colex_runs(n, k, singles, singles, ()):
        for q in prefixes:
            yield q + rest


def _colex_runs(n: int, k: int, firsts, others, tail) -> Iterator[tuple[list, object]]:
    """The k-subsets of {1..n}, 1 <= k <= n, in colex order, as runs
    ``(prefixes, rest)``: the values of a run's sets are ``q + rest`` for q
    in ``prefixes``. The set a1 < ... < ak has the value firsts[a1] +
    others[a2] + ... + others[ak] + tail; texts, tuples and int masks add.

    A run is the sets that share their k-j largest elements, t the least of
    them: their j least elements are the j-subsets of {1..t-1}, the first
    C(t-1, j) entries of one table of the j-subsets of {1..n-k+j}. Level i
    of the table holds the i-subsets of {1..n-k+i}, at least twice level
    i-1 while i <= n-k; j is the largest such i with at most _CHUNK_LINES
    values. The larger elements step by the colex successor: the least of
    them with a gap above it (n+1 counts as above the largest) goes up by
    one, and the ones below it go back to j+1, j+2, ...; ``rest`` is
    rebuilt only at the positions a step changed.
    """
    d = n - k
    j = 1
    while j < min(k, d) and math.comb(d + j + 1, j + 1) <= _CHUNK_LINES:
        j += 1
    # The i+1-subsets with largest element e are the i-subsets of {1..e-1}
    # plus e.
    table = firsts[1 : d + 2]
    for i in range(1, j):
        table = [q + others[e] for e in range(i + 1, d + i + 2) for q in table[: math.comb(e - 1, i)]]
    # sizes[t] is C(t-1, j), the length of the run whose larger elements
    # start at t. top holds the k-j larger elements (none when j == k: one
    # run, the whole table), then the sentinels n+1 and n+3, which stop the
    # gap search below. suffixes[i] is the value of top[i:k-j] plus the tail.
    sizes = [0] + [math.comb(t, j) for t in range(d + j + 1)]
    h = k - j
    top = [*range(j + 1, k + 1), n + 1, n + 3]
    suffixes = [tail] * (h + 1)
    changed = h - 1
    while True:
        for i in range(changed, -1, -1):
            suffixes[i] = others[top[i]] + suffixes[i + 1]
        yield table[: sizes[top[0]]], suffixes[0]
        # The successor; changed == h (no element has a gap) ends the stream.
        changed = 0
        while top[changed] + 1 == top[changed + 1]:
            changed += 1
        if changed == h:
            return
        top[changed] += 1
        for i in range(changed):
            top[i] = i + j + 1
