"""Exact combinatorics on m-subsets of {1..n}.

A *label* is a sorted tuple of distinct 1-based integers. Labels are ordered
colexicographically (largest elements compared first), which makes the rank
of a label independent of the ambient ground-set size and lets unranking run
in O(m) binomial evaluations with no precomputed tables.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator

from .errors import RangeError, ValidationError

Label = tuple[int, ...]

# C(62, 31) still fits in an unsigned 64-bit word; beyond that we refuse
# rather than hand fixed-width consumers values they cannot hold.
MAX_GROUND_SET = 62

_LABEL_RE = re.compile(r"\{(\d+(?:,\d+)*)\}\Z")


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); 0 when k > n.

    Raises RangeError for n > MAX_GROUND_SET instead of growing without
    bound, and ValidationError for arguments that are not non-negative ints.
    """
    if type(n) is not int or type(k) is not int or n < 0 or k < 0:
        raise ValidationError(f"binomial requires non-negative int arguments, got ({n!r}, {k!r})")
    if n > MAX_GROUND_SET:
        raise RangeError(f"binomial(n={n}) exceeds the supported bound n <= {MAX_GROUND_SET}")
    return math.comb(n, k)


def make_label(elements: Iterable[int]) -> Label:
    """Normalize an iterable of integers in 1..MAX_GROUND_SET into a sorted label."""
    label = tuple(sorted(elements))
    validate_label(label, MAX_GROUND_SET)
    return label


def validate_label(label: Label, n: int, m: int | None = None) -> None:
    """Check that ``label`` is a tuple, strictly increasing with int elements
    in 1..n (and of size ``m`` when given); raise ValidationError otherwise."""
    if not isinstance(label, tuple):
        raise ValidationError(f"label {label!r} is not a tuple")
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
    """Parse the textual form ``{a,b,c}`` (ascending, no spaces) into a label."""
    match = _LABEL_RE.match(text)
    if match is None:
        raise ValidationError(f"invalid label syntax: {text!r} (expected e.g. '{{1,3,4}}')")
    return make_label(int(part) for part in match.group(1).split(","))


def format_label(label: Label) -> str:
    """Render a label in the canonical ``{a,b,c}`` form."""
    return "{" + ",".join(str(e) for e in label) + "}"


def colex_key(label: Label) -> tuple[int, ...]:
    """Sort key realizing colexicographic order on sorted labels."""
    return tuple(reversed(label))


def rank(label: Label, n: int) -> int:
    """Colex rank of ``label`` among all subsets of {1..n} of its size. n is
    checked once, as in unrank(), so the sum needs no checks."""
    if n > MAX_GROUND_SET:
        raise RangeError(f"n={n} exceeds the supported bound n <= {MAX_GROUND_SET}")
    validate_label(label, n)
    return sum(math.comb(e - 1, i) for i, e in enumerate(label, start=1))


def unrank(r: int, n: int, m: int) -> Label:
    """The m-subset of {1..n} with colex rank ``r`` (inverse of rank). The
    one binomial(n, m) call checks n and m, so the scan needs no checks."""
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
    """All k-subsets of {1..n} in colex order, generated lazily. Raises
    ValidationError, at the first item, for an n or k that is not an int."""
    if type(n) is not int or type(k) is not int:
        raise ValidationError(f"iter_subsets_colex requires int arguments, got ({n!r}, {k!r})")
    if k < 0 or k > n:
        return
    if k == 0:
        yield ()
        return
    cur = list(range(1, k + 1))
    last = list(range(n - k + 1, n + 1))
    while True:
        yield tuple(cur)
        if cur == last:
            return
        i = 0
        while cur[i] + 1 == (cur[i + 1] if i + 1 < k else n + 1):
            i += 1
        cur[i] += 1
        for j in range(i):
            cur[j] = j + 1
