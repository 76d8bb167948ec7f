"""The benchmark's workloads: seeded inputs, the ops they run, and output checks.

Every op has a ``kind``, a ``run(call)`` that makes the program calls through
``call(name, fn, *args)`` (plain or traced), and a ``check(result)`` that
returns ``None`` when the output is right and a description otherwise. The
expected answers are derived here, from closed forms and set algebra, never
from the library. ``result`` is the exception when ``run`` raised one.

Two scales exist: ``full`` for measurement and ``tiny`` (J(5,3), J(6,3)) for
the benchmark's own smoke test.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from johnson_cliques import (
    Clique,
    JohnsonParams,
    are_adjacent,
    classify,
    cli,
    extend_to_maximal,
    neighbors,
    rank,
    unrank,
)
from johnson_cliques.errors import RangeError, ValidationError
from tracer import plain_call

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text())

WORKLOADS = ("verify-sweep", "export-stream", "clique-queries")
SCALES = ("full", "tiny")

# verify-sweep: the whole acceptance range plus three pairs of 495-792
# vertices, so the O(V^2) build and Bron-Kerbosch dominate. Larger pairs
# (J(14,4), J(13,5)) take 1.5-2 s each and leave too few repeats in a run to
# time them steadily on a shared machine.
_ACCEPTANCE = [(m, n) for m in range(2, 5) for n in range(m + 1, 10)]
VERIFY_PAIRS = {
    "full": _ACCEPTANCE + [(4, 12), (4, 13), (5, 12)],
    "tiny": [(3, 5), (3, 6)],
}

# clique-queries: random-access sizes far past any materialize cap.
QUERY_SIZES = {"full": [(24, 6), (48, 12), (62, 31)], "tiny": [(5, 3), (6, 3)]}
QUERY_MIX = (
    ("classify", 35),
    ("extend", 15),
    ("neighbors", 15),
    ("adjacent", 15),
    ("rank", 10),
    ("malformed", 10),
)
QUERY_OPS = {"full": 3000, "tiny": 60}


def edge_total(n: int, m: int) -> int:
    return comb(n, m) * m * (n - m) // 2


def maximal_clique_total(n: int, m: int) -> int:
    """Closed-form count of maximal cliques: one at n == m+1, else both classes."""
    return 1 if n == m + 1 else comb(n, m + 1) + comb(n, m - 1)


def random_label(rng: random.Random, n: int, m: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, n + 1), m)))


def swap(rng: random.Random, u: tuple[int, ...], n: int, k: int = 1) -> tuple[int, ...]:
    """``u`` with ``k`` elements swapped for ``k`` elements outside it."""
    inside = set(u)
    out = rng.sample(sorted(inside), k)
    add = rng.sample([x for x in range(1, n + 1) if x not in inside], k)
    return tuple(sorted((inside - set(out)) | set(add)))


class HashSink(io.RawIOBase):
    """A write-only byte stream that hashes and counts what it is given and
    keeps none of it. ``hits`` counts occurrences of ``pattern``, also across
    write boundaries."""

    def __init__(self, pattern: bytes = b"") -> None:
        super().__init__()
        self._hash = hashlib.sha256()
        self._pattern = pattern
        self._tail = b""
        self.nbytes = 0
        self.lines = 0
        self.hits = 0

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        data = bytes(b)
        self._hash.update(data)
        self.nbytes += len(data)
        self.lines += data.count(b"\n")
        k = len(self._pattern) - 1
        if k > 0:
            self.hits += (self._tail + data[:k]).count(self._pattern) + data.count(self._pattern)
            self._tail = (self._tail + data)[-k:] if len(data) < k else data[-k:]
        return len(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# --------------------------------------------------------------- verify-sweep


@dataclass
class VerifyPair:
    n: int
    m: int
    kind = "verify"

    @property
    def argv(self) -> list[str]:
        return ["verify", "--m-range", f"{self.m}..{self.m}", "--n-range", f"{self.n}..{self.n}"]

    def run(self, call):
        out, err = io.BytesIO(), io.BytesIO()
        return call("cli.run", cli.run, self.argv, out, err), out, err

    def check(self, res) -> str | None:
        if isinstance(res, Exception):
            return f"J({self.n},{self.m}) raised {res!r}"
        rc, out, _ = res
        lines = out.getvalue().splitlines()
        if rc != 0 or len(lines) != 1:
            return f"J({self.n},{self.m}) exit {rc} with {len(lines)} report lines"
        report = json.loads(lines[0])
        expected = maximal_clique_total(self.n, self.m)
        if (report["n"], report["m"]) != (self.n, self.m) or report["passed"] is not True:
            return f"J({self.n},{self.m}) report did not pass: {lines[0][:200]!r}"
        if report["oracle_clique_count"] != expected:
            return f"J({self.n},{self.m}) oracle found {report['oracle_clique_count']} cliques, expected {expected}"
        return None


# -------------------------------------------------------------- export-stream


@dataclass
class ExportCommand:
    """One CLI command whose stdout is hashed and counted, never kept."""

    name: str
    argv: list[str]
    n: int
    m: int
    scale: str
    kind = "export"

    @property
    def pattern(self) -> bytes:
        return {"gen-json": b"],[", "partition-min": b'"class"', "partition-max": b'"class"'}.get(
            self.name, b""
        )

    def expected_counts(self) -> tuple[int, int]:
        """(stdout lines, pattern hits) from closed forms."""
        n, m = self.n, self.m
        e = edge_total(n, m)
        if self.name == "gen-edgelist":
            return e, 0
        if self.name == "gen-dot":
            return e + 2, 0
        if self.name == "gen-json":
            return 1, (comb(n, m) - 1) + (e - 1)
        if self.name == "cliques":
            return maximal_clique_total(n, m), 0
        return 1, comb(n, m - 1) if n < 2 * m else comb(n, m + 1)

    def run(self, call):
        out, err = HashSink(self.pattern), io.BytesIO()
        return call("cli.run", cli.run, self.argv, out, err), out, err

    def check(self, res) -> str | None:
        if isinstance(res, Exception):
            return f"{self.name} raised {res!r}"
        rc, out, err = res
        if rc != 0:
            return f"{self.name} exit {rc}: {err.getvalue()[:200]!r}"
        ref = DIGESTS[self.scale][self.name]
        if (out.hexdigest(), out.nbytes) != (ref["sha256"], ref["bytes"]):
            return f"{self.name} stdout differs from the reference digest"
        if (out.lines, out.hits) != self.expected_counts():
            return f"{self.name} counted {(out.lines, out.hits)}, expected {self.expected_counts()}"
        return None


def export_commands(scale: str) -> list[ExportCommand]:
    # full: 25,740 edges per gen format, 27,874 cliques, partitions of 75,075
    # (class min) and 36,036 (class max) edges; each command takes 0.2-0.4 s,
    # short enough to be timed about fifteen times in one run
    if scale == "full":
        gen, cliques, part_min, part_max = (13, 5), (22, 4), (15, 5), (13, 7)
    else:
        gen, cliques, part_min, part_max = (5, 3), (5, 3), (6, 3), (5, 3)

    def cmd(name, sub, nm, *extra):
        n, m = nm
        return ExportCommand(name, [sub, "--n", str(n), "--m", str(m), *extra], n, m, scale)

    return [
        cmd("gen-edgelist", "gen", gen, "--format", "edgelist"),
        cmd("gen-dot", "gen", gen, "--format", "dot"),
        cmd("gen-json", "gen", gen, "--format", "json"),
        cmd("cliques", "cliques", cliques, "--class", "all"),
        cmd("partition-min", "partition", part_min),
        cmd("partition-max", "partition", part_max),
    ]


# ------------------------------------------------------------- clique-queries


def sub_clique(rng: random.Random, n: int, m: int, cls: str, r: int) -> list[tuple[int, ...]]:
    """The labels of ``r`` members of a random maximal clique of class ``cls``."""
    if cls == "min":
        b = set(rng.sample(range(1, n + 1), m + 1))
        return [tuple(sorted(b - {x})) for x in rng.sample(sorted(b), r)]
    a = set(rng.sample(range(1, n + 1), m - 1))
    extra = rng.sample([x for x in range(1, n + 1) if x not in a], r)
    return [tuple(sorted(a | {x})) for x in extra]


def random_sub_clique(rng: random.Random, n: int, m: int) -> list[tuple[int, ...]]:
    if rng.random() < 0.5:
        return sub_clique(rng, n, m, "min", rng.randint(1, m + 1))
    return sub_clique(rng, n, m, "max", rng.randint(1, n - m + 1))


def expected_classification(labels, n: int, m: int) -> tuple[str, list]:
    """(kind, [(class, defining set), ...]) of a clique, by set algebra."""
    sets = [set(lab) for lab in labels]
    union = tuple(sorted(set().union(*sets)))
    inter = tuple(sorted(set.intersection(*sets)))
    r = len(sets)
    if r == 1:
        return "singleton", []
    if r == 2:
        return "edge_both", [("min", union), ("max", inter)]
    if len(union) == m + 1:
        return ("already_maximal" if r == m + 1 else "unique_min"), [("min", union)]
    return ("already_maximal" if r == n - m + 1 else "unique_max"), [("max", inter)]


def extensions_of(hs) -> list:
    return [(h.kind.value, h.defining_set) for h in hs]


@dataclass
class ClassifyQuery:
    p: JohnsonParams
    labels: list
    expected: tuple
    kind = "classify"

    def run(self, call):
        c = call("cliques.Clique.from_labels", Clique.from_labels, self.labels, self.p)
        return call("cliques.classify", classify, c)

    def check(self, res) -> str | None:
        if isinstance(res, Exception):
            return f"classify {self.labels} raised {res!r}"
        got = (res.kind.value, extensions_of(res.extensions))
        return None if got == self.expected else f"classify {self.labels} gave {got}, expected {self.expected}"


@dataclass
class ExtendQuery:
    p: JohnsonParams
    labels: list
    expected: list
    kind = "extend"

    def run(self, call):
        c = call("cliques.Clique.from_labels", Clique.from_labels, self.labels, self.p)
        return call("cliques.extend_to_maximal", extend_to_maximal, c)

    def check(self, res) -> str | None:
        if isinstance(res, Exception):
            return f"extend {self.labels} raised {res!r}"
        got = extensions_of(res)
        return None if got == self.expected else f"extend {self.labels} gave {got}, expected {self.expected}"


@dataclass
class NeighborsQuery:
    p: JohnsonParams
    u: tuple
    kind = "neighbors"
    # hash of the first answer that passed the full check; later calls are
    # compared to it and keep no answer alive. The full check costs more
    # than the call: at seed 1 the full checks took 1.14 s per pass, against
    # 0.84 s for the neighbors calls and 1.65 s for all 3000 calls. Checking
    # every call in full cut a 30 s run from 9-13 passes to 4-8 (2 cores,
    # Python 3.11), so each op got half the timed samples.
    verified: int | None = field(default=None, compare=False)

    def run(self, call):
        return call("graph.neighbors", neighbors, self.u, self.p)

    def check(self, res) -> str | None:
        if isinstance(res, Exception):
            return f"neighbors {self.u} raised {res!r}"
        if self.verified is not None and hash(tuple(res)) == self.verified:
            return None
        n, m = self.p.n, self.p.m
        if len(res) != m * (n - m):
            return f"neighbors {self.u}: {len(res)} labels, expected {m * (n - m)}"
        inside = set(self.u)
        prev = None
        for v in res:
            if list(v) != sorted(set(v)) or len(v) != m or v[0] < 1 or v[-1] > n:
                return f"neighbors {self.u}: {v} is not an m-subset of 1..n"
            if len(inside & set(v)) != m - 1:
                return f"neighbors {self.u}: {v} is not adjacent"
            if prev is not None and v[::-1] <= prev:
                return f"neighbors {self.u}: not strictly increasing in colex order at {v}"
            prev = v[::-1]
        self.verified = hash(tuple(res))
        return None


@dataclass
class AdjacentQuery:
    u: tuple
    v: tuple
    expected: bool
    kind = "adjacent"

    def run(self, call):
        return call("graph.are_adjacent", are_adjacent, self.u, self.v)

    def check(self, res) -> str | None:
        if res is self.expected:
            return None
        return f"are_adjacent({self.u}, {self.v}) gave {res!r}, expected {self.expected}"


@dataclass
class RankQuery:
    n: int
    m: int
    r: int
    kind = "rank"

    def run(self, call):
        label = call("combinat.unrank", unrank, self.r, self.n, self.m)
        return label, call("combinat.rank", rank, label, self.n)

    def check(self, res) -> str | None:
        if isinstance(res, Exception):
            return f"rank/unrank of {self.r} raised {res!r}"
        label, back = res
        ok = (
            len(label) == self.m
            and list(label) == sorted(set(label))
            and 1 <= label[0]
            and label[-1] <= self.n
            and sum(comb(e - 1, i) for i, e in enumerate(label, start=1)) == self.r
        )
        if not ok or back != self.r:
            return f"unrank({self.r}, {self.n}, {self.m}) = {label}, rank back {back}"
        return None


@dataclass
class MalformedQuery:
    """Input the library must reject with ``error``."""

    what: str
    fn: object
    args: tuple
    error: type
    kind = "malformed"

    def run(self, call):
        return call(self.name, self.fn, *self.args)

    @property
    def name(self) -> str:
        return "combinat.unrank" if self.fn is unrank else "cliques.Clique.from_labels"

    def check(self, res) -> str | None:
        if isinstance(res, self.error):
            return None
        return f"malformed input ({self.what}) {self.args[0]!r}: expected {self.error.__name__}, got {res!r}"


MALFORMED = ("duplicate", "above_n", "wrong_size", "non_adjacent", "rank_range")


def malformed_query(rng: random.Random, p: JohnsonParams, what: str) -> MalformedQuery:
    n, m = p.n, p.m
    u = random_label(rng, n, m)
    if what == "rank_range":
        return MalformedQuery(what, unrank, (comb(n, m) + rng.randrange(1000), n, m), RangeError)
    if what == "duplicate":
        labels = [(u[0],) + u[:-1]]
    elif what == "above_n":
        labels = [u[:-1] + (n + 1,)]
    elif what == "wrong_size":
        y = rng.choice([x for x in range(1, n + 1) if x not in u])
        labels = [u, rng.choice((u[:-1], tuple(sorted(u + (y,)))))]
    else:
        labels = [u, swap(rng, u, n, 2)]
    return MalformedQuery(what, Clique.from_labels, (labels, p), ValidationError)


def query_ops(rng: random.Random, scale: str) -> list:
    """The query mix. Its shape is fixed: how many ops of each kind, at each
    size, of each clique class and sub-clique size, and of each malformed
    form. The seed picks only the labels. The cost of one query spans three
    orders of magnitude (a 32-member class-max clique at J(62,31) against a
    rank round trip), so drawing the shape from the seed as well would make
    the work per pass differ by about ten percent from seed to seed."""
    sizes = [JohnsonParams(n, m) for n, m in QUERY_SIZES[scale]]
    ops = []
    for kind, percent in QUERY_MIX:
        for j in range(QUERY_OPS[scale] * percent // 100):
            p = sizes[j % len(sizes)]
            n, m = p.n, p.m
            k = j // len(sizes)  # how many ops of this kind came before at this size
            if kind == "classify":
                cls, size = ("min", m + 1) if k % 2 else ("max", n - m + 1)
                labels = sub_clique(rng, n, m, cls, 1 + (k // 2) % size)
                ops.append(ClassifyQuery(p, labels, expected_classification(labels, n, m)))
            elif kind == "extend":
                u = random_label(rng, n, m)
                labels = [u, swap(rng, u, n)]
                ops.append(ExtendQuery(p, labels, expected_classification(labels, n, m)[1]))
            elif kind == "neighbors":
                ops.append(NeighborsQuery(p, random_label(rng, n, m)))
            elif kind == "adjacent":
                u = random_label(rng, n, m)
                v = swap(rng, u, n) if k % 2 else random_label(rng, n, m)
                ops.append(AdjacentQuery(u, v, len(set(u) & set(v)) == m - 1))
            elif kind == "rank":
                ops.append(RankQuery(n, m, rng.randrange(comb(n, m))))
            else:
                ops.append(malformed_query(rng, p, MALFORMED[k % len(MALFORMED)]))
    rng.shuffle(ops)  # so that warm_up's first hundred ops mix every kind
    return ops


# ----------------------------------------------------------- entry points


def build(workload: str, rng: random.Random, scale: str) -> list:
    """The ops of one pass, generated from ``rng`` before any timing. The
    worker runs them in a fresh seeded order in every pass."""
    if workload == "clique-queries":
        return query_ops(rng, scale)
    if workload == "verify-sweep":
        return [VerifyPair(n, m) for m, n in VERIFY_PAIRS[scale]]
    return export_commands(scale)


def warm_up(workload: str, ops: list) -> tuple[int, list[str]]:
    """Run each kind of op once at the smallest size, so that lazy imports and
    first-call costs land in set-up; return the number of ops run and their
    check failures."""
    if workload == "clique-queries":
        warm = ops[:100]
    else:
        warm = build(workload, random.Random(0), "tiny")
    problems = []
    for op in warm:
        try:
            res = op.run(plain_call)
        except Exception as exc:  # reported through check(), like a timed op
            res = exc
        problem = op.check(res)
        if problem:
            problems.append(problem)
    return len(warm), problems
