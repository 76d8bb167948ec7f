"""Every public callable refuses malformed arguments with ValidationError
(RangeError and RegimeError are kinds of it): one table, one row per
callable, each argument slot in turn replaced by each junk value, and each
int slot also by an equal float. A value a slot rightly accepts is listed
with the slot, and must return; a new public callable fails the
completeness test until it has a row."""

import inspect
import io
import math
import types
from collections.abc import Iterator
from itertools import islice

import pytest

import johnson_cliques
from johnson_cliques import (
    Clique,
    CliqueClass,
    DenseGraph,
    JohnsonParams,
    ValidationError,
)

P = JohnsonParams(5, 3)
P4 = JohnsonParams(4, 2)
PAIR = ((1, 2), (1, 3))
EDGE = DenseGraph((0b10, 0b01))

JUNK = {
    "none": None,
    "float": 1.5,
    "nan": math.nan,
    "str": "x",
    "bytes": b"x",
    "bool": True,
    "negative": -1,
    "huge": 10**30,
    "list": [1, 2],
    "empty": (),
    "unsorted": (2, 1),
    "nested": ((1,),),
    "dict": {},
    "object": object(),
    "float_tuple": (1.5, 2),
}

#: Every container that answers ``in`` for an int names a sweep range.
CONTAINERS = {"bytes", "list", "empty", "unsorted", "nested", "dict", "float_tuple"}

#: name: (callable, valid arguments, {slot: junk names it accepts},
#: {slot: further junk for that slot only}).
TABLE = {
    "binomial": (johnson_cliques.binomial, (5, 2), {1: {"huge"}}, {}),
    "format_label": (johnson_cliques.format_label, ((1, 2),), {}, {}),
    "iter_subsets_colex": (johnson_cliques.iter_subsets_colex, (5, 2), {1: {"huge"}}, {}),
    "make_label": (johnson_cliques.make_label, ([2, 1],), {0: {"list", "unsorted"}}, {}),
    "parse_label": (
        johnson_cliques.parse_label, ("{1,2}",), {}, {0: {"long_element": "{" + "1" * 5000 + "}"}}
    ),
    "rank": (johnson_cliques.rank, ((1, 2), 5), {}, {}),
    "unrank": (johnson_cliques.unrank, (1, 5, 2), {}, {}),
    "validate_label": (johnson_cliques.validate_label, ((1, 2), 5, 2), {2: {"none"}}, {}),
    "Edge": (johnson_cliques.Edge, PAIR, {}, {}),
    "JohnsonParams": (JohnsonParams, (5, 3), {}, {}),
    "are_adjacent": (johnson_cliques.are_adjacent, PAIR, {}, {}),
    "edge_count": (johnson_cliques.edge_count, (P,), {}, {}),
    "edges": (johnson_cliques.edges, (P,), {}, {}),
    "export": (johnson_cliques.export, (P, "dot", io.BytesIO(), 100), {3: {"none", "huge"}}, {}),
    "neighbors": (johnson_cliques.neighbors, ((1, 2, 3), P), {}, {}),
    "vertex_count": (johnson_cliques.vertex_count, (P,), {}, {}),
    "Clique": (Clique, (P4, PAIR), {}, {}),
    "Clique.from_labels": (Clique.from_labels, (PAIR, P4), {}, {}),
    "MaximalClique": (
        johnson_cliques.MaximalClique, (P, CliqueClass.MIN, (1, 2, 3, 4)), {}, {}
    ),
    "classify": (johnson_cliques.classify, (Clique(P4, PAIR),), {}, {}),
    "clique_number": (johnson_cliques.clique_number, (P,), {}, {}),
    "clique_partition": (johnson_cliques.clique_partition, (P,), {}, {}),
    "clique_partition_number": (johnson_cliques.clique_partition_number, (P,), {}, {}),
    "enumerate_max_cliques": (johnson_cliques.enumerate_max_cliques, (P,), {}, {}),
    "enumerate_min_cliques": (johnson_cliques.enumerate_min_cliques, (P,), {}, {}),
    "extend_to_maximal": (johnson_cliques.extend_to_maximal, (Clique(P4, PAIR),), {}, {}),
    "intersection_of": (johnson_cliques.intersection_of, (PAIR,), {0: {"nested"}}, {}),
    "is_clique": (johnson_cliques.is_clique, (PAIR,), {0: {"nested"}}, {}),
    "union_of": (johnson_cliques.union_of, (PAIR,), {0: {"nested"}}, {}),
    # () is the empty graph, and (2, 1) the rows of one edge.
    "DenseGraph": (
        DenseGraph,
        ((0b10, 0b01),),
        {0: {"empty", "unsorted"}},
        {0: {"later_float_row": (0b10, 1.5)}},
    ),
    "materialize": (johnson_cliques.materialize, (P, 100), {1: {"none", "huge"}}, {}),
    "maximal_cliques": (johnson_cliques.maximal_cliques, (EDGE,), {}, {}),
    "verify": (johnson_cliques.verify, (P, 100), {1: {"none", "huge"}}, {}),
    # One pair, J(3,2), so that a huge ``jobs`` starts no process.
    "verify_range": (
        johnson_cliques.verify_range,
        ([2], [3], 1, 100),
        {0: CONTAINERS, 1: CONTAINERS, 2: {"huge"}, 3: {"none", "huge"}},
        {},
    ),
}

#: Public callables that check no input by design: the exceptions, the
#: enums (Python's own lookup), the records the library builds for its own
#: results, the Label alias and the colex sort key.
EXEMPT = {
    "RangeError", "RegimeError", "ValidationError",
    "CliqueClass", "ClassificationKind",
    "Classification", "CliquePartition", "VerificationReport", "SkippedPair", "FailedPair",
    "Label", "colex_key",
}


def _call(f, args):
    """Call ``f``, and take a few items of a lazy result, where its checks run."""
    result = f(*args)
    if isinstance(result, Iterator):
        return list(islice(result, 3))
    return result


def _public_callables():
    """Public names of the package, and Class.method for each public method
    of a public class that takes an argument."""
    names = set()
    for name, obj in vars(johnson_cliques).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        names.add(name)
        if inspect.isclass(obj) and name not in EXEMPT:
            for attr, member in vars(obj).items():
                if attr.startswith("_") or not isinstance(member, (classmethod, types.FunctionType)):
                    continue
                params = list(inspect.signature(getattr(obj, attr)).parameters)
                if params[int(not isinstance(member, classmethod)):]:
                    names.add(f"{name}.{attr}")
    return names


def test_every_public_callable_has_a_row():
    assert _public_callables() == set(TABLE) | EXEMPT


@pytest.mark.parametrize("name", TABLE)
def test_junk_in_any_slot_is_refused(name):
    f, args, accepted, extra = TABLE[name]
    _call(f, args)
    wrong = []
    for slot, valid in enumerate(args):
        # 2.0 == 2 (and True == 1), so a size compared by == alone takes them.
        equal = {"equal_float": float(valid)} if type(valid) is int else {}
        for junk, value in {**JUNK, **equal, **extra.get(slot, {})}.items():
            call = list(args)
            call[slot] = value
            try:
                _call(f, call)
            except ValidationError:
                if junk in accepted.get(slot, ()):
                    wrong.append(f"slot {slot} refused {junk}, which it accepts")
            except Exception as exc:
                wrong.append(f"slot {slot} let {type(exc).__name__} out for {junk}")
            else:
                if junk not in accepted.get(slot, ()):
                    wrong.append(f"slot {slot} accepted {junk}")
    assert not wrong
