import functools
import io
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from johnson_cliques import (
    MAX_GROUND_SET,
    Clique,
    CliqueClass,
    JohnsonParams,
    MaximalClique,
    RangeError,
    ValidationError,
    are_adjacent,
    binomial,
    classify,
    clique_number,
    clique_partition,
    clique_partition_number,
    edge_count,
    edges,
    enumerate_max_cliques,
    enumerate_min_cliques,
    export,
    extend_to_maximal,
    format_label,
    intersection_of,
    iter_subsets_colex,
    make_label,
    materialize,
    neighbors,
    parse_label,
    rank,
    union_of,
    unrank,
    validate_label,
    verify,
    vertex_count,
)
from johnson_cliques.combinat import _CHUNK_LINES, _colex_runs
from helpers import colex_subsets, pascal_binomial, pascal_triangle


class TestBinomial:
    def test_examples(self):
        assert binomial(4, 2) == 6
        assert binomial(5, 0) == 1
        # frozen from the addition-only oracle
        assert pascal_binomial(9, 4) == 126
        assert binomial(9, 4) == 126

    def test_zero_when_k_exceeds_n(self):
        assert binomial(3, 5) == 0
        assert binomial(0, 1) == 0

    def test_pascal_rule_exhaustive(self):
        tri = pascal_triangle(30)
        for n in range(31):
            for k in range(n + 1):
                assert binomial(n, k) == tri[n][k]
        for n in range(1, 31):
            for k in range(1, n):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValidationError):
            binomial(-1, 0)
        with pytest.raises(ValidationError):
            binomial(4, -2)

    def test_bound_enforced(self):
        assert binomial(MAX_GROUND_SET, 2) == 62 * 61 // 2
        with pytest.raises(RangeError):
            binomial(MAX_GROUND_SET + 1, 2)


# Each call takes a ground set one past the bound; binomial() owns the rule,
# so each must be refused with the same RangeError text.
OVER_BOUND_CALLS = {
    "binomial": lambda: binomial(63, 2),
    "unrank": lambda: unrank(0, 63, 2),
    "rank": lambda: rank((1, 63), 63),
    "validate_label": lambda: validate_label((1, 2), 63),
    "iter_subsets_colex": lambda: list(iter_subsets_colex(63, 2)),
    "johnson_params": lambda: JohnsonParams(63, 2),
}


@pytest.mark.parametrize("call", OVER_BOUND_CALLS.values(), ids=list(OVER_BOUND_CALLS))
def test_over_bound_is_refused_with_one_text(call):
    with pytest.raises(RangeError) as info:
        call()
    assert str(info.value) == f"n=63 exceeds the supported bound n <= {MAX_GROUND_SET}"


class TestRankUnrank:
    def test_rank_examples(self):
        assert rank((1, 2), 4) == 0
        assert rank((3, 4), 4) == 5  # frozen from colex enumeration below
        assert rank((1, 2, 3), 5) == 0

    def test_unrank_examples(self):
        assert unrank(0, 4, 2) == (1, 2)
        assert unrank(5, 4, 2) == (3, 4)
        assert unrank(9, 5, 3) == (3, 4, 5)  # last of C(5,3) = 10

    @pytest.mark.parametrize("n,m", [(4, 2), (5, 3), (6, 3), (7, 4), (8, 2)])
    def test_matches_colex_enumeration(self, n, m):
        ordered = colex_subsets(n, m)
        assert len(ordered) == binomial(n, m)
        for i, subset in enumerate(ordered):
            assert rank(subset, n) == i
            assert unrank(i, n, m) == subset

    def test_roundtrip_exhaustive_small(self):
        # every rank for parameter pairs with at most 10**5 subsets
        for n, m in [(10, 5), (12, 4), (18, 9), (16, 2)]:
            total = binomial(n, m)
            assert total <= 10**5
            for r in range(total):
                assert rank(unrank(r, n, m), n) == r

    @given(st.integers(min_value=0, max_value=binomial(62, 31) - 1))
    def test_roundtrip_sampled_large(self, r):
        assert rank(unrank(r, 62, 31), 62) == r

    def test_unrank_out_of_range(self):
        with pytest.raises(RangeError) as info:
            unrank(6, 4, 2)
        assert str(info.value) == "rank 6 out of range 0..5 for C(4,2)"
        with pytest.raises(RangeError) as info:
            unrank(-1, 4, 2)
        assert str(info.value) == "rank -1 out of range 0..5 for C(4,2)"
        # The scan calls math.comb unchecked: bad n and m are refused by the
        # one binomial(n, m) call before it.
        with pytest.raises(RangeError):
            unrank(0, 63, 2)
        with pytest.raises(ValidationError):
            unrank(0, 5, -1)

    def test_rank_rejects_bad_labels(self):
        with pytest.raises(ValidationError):
            rank((2, 1), 4)
        with pytest.raises(ValidationError):
            rank((1, 5), 4)
        with pytest.raises(ValidationError):
            rank((0, 1), 4)

    @pytest.mark.parametrize("label,n", [((1, 63), 63), ((1, 5), 100)])
    def test_rank_refuses_n_above_the_bound(self, label, n):
        # As unrank(0, 63, 2) does, whatever the label's elements are.
        with pytest.raises(RangeError):
            rank(label, n)


class TestSetAlgebra:
    def test_examples(self):
        assert intersection_of([(1, 2), (1, 3)]) == (1,)
        assert union_of([(1, 2), (1, 2)]) == (1, 2)
        assert intersection_of([(1, 2), (3, 4)]) == ()

    @given(
        st.frozensets(st.integers(1, 40), min_size=1, max_size=10),
        st.frozensets(st.integers(1, 40), min_size=1, max_size=10),
    )
    def test_inclusion_exclusion(self, a, b):
        la, lb = make_label(a), make_label(b)
        assert len(intersection_of([la, lb])) + len(union_of([la, lb])) == len(la) + len(lb)

    @given(
        st.frozensets(st.integers(1, 40), min_size=1, max_size=10),
        st.frozensets(st.integers(1, 40), min_size=1, max_size=10),
    )
    def test_outputs_sorted_and_match_set_semantics(self, a, b):
        la, lb = make_label(a), make_label(b)
        for got, expected in [
            (intersection_of([la, lb]), a & b),
            (union_of([la, lb]), a | b),
        ]:
            assert got == tuple(sorted(expected))


class TestLabelText:
    def test_roundtrip(self):
        assert parse_label("{1,3,4}") == (1, 3, 4)
        assert format_label((1, 3, 4)) == "{1,3,4}"
        assert parse_label(format_label((2, 7))) == (2, 7)

    def test_single_element(self):
        assert parse_label("{5}") == (5,)

    # int() reads Arabic-Indic, mathematical and fullwidth digits, but the
    # text form takes ASCII digits only.
    @pytest.mark.parametrize(
        "bad",
        ["", "{}", "{1,2", "1,2}", "{1, 2}", "{a,b}", "{1,,2}", "{1,2}x", "{0,1}",
         "{\u0661,\u0662}", "{\U0001d7cf,\U0001d7d0}", "{1,\uff12}"],
    )
    def test_invalid_syntax_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_label(bad)

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            parse_label("{1,1,2}")

    def test_unordered_input_normalized(self):
        assert parse_label("{3,1}") == (1, 3)
        assert parse_label("{3,1,2}") == (1, 2, 3)
        assert parse_label("{01,2}") == (1, 2)
        assert make_label([4, 2, 9]) == (2, 4, 9)

    def test_elements_beyond_ground_set_bound_rejected(self):
        with pytest.raises(ValidationError):
            make_label([1, MAX_GROUND_SET + 1])
        with pytest.raises(ValidationError):
            parse_label("{1,100}")

    @pytest.mark.parametrize(
        "text", ["{" + "1" * 5000 + "}", "{2," + "1" * 5000 + "}"], ids=["alone", "second"]
    )
    def test_element_of_more_digits_than_the_bound_is_refused(self, text):
        # int() raises ValueError past 4300 digits; the text is refused first.
        with pytest.raises(ValidationError, match="element"):
            parse_label(text)

    def test_leading_zeros_are_dropped_however_many(self):
        assert parse_label("{1," + "0" * 5000 + "2}") == (1, 2)
        assert parse_label("{" + "0" * 5000 + "62}") == (62,)
        with pytest.raises(ValidationError):
            parse_label("{" + "0" * 5000 + "}")

    def test_empty_label_has_no_text(self):
        # parse_label() refuses "{}", so format_label() must not write it.
        with pytest.raises(ValidationError, match="empty label"):
            format_label(())

    # parse_label() refuses "{}", so no entry point takes the empty label;
    # each of these returned a value while validate_label() let () through.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: make_label([]),
            lambda: rank((), 5),
            lambda: are_adjacent((), ()),
            lambda: validate_label((), 5),
        ],
        ids=["make_label", "rank", "are_adjacent", "validate_label"],
    )
    def test_empty_label_is_refused(self, call):
        with pytest.raises(ValidationError, match="empty label"):
            call()

    @given(st.frozensets(st.integers(1, MAX_GROUND_SET), min_size=1, max_size=12))
    def test_canonical_text_roundtrip(self, elements):
        text = "{" + ",".join(str(e) for e in sorted(elements)) + "}"
        assert format_label(parse_label(text)) == text


# Each call hands a label element or a parameter that is not an int to an
# entry point; each must be refused with ValidationError before any
# comparison (a str would raise TypeError there, a float would pass). So
# must a label, or a collection of labels, that is not iterable, and label
# text that is not a str.
NON_INT_CALLS = {
    "clique_from_float_labels": lambda: Clique.from_labels(
        [(1.5, 2), (1.5, 3)], JohnsonParams(5, 2)
    ),
    "maximal_clique_float_set": lambda: MaximalClique(
        JohnsonParams(5, 2), CliqueClass.MIN, (1, 2.5, 3)
    ),
    "make_label_float": lambda: make_label([2.5, 1]),
    "make_label_str_and_int": lambda: make_label([1, "2"]),
    "make_label_not_iterable": lambda: make_label(5),
    "clique_from_labels_not_iterable": lambda: Clique.from_labels([5], JohnsonParams(5, 2)),
    "clique_from_labels_str_and_int": lambda: Clique.from_labels(
        [(1, 2), (1, "3")], JohnsonParams(5, 2)
    ),
    "union_of_not_iterable": lambda: union_of(5),
    "intersection_of_str_and_int": lambda: intersection_of([(1, 2), ("1", 3)]),
    "parse_label_int": lambda: parse_label(5),
    "parse_label_bytes": lambda: parse_label(b"{1,2}"),
    "params_float_n": lambda: JohnsonParams(5.5, 3),
    "params_str_n": lambda: JohnsonParams("5", 3),
    "params_float_m": lambda: JohnsonParams(5, 3.0),
    "params_bool_m": lambda: JohnsonParams(5, True),
    "are_adjacent_float": lambda: are_adjacent((1.5, 2), (1.5, 3)),
    "validate_label_str": lambda: validate_label(("1", "2"), 5),
    "validate_label_bool": lambda: validate_label((True, 2), 5),
    "rank_float": lambda: rank((1.5, 2), 5),
    "neighbors_float": lambda: neighbors((1.5, 2), JohnsonParams(5, 2)),
    "binomial_float_n": lambda: binomial(5.5, 2),
    "binomial_bool_k": lambda: binomial(5, True),
    "unrank_float_rank": lambda: unrank(1.5, 5, 2),
    "unrank_str_n": lambda: unrank(1, "5", 2),
    "unrank_bool_m": lambda: unrank(1, 5, True),
    "iter_subsets_float_n": lambda: list(iter_subsets_colex(5.5, 2)),
    "iter_subsets_bool_k": lambda: list(iter_subsets_colex(5, True)),
    "rank_float_n": lambda: rank((1,), 2.5),
    "rank_str_n": lambda: rank((1, 2), "5"),
    "rank_negative_n": lambda: rank((1,), -1),
    "format_label_float_str": lambda: format_label((1.5, "x")),
    "clique_from_labels_int": lambda: Clique.from_labels(5, JohnsonParams(5, 2)),
    "validate_label_str_n": lambda: validate_label((1,), "5"),
    "validate_label_none_n": lambda: validate_label((1,), None),
    "validate_label_float_n": lambda: validate_label((1,), 5.5),
    "validate_label_bool_n": lambda: validate_label((1,), True),
}


class TestIntegerInputs:
    @pytest.mark.parametrize("call", NON_INT_CALLS.values(), ids=list(NON_INT_CALLS))
    def test_non_int_input_is_refused(self, call):
        with pytest.raises(ValidationError, match="int"):
            call()


# Each call hands a label that is not a tuple to an entry point that takes
# a label as it is; each must be refused with ValidationError, not accepted
# (a list would rank as a tuple) or left to fail later with TypeError.
NON_TUPLE_CALLS = {
    "validate_label_int": lambda: validate_label(5, 5),
    "validate_label_list": lambda: validate_label([1, 2], 5),
    "are_adjacent_int": lambda: are_adjacent(5, (1, 2)),
    "neighbors_list": lambda: neighbors([1, 2], JohnsonParams(5, 2)),
    "rank_list": lambda: rank([1, 2], 5),
    "maximal_clique_list_set": lambda: MaximalClique(
        JohnsonParams(5, 3), CliqueClass.MIN, [1, 2, 3, 4]
    ),
    "clique_list_members": lambda: Clique(JohnsonParams(5, 2), [(1, 2)]),
    "format_label_int": lambda: format_label(5),
}


class TestTupleLabels:
    @pytest.mark.parametrize("call", NON_TUPLE_CALLS.values(), ids=list(NON_TUPLE_CALLS))
    def test_non_tuple_label_is_refused(self, call):
        with pytest.raises(ValidationError, match="tuple"):
            call()

    def test_normalizing_entry_points_still_take_any_iterable(self):
        p = JohnsonParams(5, 2)
        assert Clique.from_labels([[1, 2], [1, 3]], p).members == ((1, 2), (1, 3))
        assert intersection_of([[1, 2], [1, 3]]) == (1,)
        assert union_of([[1, 2], [1, 3]]) == (1, 2, 3)


# Each call hands an (n, m) tuple where a JohnsonParams belongs; each must be
# refused with ValidationError, not fail later with AttributeError on p.n.
NON_PARAMS_CALLS = {
    "vertex_count": lambda: vertex_count((5, 3)),
    "edge_count": lambda: edge_count((5, 3)),
    "neighbors": lambda: neighbors((1, 2, 3), (5, 3)),
    "edges": lambda: edges((5, 3)),
    "export": lambda: export((5, 3), "dot", io.BytesIO()),
    "maximal_clique": lambda: MaximalClique((5, 3), CliqueClass.MIN, (1, 2, 3, 4)),
    "clique": lambda: Clique((5, 3), ((1, 2, 3),)),
    "clique_from_labels": lambda: Clique.from_labels([(1, 2, 3)], (5, 3)),
    "enumerate_min_cliques": lambda: enumerate_min_cliques((5, 3)),
    "enumerate_max_cliques": lambda: enumerate_max_cliques((5, 3)),
    "clique_number": lambda: clique_number((5, 3)),
    "clique_partition_number": lambda: clique_partition_number((5, 3)),
    "clique_partition": lambda: clique_partition((5, 3)),
    "materialize": lambda: materialize((5, 3)),
    "verify": lambda: verify((5, 3)),
}

# Each call hands a label tuple or a string where a Clique belongs.
NON_CLIQUE_CALLS = {
    "classify": lambda: classify("x"),
    "extend_to_maximal": lambda: extend_to_maximal(((1, 2), (1, 3))),
}


class TestParamsType:
    @pytest.mark.parametrize("call", NON_PARAMS_CALLS.values(), ids=list(NON_PARAMS_CALLS))
    def test_params_that_are_not_johnson_params_are_refused(self, call):
        with pytest.raises(ValidationError, match=r"expected JohnsonParams, got \(5, 3\)"):
            call()


class TestCliqueArgument:
    @pytest.mark.parametrize("call", NON_CLIQUE_CALLS.values(), ids=list(NON_CLIQUE_CALLS))
    def test_cliques_that_are_not_clique_objects_are_refused(self, call):
        with pytest.raises(ValidationError, match="expected Clique, got "):
            call()


class TestColexStream:
    # Every shape of the prefix table: j = k, k = n and n - k < j, with
    # k = 0 and k = n at the widest ground set.
    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for n in range(15) for k in range(n + 1)]
        + [(MAX_GROUND_SET, k) for k in (0, 1, 2, 61, 62)],
    )
    def test_matches_sorted_enumeration(self, n, k):
        assert list(iter_subsets_colex(n, k)) == colex_subsets(n, k)

    def test_empty_when_k_exceeds_n(self):
        assert list(iter_subsets_colex(3, 4)) == []

    @pytest.mark.parametrize("n,k", [(-3, 0), (4, -1), (-1, -1)])
    def test_negative_arguments_refused_as_binomial_refuses_them(self, n, k):
        with pytest.raises(ValidationError, match="non-negative int"):
            binomial(n, k)
        stream = iter_subsets_colex(n, k)
        with pytest.raises(ValidationError, match="non-negative int"):
            next(stream)

    def test_ground_set_bound(self):
        # Past the bound the stream would hold labels that every other
        # entry point refuses; it is refused at the first item instead.
        assert list(iter_subsets_colex(MAX_GROUND_SET, MAX_GROUND_SET)) == [
            tuple(range(1, MAX_GROUND_SET + 1))
        ]
        stream = iter_subsets_colex(MAX_GROUND_SET + 2, MAX_GROUND_SET + 1)
        with pytest.raises(RangeError, match=f"n={MAX_GROUND_SET + 2} exceeds"):
            next(stream)


# Each kind of value the bulk streams build by runs: the per-set value, and
# the per-element lists and tail that _colex_runs() adds up to it.
RUN_KINDS = {
    "text": (
        lambda s: "<" + ",".join(map(str, s)) + ">",
        lambda n: ([f"<{e}" for e in range(n + 1)], [f",{e}" for e in range(n + 1)], ">"),
    ),
    "mask": (
        lambda s: sum(1 << e for e in s),
        lambda n: ([1 << e for e in range(n + 1)], [1 << e for e in range(n + 1)], 0),
    ),
    "tuple": (
        lambda s: s,
        lambda n: ([(e,) for e in range(n + 1)], [(e,) for e in range(n + 1)], ()),
    ),
}


def _run_values(n, k, kind):
    firsts, others, tail = RUN_KINDS[kind][1](n)
    for prefixes, rest in _colex_runs(n, k, firsts, others, tail):
        assert 0 < len(prefixes) <= _CHUNK_LINES
        yield from (q + rest for q in prefixes)


@functools.cache
def _deepest_prefix():
    """The 30,000 least 31-subsets of {1..62} in colex order, each one
    unranked on its own."""
    return [unrank(r, 62, 31) for r in range(30_000)]


class TestColexRuns:
    @pytest.mark.parametrize("kind", RUN_KINDS)
    def test_every_small_shape_matches_the_per_set_values(self, kind):
        value = RUN_KINDS[kind][0]
        for n in range(1, 15):
            for k in range(1, n + 1):
                expected = [value(s) for s in colex_subsets(n, k)]
                assert list(_run_values(n, k, kind)) == expected, (n, k)

    @pytest.mark.parametrize("kind", RUN_KINDS)
    @pytest.mark.parametrize("k", [1, 61, 62])
    def test_widest_ground_set(self, kind, k):
        value = RUN_KINDS[kind][0]
        expected = [value(s) for s in colex_subsets(MAX_GROUND_SET, k)]
        assert list(_run_values(MAX_GROUND_SET, k, kind)) == expected

    @pytest.mark.parametrize("kind", RUN_KINDS)
    def test_deepest_shape_starts_as_the_lazy_stream(self, kind):
        # C(62, 31) sets are far too many to list. The first 30,000 come in
        # runs of 1, 3, 6 or 10 sets, most of them of one.
        value = RUN_KINDS[kind][0]
        prefix = _deepest_prefix()
        assert list(islice(iter_subsets_colex(62, 31), 30_000)) == prefix
        expected = [value(s) for s in prefix]
        assert list(islice(_run_values(62, 31, kind), 30_000)) == expected

    def test_runs_are_all_sets_sharing_their_larger_elements(self):
        # J(13,5)'s labels fit the table whole: one run. C(22,5) do not, so
        # the three least elements run over the table of 1,140 3-subsets.
        singles = [(e,) for e in range(23)]
        assert [len(q) for q, _ in _colex_runs(13, 5, singles, singles, ())] == [1287]
        runs = list(_colex_runs(22, 5, singles, singles, ()))
        assert [rest for _, rest in runs] == [(a + 3, b + 3) for a, b in colex_subsets(19, 2)]
        assert [len(q) for q, (t, _) in runs] == [binomial(t - 1, 3) for _, (t, _) in runs]
        assert max(len(q) for q, _ in runs) == binomial(20, 3) == 1140
