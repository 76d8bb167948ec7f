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
    format_label,
    intersection_of,
    iter_subsets_colex,
    make_label,
    neighbors,
    parse_label,
    rank,
    union_of,
    unrank,
    validate_label,
)
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
        with pytest.raises(RangeError):
            unrank(6, 4, 2)
        with pytest.raises(RangeError):
            unrank(-1, 4, 2)
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
        st.frozensets(st.integers(1, 40), max_size=10),
        st.frozensets(st.integers(1, 40), max_size=10),
    )
    def test_inclusion_exclusion(self, a, b):
        la, lb = make_label(a), make_label(b)
        assert len(intersection_of([la, lb])) + len(union_of([la, lb])) == len(la) + len(lb)

    @given(
        st.frozensets(st.integers(1, 40), max_size=10),
        st.frozensets(st.integers(1, 40), max_size=10),
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

    @pytest.mark.parametrize(
        "bad", ["", "{}", "{1,2", "1,2}", "{1, 2}", "{a,b}", "{1,,2}", "{1,2}x", "{0,1}"]
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

    @given(st.frozensets(st.integers(1, MAX_GROUND_SET), min_size=1, max_size=12))
    def test_canonical_text_roundtrip(self, elements):
        text = "{" + ",".join(str(e) for e in sorted(elements)) + "}"
        assert format_label(parse_label(text)) == text


# Each call hands a label element or a parameter that is not an int to an
# entry point; each must be refused with ValidationError before any
# comparison (a str would raise TypeError there, a float would pass).
NON_INT_CALLS = {
    "clique_from_float_labels": lambda: Clique.from_labels(
        [(1.5, 2), (1.5, 3)], JohnsonParams(5, 2)
    ),
    "maximal_clique_float_set": lambda: MaximalClique(
        JohnsonParams(5, 2), CliqueClass.MIN, (1, 2.5, 3)
    ),
    "make_label_float": lambda: make_label([2.5, 1]),
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


class TestColexStream:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 1), (6, 6), (5, 0)])
    def test_matches_sorted_enumeration(self, n, k):
        assert list(iter_subsets_colex(n, k)) == colex_subsets(n, k)

    def test_empty_when_k_exceeds_n(self):
        assert list(iter_subsets_colex(3, 4)) == []
