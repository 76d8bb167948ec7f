import pytest
from hypothesis import given
from hypothesis import strategies as st

from johnson_cliques import (
    MAX_GROUND_SET,
    RangeError,
    ValidationError,
    binomial,
    format_label,
    intersection_of,
    iter_subsets_colex,
    make_label,
    parse_label,
    rank,
    union_of,
    unrank,
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


class TestColexStream:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 1), (6, 6), (5, 0)])
    def test_matches_sorted_enumeration(self, n, k):
        assert list(iter_subsets_colex(n, k)) == colex_subsets(n, k)

    def test_empty_when_k_exceeds_n(self):
        assert list(iter_subsets_colex(3, 4)) == []
