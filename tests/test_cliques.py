import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from johnson_cliques import (
    Classification,
    ClassificationKind,
    Clique,
    CliqueClass,
    JohnsonParams,
    MaximalClique,
    RegimeError,
    ValidationError,
    classify,
    clique_number,
    clique_partition,
    clique_partition_number,
    colex_key,
    edge_count,
    enumerate_max_cliques,
    enumerate_min_cliques,
    extend_to_maximal,
    intersection_of,
    is_clique,
    materialize,
    maximal_cliques,
    union_of,
    unrank,
)
from helpers import (
    ACCEPTANCE_PAIRS,
    DEGENERATE_PAIRS,
    colex_subsets,
    naive_label_cliques,
    quadratic_edges,
    swap_adjacent,
)

J42 = JohnsonParams(4, 2)
J53 = JohnsonParams(5, 3)


class TestIsClique:
    def test_triangle(self):
        assert is_clique([(1, 2), (1, 3), (2, 3)])

    def test_non_clique(self):
        # {1,4} and {2,3} are disjoint
        assert not is_clique([(1, 3), (1, 4), (2, 3), (3, 4)])

    def test_singleton(self):
        assert is_clique([(1, 2, 3)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            is_clique([])

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            is_clique([(1, 2), (1, 2)])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValidationError):
            is_clique([(1, 2), (1, 2, 3)])

    @pytest.mark.parametrize("n,m", [(5, 2), (5, 3), (6, 3)])
    def test_closed_form_test_matches_pairwise_definition(self, n, m):
        # is_clique and Clique decide from the union and intersection of the
        # first two members; the definition is that every two members share
        # m-1 elements. Each rotation puts other members first.
        p = JohnsonParams(n, m)
        labels = colex_subsets(n, m)
        for r in range(1, 5):
            for subset in combinations(labels, r):
                expected = all(swap_adjacent(a, b) for a, b in combinations(subset, 2))
                for k in range(r):
                    assert is_clique(subset[k:] + subset[:k]) == expected
                try:
                    Clique.from_labels(subset, p)
                    accepted = True
                except ValidationError:
                    accepted = False
                assert accepted == expected


class TestSetAggregates:
    def test_intersection_examples(self):
        assert intersection_of([(1, 2), (1, 3), (1, 4)]) == (1,)
        assert intersection_of([(2, 3), (2, 4), (3, 4)]) == ()
        assert intersection_of([(1, 3, 4), (2, 3, 4), (3, 4, 5)]) == (3, 4)

    def test_union(self):
        assert union_of([(1, 2), (1, 3)]) == (1, 2, 3)
        assert union_of([(1, 2, 3)]) == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            intersection_of([])
        with pytest.raises(ValidationError):
            union_of([])


class TestCliqueType:
    def test_from_labels_sorts_labels_and_members(self):
        c = Clique.from_labels([(5, 4, 3), (3, 4, 1), (2, 4, 3)], J53)
        assert c.members == ((1, 3, 4), (2, 3, 4), (3, 4, 5))
        assert c.size == 3

    def test_non_clique_rejected(self):
        with pytest.raises(ValidationError):
            Clique.from_labels([(1, 2), (3, 4)], J42)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValidationError):
            Clique.from_labels([(1, 5)], J42)

    def test_wrong_size_label_rejected(self):
        with pytest.raises(ValidationError):
            Clique.from_labels([(1, 2, 3)], J42)

    def test_no_member_rejected(self):
        with pytest.raises(ValidationError, match="a clique needs at least one member"):
            Clique(J42, ())
        with pytest.raises(ValidationError, match="a clique needs at least one member"):
            Clique.from_labels([], J42)


class TestMaximalCliqueType:
    def test_members_of_min(self):
        h = MaximalClique(J53, CliqueClass.MIN, (1, 2, 3, 5))
        assert h.members() == ((1, 2, 3), (1, 2, 5), (1, 3, 5), (2, 3, 5))
        assert h.size == 4
        for n, m in ACCEPTANCE_PAIRS + DEGENERATE_PAIRS:
            for clique in enumerate_min_cliques(JohnsonParams(n, m)):
                expected = tuple(sorted(combinations(clique.defining_set, m), key=colex_key))
                assert clique.members() == expected, (n, m, clique.defining_set)

    def test_members_of_max(self):
        h = MaximalClique(J53, CliqueClass.MAX, (3, 4))
        assert h.members() == ((1, 3, 4), (2, 3, 4), (3, 4, 5))
        assert h.size == 3

    def test_members_of_max_match_the_set_construction(self):
        # members() splices each outside element into the core; the core
        # plus one element, sorted, is the definition.
        for n in range(4, 15):
            for m in range(2, n - 1):
                for h in enumerate_max_cliques(JohnsonParams(n, m)):
                    core = set(h.defining_set)
                    expected = tuple(
                        tuple(sorted(core | {x})) for x in range(1, n + 1) if x not in core
                    )
                    assert h.members() == expected, (n, m, h.defining_set)

    def test_members_of_max_star(self):
        h = MaximalClique(J42, CliqueClass.MAX, (1,))
        assert h.members() == ((1, 2), (1, 3), (1, 4))

    def test_members_are_a_clique(self):
        for h in list(enumerate_min_cliques(J53)) + list(enumerate_max_cliques(J53)):
            assert is_clique(h.members())
            assert len(h.members()) == h.size

    def test_defining_set_size_validated(self):
        with pytest.raises(ValidationError):
            MaximalClique(J53, CliqueClass.MIN, (1, 2, 3))
        with pytest.raises(ValidationError):
            MaximalClique(J53, CliqueClass.MAX, (1, 2, 3))

    @pytest.mark.parametrize(
        "kind,defining_set",
        [
            (CliqueClass.MIN, (2, 1, 3, 4)),
            (CliqueClass.MIN, (1, 2, 3, 6)),
            (CliqueClass.MIN, (0, 1, 2, 3)),
            (CliqueClass.MIN, (1, 1, 2, 3)),
            (CliqueClass.MAX, (4, 3)),
            (CliqueClass.MAX, (3, 6)),
        ],
    )
    def test_defining_set_validated(self, kind, defining_set):
        # The enumerations skip this check for the sets they make themselves;
        # the public constructor keeps it.
        with pytest.raises(ValidationError):
            MaximalClique(J53, kind, defining_set)

    def test_max_class_rejected_in_degenerate_regime(self):
        with pytest.raises(RegimeError):
            MaximalClique(JohnsonParams(4, 3), CliqueClass.MAX, (1, 2))

    @pytest.mark.parametrize(
        "kind,defining_set",
        [("max", (3, 4)), ("bogus", (3, 4)), ("min", (1, 2, 3, 4)), (None, (3, 4))],
    )
    def test_kind_must_be_a_clique_class(self, kind, defining_set):
        # A str equal to a class value is not a class: it would reach
        # to_dict() without .value, or size as class max.
        with pytest.raises(ValidationError, match="CliqueClass"):
            MaximalClique(J53, kind, defining_set)

    def test_serialization(self):
        h = MaximalClique(J53, CliqueClass.MAX, (3, 4))
        assert h.to_dict() == {"class": "max", "set": [3, 4], "n": 5, "m": 3, "size": 3}


class TestClassify:
    def test_full_min_clique_already_maximal(self):
        c = Clique.from_labels([(1, 2, 3), (1, 2, 5), (1, 3, 5), (2, 3, 5)], J53)
        result = classify(c)
        assert result.kind is ClassificationKind.ALREADY_MAXIMAL
        (h,) = result.extensions
        assert h.kind is CliqueClass.MIN
        assert h.defining_set == (1, 2, 3, 5)

    def test_full_max_clique_already_maximal(self):
        c = Clique.from_labels([(1, 3, 4), (2, 3, 4), (3, 4, 5)], J53)
        result = classify(c)
        assert result.kind is ClassificationKind.ALREADY_MAXIMAL
        (h,) = result.extensions
        assert h.kind is CliqueClass.MAX
        assert h.defining_set == (3, 4)

    def test_edge_has_one_extension_per_class(self):
        c = Clique.from_labels([(1, 2), (1, 3)], J42)
        result = classify(c)
        assert result.kind is ClassificationKind.EDGE_BOTH
        h_min, h_max = result.extensions
        assert (h_min.kind, h_min.defining_set) == (CliqueClass.MIN, (1, 2, 3))
        assert (h_max.kind, h_max.defining_set) == (CliqueClass.MAX, (1,))
        # the brute-force view: exactly these two maximal cliques contain the edge
        containing = [
            cl for cl in naive_label_cliques(4, 2) if {(1, 2), (1, 3)} <= cl
        ]
        assert sorted(containing, key=sorted) == sorted(
            [frozenset(h_min.members()), frozenset(h_max.members())], key=sorted
        )

    def test_singleton(self):
        result = classify(Clique.from_labels([(1, 2)], J42))
        assert result == Classification(ClassificationKind.SINGLETON, ())

    def test_proper_sub_clique_of_min(self):
        c = Clique.from_labels([(1, 2, 3), (1, 2, 4), (1, 3, 4)], J53)
        result = classify(c)
        assert result.kind is ClassificationKind.UNIQUE_MIN
        assert result.extensions[0].defining_set == (1, 2, 3, 4)

    def test_proper_sub_clique_of_max(self):
        p = JohnsonParams(6, 3)
        c = Clique.from_labels([(1, 3, 4), (2, 3, 4), (3, 4, 5)], p)
        result = classify(c)
        assert result.kind is ClassificationKind.UNIQUE_MAX
        assert result.extensions[0].defining_set == (3, 4)

    def test_degenerate_edge_gets_single_extension(self):
        p = JohnsonParams(3, 2)
        result = classify(Clique.from_labels([(1, 2), (1, 3)], p))
        assert result.kind is ClassificationKind.UNIQUE_MIN
        (h,) = result.extensions
        assert h.defining_set == (1, 2, 3)


    @pytest.mark.parametrize("n,m", [(4, 3), (5, 3), (24, 6), (48, 12), (62, 31)])
    @given(data=st.data())
    def test_any_member_order_gives_the_set_algebra_over_all_members(self, n, m, data):
        # classify reads only the first three members; in any member order,
        # its answer must be the union or intersection of all of them.
        p = JohnsonParams(n, m)
        kind = data.draw(st.sampled_from([CliqueClass.MIN] if p.degenerate else list(CliqueClass)))
        k = m + 1 if kind is CliqueClass.MIN else m - 1
        defining_set = data.draw(st.sets(st.integers(1, n), min_size=k, max_size=k))
        h = MaximalClique(p, kind, tuple(sorted(defining_set)))
        r = data.draw(st.integers(2, h.size))
        members = tuple(data.draw(st.permutations(h.members()))[:r])
        union, core = union_of(members), intersection_of(members)
        if r == 2:
            want = [(CliqueClass.MIN, union)] + [(CliqueClass.MAX, core)] * (not p.degenerate)
        elif len(union) == m + 1:
            want = [(CliqueClass.MIN, union)]
        else:
            want = [(CliqueClass.MAX, core)]
        result = classify(Clique(p, members))
        assert [(x.kind, x.defining_set) for x in result.extensions] == want
        assert (result.kind is ClassificationKind.ALREADY_MAXIMAL) == (r == h.size)

    @pytest.mark.parametrize("n,m", ACCEPTANCE_PAIRS + DEGENERATE_PAIRS)
    def test_extensions_match_validated_construction(self, n, m):
        # classify builds its extensions without __post_init__; they must be
        # indistinguishable from the ones the public constructor builds.
        p = JohnsonParams(n, m)
        pool = list(enumerate_min_cliques(p))
        if not p.degenerate:
            pool += enumerate_max_cliques(p)
        for h in pool:
            members = h.members()
            for r in (2, 3, h.size):
                c = Clique.from_labels(members[:r], p)
                for ext in classify(c).extensions + extend_to_maximal(c):
                    built = MaximalClique(p, ext.kind, ext.defining_set)
                    assert ext == built
                    assert hash(ext) == hash(built)
                    assert repr(ext) == repr(built)


class TestExtend:
    def test_sub_clique_of_max_in_larger_graph(self):
        p = JohnsonParams(6, 3)
        c = Clique.from_labels([(1, 3, 4), (2, 3, 4), (3, 4, 5)], p)
        (h,) = extend_to_maximal(c)
        assert h.kind is CliqueClass.MAX
        assert h.defining_set == (3, 4)
        assert h.members() == ((1, 3, 4), (2, 3, 4), (3, 4, 5), (3, 4, 6))
        # brute force: exactly one maximal clique of J_6(3,2) contains the sample
        g = materialize(p)
        labels = [unrank(r, 6, 3) for r in range(g.vertex_count)]
        containing = [
            frozenset(labels[i] for i in cl)
            for cl in maximal_cliques(g)
            if {(1, 3, 4), (2, 3, 4), (3, 4, 5)} <= {labels[i] for i in cl}
        ]
        assert containing == [frozenset(h.members())]

    def test_triangle_extends_to_itself(self):
        c = Clique.from_labels([(1, 2), (1, 3), (2, 3)], J42)
        (h,) = extend_to_maximal(c)
        assert h.kind is CliqueClass.MIN
        assert h.defining_set == (1, 2, 3)

    def test_star_triangle_grows_to_full_star(self):
        p = JohnsonParams(5, 2)
        c = Clique.from_labels([(1, 2), (2, 3), (2, 4)], p)
        (h,) = extend_to_maximal(c)
        assert h.kind is CliqueClass.MAX
        assert h.defining_set == (2,)
        assert h.size == 4
        containing = [cl for cl in naive_label_cliques(5, 2) if {(1, 2), (2, 3), (2, 4)} <= cl]
        assert containing == [frozenset(h.members())]

    def test_edge_yields_both_classes_min_first(self):
        exts = extend_to_maximal(Clique.from_labels([(1, 2), (1, 3)], J42))
        assert [h.kind for h in exts] == [CliqueClass.MIN, CliqueClass.MAX]

    def test_singleton_rejected(self):
        with pytest.raises(ValidationError):
            extend_to_maximal(Clique.from_labels([(1, 2)], J42))

    def test_extension_contains_input(self):
        rng = random.Random(43210)
        for n, m in [(5, 2), (6, 3), (7, 3), (8, 4)]:
            p = JohnsonParams(n, m)
            pool = list(enumerate_min_cliques(p)) + list(enumerate_max_cliques(p))
            for _ in range(25):
                h = rng.choice(pool)
                r = rng.randint(2, h.size)
                sample = rng.sample(h.members(), r)
                for ext in extend_to_maximal(Clique.from_labels(sample, p)):
                    assert set(sample) <= set(ext.members())


class TestEnumerations:
    def test_min_counts_and_sizes(self):
        got = list(enumerate_min_cliques(J53))
        assert len(got) == 5
        assert all(h.size == 4 for h in got)

    def test_min_octahedron_matches_empty_intersection_cliques(self):
        got = {frozenset(h.members()) for h in enumerate_min_cliques(J42)}
        assert len(got) == 4
        oracle = naive_label_cliques(4, 2)
        assert len(oracle) == 8
        empty_intersection = {
            cl for cl in oracle if not set.intersection(*(set(lab) for lab in cl))
        }
        assert got == empty_intersection

    def test_min_degenerate_whole_graph(self):
        (h,) = enumerate_min_cliques(JohnsonParams(3, 2))
        assert h.defining_set == (1, 2, 3)
        assert set(h.members()) == {(1, 2), (1, 3), (2, 3)}

    def test_max_counts_and_sizes(self):
        got = list(enumerate_max_cliques(J53))
        assert len(got) == 10
        assert all(h.size == 3 for h in got)
        stars = list(enumerate_max_cliques(J42))
        assert len(stars) == 4
        assert all(h.size == 3 for h in stars)

    def test_max_degenerate_rejected(self):
        with pytest.raises(RegimeError):
            enumerate_max_cliques(JohnsonParams(4, 3))

    @pytest.mark.parametrize("n,m", ACCEPTANCE_PAIRS + DEGENERATE_PAIRS)
    def test_equal_to_validated_construction(self, n, m):
        p = JohnsonParams(n, m)
        got = list(enumerate_min_cliques(p))
        assert got == [MaximalClique(p, CliqueClass.MIN, s) for s in colex_subsets(n, m + 1)]
        if not p.degenerate:
            got += enumerate_max_cliques(p)
            want = [MaximalClique(p, CliqueClass.MAX, s) for s in colex_subsets(n, m - 1)]
            assert got[-len(want):] == want
        rebuilt = [MaximalClique(p, h.kind, h.defining_set) for h in got]
        assert [hash(h) for h in got] == [hash(h) for h in rebuilt]

    def test_defining_sets_in_colex_order(self):
        sets = [h.defining_set for h in enumerate_min_cliques(JohnsonParams(6, 3))]
        assert sets == colex_subsets(6, 4)
        sets = [h.defining_set for h in enumerate_max_cliques(JohnsonParams(6, 3))]
        assert sets == colex_subsets(6, 2)


class TestCliqueNumber:
    def test_examples(self):
        assert clique_number(J42) == 3
        assert clique_number(J53) == 4

    def test_large_flat_graph_by_brute_force(self):
        p = JohnsonParams(10, 3)
        g = materialize(p)
        observed = max(len(cl) for cl in maximal_cliques(g))
        assert observed == 8
        assert clique_number(p) == 8

    def test_matches_oracle_small_range(self, oracle_cache):
        for m in (2, 3):
            for n in range(m + 1, 8):
                _, _, cliques = oracle_cache(n, m)
                assert clique_number(JohnsonParams(n, m)) == max(len(c) for c in cliques)


class TestPartitionNumber:
    def test_examples(self):
        assert clique_partition_number(J42) == 4
        assert clique_partition_number(J53) == 10
        assert clique_partition_number(JohnsonParams(6, 3)) == 15
        assert clique_partition_number(JohnsonParams(3, 2)) == 1

    # A part covers at most C(omega, 2) edges, so a partition into
    # clique_partition_number(p) parts is minimum only if this bound is met.
    @staticmethod
    def meets_edge_bound(n, m):
        p = JohnsonParams(n, m)
        return clique_partition_number(p) * comb(clique_number(p), 2) == edge_count(p)

    def test_edge_bound_met_at_n_equals_2m(self):
        for m in range(2, 32):
            assert self.meets_edge_bound(2 * m, m), (2 * m, m)

    def test_edge_bound_met_at_n_equals_m_plus_1(self):
        # The graph is K_{m+1}: one clique, the whole graph, covers every edge.
        for m in range(2, 62):
            assert self.meets_edge_bound(m + 1, m), (m + 1, m)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: clique_partition_number gives the larger clique "
        "family when m+2 <= n != 2m, so it misses the edge bound",
    )
    def test_edge_bound_met_off_n_equals_2m(self):
        missed = [
            (n, m)
            for m in range(2, 62)
            for n in range(m + 1, 63)
            if n != 2 * m and not self.meets_edge_bound(n, m)
        ]
        assert missed == []


class TestPartition:
    @pytest.mark.parametrize(
        "n,m,expected_parts,expected_class",
        [(4, 2, 4, CliqueClass.MIN), (5, 3, 10, CliqueClass.MAX), (6, 3, 15, CliqueClass.MIN)],
    )
    def test_partitions(self, n, m, expected_parts, expected_class):
        p = JohnsonParams(n, m)
        part = clique_partition(p)
        assert len(part.parts) == expected_parts == clique_partition_number(p)
        assert all(h.kind is expected_class for h in part.parts)
        # mark-and-count against the quadratic-scan edge list
        marks = {frozenset(pair): 0 for pair in quadratic_edges(colex_subsets(n, m))}
        for h in part.parts:
            for a, b in combinations(h.members(), 2):
                marks[frozenset((a, b))] += 1
        assert all(count == 1 for count in marks.values())
        assert len(marks) == edge_count(p)

    def test_boundary_edge_budget(self):
        p = JohnsonParams(6, 3)
        part = clique_partition(p)
        per_part = len(part.parts[0].members()) * (len(part.parts[0].members()) - 1) // 2
        assert len(part.parts) * per_part == 90 == edge_count(p)

    def test_degenerate_whole_graph_is_one_part(self):
        for n, m in DEGENERATE_PAIRS:
            p = JohnsonParams(n, m)
            part = clique_partition(p)
            assert part.parts == (MaximalClique(p, CliqueClass.MIN, tuple(range(1, n + 1))),)

    def test_serialization(self):
        d = clique_partition(J42).to_dict()
        assert d["cp"] == 4
        assert len(d["parts"]) == 4


class TestFamilyView:
    """A maximal clique read as an intersecting family of m-sets."""

    def test_min_family(self):
        h = MaximalClique(J53, CliqueClass.MIN, (1, 2, 3, 5))
        assert h.size == 4 == J53.m + 1
        assert intersection_of(h.members()) == ()
        for a, b in combinations(h.members(), 2):
            assert union_of([a, b]) == (1, 2, 3, 5)

    def test_max_family(self):
        h = MaximalClique(J53, CliqueClass.MAX, (3, 4))
        assert h.size == 3 == J53.n - J53.m + 1
        assert intersection_of(h.members()) == (3, 4)

    def test_max_family_pairwise_law(self):
        h = MaximalClique(JohnsonParams(6, 2), CliqueClass.MAX, (1,))
        assert h.size == 5
        for a, b in combinations(h.members(), 2):
            assert intersection_of([a, b]) == (1,)


class TestStructureLaws:
    def test_union_or_intersection_law_for_sampled_cliques(self):
        rng = random.Random(777)
        for n, m in [(5, 2), (6, 2), (6, 3), (7, 3), (7, 4)]:
            p = JohnsonParams(n, m)
            pool = list(enumerate_min_cliques(p)) + list(enumerate_max_cliques(p))
            for _ in range(40):
                h = rng.choice(pool)
                r = rng.randint(2, h.size)
                sample = rng.sample(h.members(), r)
                u = len(union_of(sample))
                i = len(intersection_of(sample))
                if r == 2:
                    assert u == m + 1 and i == m - 1
                else:
                    assert (u == m + 1) != (i == m - 1)
                    if u == m + 1:
                        assert i == m + 1 - r
                    else:
                        assert u == m - 1 + r

    def test_extension_count_by_size(self):
        rng = random.Random(13579)
        for n, m in [(5, 2), (6, 3), (7, 4)]:
            p = JohnsonParams(n, m)
            pool = list(enumerate_min_cliques(p)) + list(enumerate_max_cliques(p))
            for _ in range(30):
                h = rng.choice(pool)
                r = rng.randint(2, h.size)
                c = Clique.from_labels(rng.sample(h.members(), r), p)
                exts = extend_to_maximal(c)
                assert len(exts) == (2 if r == 2 else 1)
