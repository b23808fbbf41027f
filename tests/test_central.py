from collections import Counter

import pytest

from hyperforms import (
    CentralResult,
    InvariantError,
    UnstableTreeError,
    contract_F_m,
    enumerate_stable_trees,
    find_central,
    path_tree,
    star_tree,
    tree,
)
from hyperforms.forms import BinaryFormClass, GitClass, classify

from conftest import (
    central_by_definition, coarsens, contracted, dissymmetry_count, fibre_count, half_weight_edge,
    is_central, partitions, random_stable_tree, relabeled, roots_refine, side_weight, tail_counts,
)


def edges_of_the_census(top: int = 12):
    """(T, e) for every edge e of every stable class T with 4 <= m <= top."""
    for m in range(4, top + 1):
        for t in enumerate_stable_trees(m, bound=top).trees:
            for e in t.edges:
                yield t, e


class TestCentralResult:
    @pytest.mark.parametrize(
        "kwargs", [{"vertex": 0, "edge": (0, 1)}, {}], ids=["both", "neither"]
    )
    def test_exactly_one_field(self, kwargs):
        with pytest.raises(ValueError, match="^exactly one of vertex/edge must be set$"):
            CentralResult(**kwargs)


class TestFindCentral:
    def test_path_middle(self):
        result = find_central(path_tree(2, 1, 2))
        assert result.vertex == 1
        # brute-force check of the definition at all three vertices
        t = path_tree(2, 1, 2)
        assert [v for v in t.ids if is_central(t, v)] == [1]

    def test_semistable_edge(self):
        result = find_central(path_tree(2, 2))
        assert result.edge is not None
        assert result.edge == (0, 1)

    def test_single_vertex(self):
        assert find_central(tree({0: 7})).vertex == 0

    def test_two_vertices_4_2(self):
        # complementary weights: 2 < 3 at the heavy vertex, 4 > 3 at the light
        assert find_central(path_tree(4, 2)).vertex == 0

    def test_unstable_rejected(self):
        with pytest.raises(UnstableTreeError):
            find_central(path_tree(1, 5))

    def test_two_heavy_sides_raise_invariant_error(self):
        # Every subtree weighing m makes all three neighbours of the centre heavy.
        t = star_tree(0, 3, 3, 3)
        t.__dict__["_rooted"] = t._rooted._replace(below=[t.m] * 4)
        with pytest.raises(InvariantError, match="central vertex has a side weighing at least m/2"):
            find_central(t)

    @pytest.mark.parametrize("m", range(3, 10))
    def test_unique_central_vertex_exhaustive(self, m):
        for t in enumerate_stable_trees(m).trees:
            if half_weight_edge(t) is not None:
                continue
            central = [v for v in t.ids if is_central(t, v)]
            assert len(central) == 1, t
            assert find_central(t).vertex == central[0]

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_half_weight_edge_unique(self, m):
        for t in enumerate_stable_trees(m).trees:
            halves = [
                e for e in t.edges if 2 * side_weight(t, e, toward=e[0]) == m
            ]
            assert len(halves) <= 1
            result = find_central(t)
            assert (result.edge is not None) == bool(halves)

    # Census trees are rooted at their centre, so the tests above never follow
    # the chain of heavy subtrees past the first id; these trees do.
    def test_relabeled_census_classes(self):
        away = 0
        trees = [
            relabeled(t, seed=m)
            for m in range(3, 13)
            for t in enumerate_stable_trees(m, bound=12).trees
        ]
        assert len(trees) == 2159
        for t in trees:
            result = find_central(t)
            assert result == central_by_definition(t), t
            away += t.ids[0] not in (result.edge or (result.vertex,))
        assert away > len(trees) // 2

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees(self, seed):
        t = random_stable_tree(seed, n=3000)
        assert find_central(t) == central_by_definition(t)

    def test_long_path_odd_m(self):
        t = path_tree(2, *[1] * 9998, 3)  # m = 10003
        assert find_central(t) == central_by_definition(t) == CentralResult(vertex=5000)

    def test_long_path_even_m(self):
        t = path_tree(2, *[1] * 9998, 2)  # m = 10002
        assert find_central(t) == central_by_definition(t) == CentralResult(edge=(4999, 5000))

    def test_star_first_id_a_leaf(self):
        t = tree({0: 3, 1: 0, 2: 3, 3: 3}, [(1, 0), (1, 2), (1, 3)])
        assert find_central(t) == central_by_definition(t) == CentralResult(vertex=1)


class TestContract:
    def test_two_vertices_4_2(self):
        assert contract_F_m(path_tree(4, 2)).multiplicities == (2, 1, 1, 1, 1)

    def test_two_vertices_3_5(self):
        # genus-3 boundary: branch of weight 3 contracted onto 5 simple points
        assert contract_F_m(path_tree(3, 5)).multiplicities == (3, 1, 1, 1, 1, 1)

    def test_semistable_point(self):
        assert contract_F_m(path_tree(2, 2)) == BinaryFormClass(semistable_point=True)

    def test_smooth_form(self):
        assert contract_F_m(tree({0: 7})).multiplicities == (1,) * 7

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_semistable_iff_half_edge_and_stable_otherwise(self, m):
        for t in enumerate_stable_trees(m).trees:
            form = contract_F_m(t)
            if half_weight_edge(t) is not None:
                assert form.semistable_point
            else:
                assert form.degree == m
                assert classify(form) == GitClass.STABLE

    @pytest.mark.parametrize("m", range(3, 10))
    def test_multiplicity_sum_and_bound(self, m):
        for t in enumerate_stable_trees(m).trees:
            form = contract_F_m(t)
            if form.semistable_point:
                continue
            assert form.degree == m
            assert all(2 * n < m for n in form.multiplicities)


def fibres(m: int) -> dict:
    """Every value of `contract_F_m` on stable trees of weight m, with the size
    of its fibre (`fibre_count`): the GIT-stable forms of degree m, whose
    multiplicities are all below m/2, and for even m the semistable point."""
    T = tail_counts(m)
    forms = [BinaryFormClass(p) for p in partitions(m, (m - 1) // 2)]
    if m % 2 == 0:
        forms.append(BinaryFormClass(semistable_point=True))
    return {form: fibre_count(form, T) for form in forms}


def recursive_partitions(total: int, top: int):
    """`partitions` as a chain of nested generators, one per part: the
    reference the iterative oracle is checked against."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, top), 0, -1):
        for rest in recursive_partitions(total - first, first):
            yield (first, *rest)


@pytest.mark.parametrize("total", range(21))
def test_partitions_match_the_recursive_reference(total):
    for top in range(total + 2):
        assert list(partitions(total, top)) == list(recursive_partitions(total, top)), top


class TestFibres:
    """Section 3's map on the census, fibre by fibre: the trees over a form
    are its centre's tails, counted apart from the census."""

    @pytest.mark.parametrize("m", range(3, 15))
    def test_census_falls_into_the_fibres(self, m):
        assert Counter(map(contract_F_m, enumerate_stable_trees(m, bound=14).trees)) == fibres(m)

    @pytest.mark.parametrize("m", range(3, 31))
    def test_fibres_sum_to_the_census_count(self, m):
        assert sum(fibres(m).values()) == dissymmetry_count(m)


class TestDegeneration:
    """Section 3's map respects degeneration: T/e, T with the edge e
    contracted, is a more general curve, so f(T) lies in the closure of the
    stratum of f(T/e).  Roots may collide from T/e to T, and never split."""

    def test_brute_form_on_every_edge_to_m_12(self):
        pairs = strict = semistable = 0
        for t, e in edges_of_the_census():
            general, special = contract_F_m(contracted(t, e)), contract_F_m(t)
            pairs += 1
            if general.semistable_point:
                assert special.semistable_point, (t, e)
            elif special.semistable_point:  # T lands on the semistable point
                semistable += 1
            else:
                assert coarsens(general.multiplicities, special.multiplicities), (t, e, general, special)
                strict += special != general
        # counted, so that the check cannot pass on no edge or no collision
        assert (pairs, strict, semistable) == (11630, 4020, 658)

    def test_linear_form_on_every_edge_to_m_12(self):
        pairs = 0
        for t, e in edges_of_the_census():
            assert roots_refine(t, e), (t, e)
            pairs += 1
        assert pairs == 11630

    @pytest.mark.parametrize("fine, coarse, expected", [
        ((3, 1, 1, 1), (3, 3), True), ((3, 1, 1, 1), (4, 2), True), ((2, 2, 2), (4, 2), True),
        ((2, 2, 2), (3, 3), False), ((3, 3), (4, 2), False), ((5,), (5,), True), ((2, 1), (2, 2), False),
    ])
    def test_coarsening_search(self, fine, coarse, expected):
        assert coarsens(fine, coarse) == expected
