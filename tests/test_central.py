import pytest

from hyperforms import (
    CentralResult,
    InvariantError,
    UnstableTreeError,
    WeightedTree,
    contract_F_m,
    enumerate_stable_trees,
    find_central,
    half_weight_edge,
    path_tree,
    star_tree,
    tree,
)
from hyperforms.central import is_central
from hyperforms.forms import BinaryFormClass, GitClass, classify


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
        assert result.is_semistable_edge
        assert result.edge == (0, 1)

    def test_single_vertex(self):
        assert find_central(tree({0: 7})).vertex == 0

    def test_two_vertices_4_2(self):
        # complementary weights: 2 < 3 at the heavy vertex, 4 > 3 at the light
        assert find_central(path_tree(4, 2)).vertex == 0

    def test_unstable_rejected(self):
        with pytest.raises(UnstableTreeError):
            find_central(path_tree(1, 5))

    def test_two_heavy_sides_raise_invariant_error(self, monkeypatch):
        # Every side weighing m makes all three neighbours of the centre heavy.
        monkeypatch.setattr(WeightedTree, "side_weight", lambda self, edge, toward: self.m)
        with pytest.raises(InvariantError, match="more than one heavy side"):
            find_central(star_tree(0, 3, 3, 3))

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
                e for e in t.edges if 2 * t.side_weight(e, toward=e[0]) == m
            ]
            assert len(halves) <= 1
            result = find_central(t)
            assert result.is_semistable_edge == bool(halves)


class TestContract:
    def test_two_vertices_4_2(self):
        assert contract_F_m(path_tree(4, 2)).multiplicities == (2, 1, 1, 1, 1)

    def test_two_vertices_3_5(self):
        # genus-3 boundary: branch of weight 3 contracted onto 5 simple points
        assert contract_F_m(path_tree(3, 5)).multiplicities == (3, 1, 1, 1, 1, 1)

    def test_semistable_point(self):
        assert contract_F_m(path_tree(2, 2)) == BinaryFormClass.semistable()

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
