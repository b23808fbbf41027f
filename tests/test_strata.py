import io
import json
import sys

import pytest

from hyperforms import (
    classify_stratum,
    contract_F_m,
    enumerate_stable_trees,
    f_g_exponents,
    image_dimension,
    path_tree,
    tree,
)
import hyperforms.strata as strata_mod
from hyperforms.cli import main
from hyperforms.strata import DEEPER, DELTA, INTERIOR, SEMISTABLE_IMAGE, XI, StratumLabel
from hyperforms.trees import InvariantError
from conftest import reconstructed_exponents, two_vertex_tree


class TestClassifyStratum:
    def test_interior(self):
        assert classify_stratum(tree({0: 8})).kind == INTERIOR

    def test_delta(self):
        label = classify_stratum(path_tree(3, 5))
        assert (label.kind, label.index) == (DELTA, 1)

    def test_xi(self):
        label = classify_stratum(path_tree(2, 6))
        assert (label.kind, label.index) == (XI, 0)

    def test_semistable_image(self):
        label = classify_stratum(path_tree(3, 3))
        assert label.kind == SEMISTABLE_IMAGE
        assert (label.underlying.kind, label.underlying.index) == (DELTA, 1)

    def test_deeper(self):
        label = classify_stratum(path_tree(2, 2, 4))
        assert (label.kind, label.codimension) == (DEEPER, 2)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            classify_stratum(path_tree(2, 5))

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_exhaustive_over_census(self, m):
        g = (m - 2) // 2
        for t in enumerate_stable_trees(m).trees:
            label = classify_stratum(t)
            n = len(t.ids)
            if n == 1:
                assert label.kind == INTERIOR
            elif n == 2:
                j = min(w for _, w in t.vertices)
                if j == g + 1:
                    assert label.kind == SEMISTABLE_IMAGE
                elif j % 2:
                    assert (label.kind, label.index) == (DELTA, (j - 1) // 2)
                else:
                    assert (label.kind, label.index) == (XI, (j - 2) // 2)
            else:
                assert (label.kind, label.codimension) == (DEEPER, len(t.edges))


class TestLabelIndexRange:
    """A stable two-vertex tree of weight 2g+2 has its smaller weight j in
    2..g+1, so its delta or xi index (j-1)//2 is in range.  A shape outside
    that range is a bug, not bad input: `InvariantError`, exit 1."""

    @staticmethod
    def classify_with_split(monkeypatch, j, g):
        monkeypatch.setattr(strata_mod, "_shape", lambda t: (2, j))
        with pytest.raises(InvariantError, match=rf"^two-vertex split of {2 * g + 2} has smaller weight {j}$"):
            classify_stratum(two_vertex_tree(g + 1, 2 * g + 2))

    @pytest.mark.parametrize("i, g", [(0, 4), (3, 4), (1, 1), (2, 3)])
    def test_delta_index_out_of_range(self, i, g, monkeypatch):
        self.classify_with_split(monkeypatch, 2 * i + 1, g)

    @pytest.mark.parametrize("i, g", [(-1, 4), (2, 4), (1, 2)])
    def test_xi_index_out_of_range(self, i, g, monkeypatch):
        self.classify_with_split(monkeypatch, 2 * i + 2, g)

    def test_stratum_command_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(strata_mod, "_shape", lambda t: (2, (t.m - 2) // 2 + 2))
        monkeypatch.setattr(sys, "stdin", io.StringIO(path_tree(3, 5).to_json()))
        assert main(["stratum"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "internal inconsistency: two-vertex split of 8 has smaller weight 5"
        }


class TestFgExponents:
    def test_odd_branch(self):
        assert f_g_exponents(path_tree(3, 5)).multiplicities == (3, 1, 1, 1, 1, 1)

    def test_even_branch(self):
        # genus-1 tail attached at two points: exponent is the weight, 4
        assert f_g_exponents(path_tree(4, 6)).multiplicities == (4, 1, 1, 1, 1, 1, 1)

    def test_half_weight_edge_maps_to_semistable_point(self):
        assert f_g_exponents(path_tree(4, 4)).semistable_point

    def test_node_gives_exponent_2(self):
        assert f_g_exponents(path_tree(2, 6)).multiplicities == (2, 1, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_factors_through_contraction(self, m):
        for t in enumerate_stable_trees(m).trees:
            assert f_g_exponents(t) == contract_F_m(t)

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_matches_cover_tail_reconstruction(self, m):
        for t in enumerate_stable_trees(m).trees:
            recon = reconstructed_exponents(t)
            form = f_g_exponents(t)
            if recon is None:
                assert form.semistable_point
            else:
                assert list(form.multiplicities) == recon


class TestImageDimension:
    def test_delta(self):
        label = classify_stratum(path_tree(3, 5))
        assert image_dimension(label, 3) == 3

    def test_xi(self):
        label = classify_stratum(path_tree(2, 6))
        assert image_dimension(label, 3) == 4

    def test_semistable_point_dimension_zero(self):
        label = classify_stratum(path_tree(3, 3))
        assert image_dimension(label, 2) == 0

    def test_interior(self):
        assert image_dimension(classify_stratum(tree({0: 8})), 3) == 5

    def test_deeper_unsupported(self):
        # the paper gives no closed form off the divisors: None, not an error
        assert image_dimension(classify_stratum(path_tree(2, 2, 4)), 3) is None

    @pytest.mark.parametrize("g", [1, 0, -1])
    def test_genus_below_two_rejected(self, g):
        assert image_dimension(StratumLabel(INTERIOR), g) is None

    @pytest.mark.parametrize("g", [2.5, 3.0, True], ids=["fraction", "whole-float", "bool"])
    def test_genus_that_is_not_an_integer_rejected(self, g):
        with pytest.raises(ValueError, match=f"^g must be an integer, got {g!r}$"):
            image_dimension(StratumLabel(INTERIOR), g)

    def test_none_exactly_where_no_closed_form(self):
        """Every stable even class with m <= 12: None on the deeper strata and
        at m = 4 (g = 1); otherwise 0 at the semistable point, else the number
        of distinct roots of the contracted form less 3."""
        none = formula = 0
        for m in range(4, 13, 2):
            g = (m - 2) // 2
            for t in enumerate_stable_trees(m, bound=12).trees:
                label = classify_stratum(t)
                dim = image_dimension(label, g)
                if label.kind == DEEPER or m == 4:
                    assert dim is None, t
                    none += 1
                    continue
                form = f_g_exponents(t)
                assert dim == (0 if form.semistable_point else len(form.multiplicities) - 3), t
                formula += 1
        assert (none, formula) == (1563, 18)

    @pytest.mark.parametrize("g", range(2, 7))
    def test_two_vertex_dimension_consistency(self, g):
        m = 2 * g + 2
        for j in range(2, g + 2):
            t = two_vertex_tree(j, m)
            label = classify_stratum(t)
            if j == g + 1:
                assert image_dimension(label, g) == 0
                continue
            form = f_g_exponents(t)
            distinct = len(form.multiplicities)
            assert image_dimension(label, g) == distinct - 3
