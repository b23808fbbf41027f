import re
from pathlib import Path

import pytest

import hyperforms
from hyperforms import (
    build_cover,
    canonical_code,
    enumerate_stable_trees,
    path_tree,
    stable_model,
    star_tree,
    tree,
)
from hyperforms.covers import (
    RAMIFIED,
    SPLIT,
    arithmetic_genus,
    branch_count,
    edge_is_ramified,
)
from conftest import (
    fixpoint_stable_model,
    leaf_strip_cover,
    permutation_model_code,
    random_stable_tree,
)


class TestArithmeticGenus:
    def test_formula(self):
        assert arithmetic_genus([0], 0) == 0
        assert arithmetic_genus([1, 1], 1) == 2  # two elliptic curves, one node
        assert arithmetic_genus([0, 0], 2) == 1  # two lines meeting twice
        assert arithmetic_genus([2], 1) == 3  # one self-node

    def test_formula_stated_once(self):
        # `sum(g) + delta - c + 1`, written out however it is wrapped.
        pattern = re.compile(r"-\s*(?:len\(|self\.component_count\b)[^+]*\+\s*1\b")
        src = Path(hyperforms.__file__).parent
        hits = [
            path.name
            for path in sorted(src.glob("*.py"))
            for _ in pattern.finditer(path.read_text())
        ]
        assert hits == ["covers.py"]


class TestBuildCover:
    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            build_cover(tree({0: 5}))

    def test_two_elliptic_components(self):
        # both subtree sides odd: one ramified node, genera (1, 1)
        cover = build_cover(path_tree(3, 3))
        assert sorted((c.branch_count, c.genus) for c in cover.components) == [(4, 1), (4, 1)]
        assert [n.kind for n in cover.nodes] == [RAMIFIED]
        assert cover.arithmetic_genus == 2

    def test_split_edge_two_nodes(self):
        cover = build_cover(path_tree(2, 4))
        assert sorted((c.branch_count, c.genus) for c in cover.components) == [(2, 0), (4, 1)]
        assert [n.kind for n in cover.nodes] == [SPLIT, SPLIT]
        assert cover.arithmetic_genus == 2

    def test_unbranched_vertex_splits_into_sheets(self):
        cover = build_cover(star_tree(0, 2, 2, 4))
        assert len(cover.components) == 5
        assert len(cover.nodes) == 6
        sheets = [c for c in cover.components if c.sheet is not None]
        assert len(sheets) == 2
        assert all(c.branch_count == 0 and c.genus == 0 for c in sheets)
        assert sorted(c.genus for c in cover.components) == [0, 0, 0, 0, 1]
        assert cover.arithmetic_genus == 3

    def test_smooth_cover(self):
        cover = build_cover(tree({0: 6}))
        assert [(c.branch_count, c.genus) for c in cover.components] == [(6, 2)]
        assert cover.nodes == ()

    def test_component_documents_are_field_copies(self):
        cover = build_cover(star_tree(0, 2, 2, 2, 2))  # sheets over the centre
        docs = cover.to_dict()["components"]
        assert docs == [c._asdict() for c in cover.components]
        docs[0]["genus"] = 99
        assert cover.components[0].genus != 99

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_parity_coherence(self, m):
        for t in enumerate_stable_trees(m).trees:
            for a, b in t.edges:
                left = t.side_weight((a, b), toward=a)
                right = t.side_weight((a, b), toward=b)
                assert (left + right) == m
                assert edge_is_ramified(t, (a, b)) == (left % 2 == 1) == (right % 2 == 1)
            for v in t.ids:
                assert branch_count(t, v) % 2 == 0

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_genus_and_connectivity(self, m):
        for t in enumerate_stable_trees(m).trees:
            cover = build_cover(t)
            assert cover.arithmetic_genus == (m - 2) // 2
            assert cover.is_connected()

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_agrees_with_leaf_stripping_oracle(self, m):
        for t in enumerate_stable_trees(m).trees:
            ramified, branch = leaf_strip_cover(t)
            assert ramified == {e for e in t.edges if edge_is_ramified(t, e)}
            assert branch == {v: branch_count(t, v) for v in t.ids}

    def test_large_random_tree_agrees_with_leaf_stripping_oracle(self):
        t = random_stable_tree(seed=7, n=2000, extra=40)
        cover = build_cover(t)
        ramified, branch = leaf_strip_cover(t)
        assert ramified == {n.base_edge for n in cover.nodes if n.kind == RAMIFIED}
        assert branch == {c.base_vertex: c.branch_count for c in cover.components}
        assert cover.arithmetic_genus == (t.m - 2) // 2

    def test_long_path_genus(self):
        t = path_tree(2, *([1] * 9998), 2)
        cover = build_cover(t)
        assert cover.is_connected()
        assert cover.arithmetic_genus == stable_model(cover).arithmetic_genus == (t.m - 2) // 2


class TestCoverIdentities:
    """The one-pass cover against the per-edge rules it replaces."""

    @staticmethod
    def check_identities(t):
        cover = build_cover(t)
        for node in cover.nodes:
            assert node.kind == (RAMIFIED if edge_is_ramified(t, node.base_edge) else SPLIT)
        for comp in cover.components:
            assert comp.branch_count == branch_count(t, comp.base_vertex)
        ramified = sum(edge_is_ramified(t, e) for e in t.edges)
        assert sum(c.branch_count for c in cover.components) == t.m + 2 * ramified
        return cover

    @pytest.mark.parametrize("m", range(4, 13, 2))
    def test_census(self, m):
        for t in enumerate_stable_trees(m, bound=12).trees:
            self.check_identities(t)

    @pytest.mark.parametrize("seed, n", [(0, 500), (1, 500), (2, 2000), (3, 2000)])
    def test_large_random_trees(self, seed, n):
        cover = self.check_identities(random_stable_tree(seed, n=n, extra=seed))
        assert stable_model(cover) == fixpoint_stable_model(cover)


class TestStableModel:
    def test_xi0_contraction(self):
        # the rational component over the 2-marked side is contracted to a self-node
        model = stable_model(build_cover(path_tree(2, 4)))
        assert [genus for _, genus in model.components] == [1]
        (cid, _), = model.components
        assert model.nodes == ((cid, cid),)
        assert model.arithmetic_genus == 2

    def test_no_contraction_needed(self):
        cover = build_cover(path_tree(3, 3))
        model = stable_model(cover)
        assert sorted(genus for _, genus in model.components) == [1, 1]
        assert len(model.nodes) == 1

    def test_sheets_with_three_nodes_kept(self):
        model = stable_model(build_cover(star_tree(0, 2, 2, 4)))
        assert sorted(genus for _, genus in model.components) == [0, 0, 1]
        for cid, genus in model.components:
            if genus == 0:
                assert model.special_points(cid) >= 3

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_stability_and_genus_preserved(self, m):
        for t in enumerate_stable_trees(m).trees:
            model = stable_model(build_cover(t))
            assert model.arithmetic_genus == (m - 2) // 2
            for cid, genus in model.components:
                if genus == 0 and len(model.components) > 1:
                    assert model.special_points(cid) >= 3, (t, model)

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_agrees_with_fixpoint_oracle(self, m):
        for t in enumerate_stable_trees(m).trees:
            cover = build_cover(t)
            assert stable_model(cover) == fixpoint_stable_model(cover), t

    @pytest.mark.parametrize("seed", range(12))
    def test_random_trees_agree_with_fixpoint_oracle(self, seed):
        cover = build_cover(random_stable_tree(seed, n=5 + 5 * seed, extra=seed % 4))
        assert stable_model(cover) == fixpoint_stable_model(cover)

    @pytest.mark.parametrize("m", range(4, 9, 2))
    def test_injective_on_canonical_codes(self, m):
        seen = {}
        for t in enumerate_stable_trees(m).trees:
            code = stable_model(build_cover(t)).canonical_code()
            assert code not in seen, (t, seen[code])
            seen[code] = t

    def test_model_code_relabeling_invariant(self):
        t1 = star_tree(0, 2, 2, 4)
        t2 = tree({7: 0, 3: 2, 5: 2, 1: 4}, [(7, 3), (7, 5), (7, 1)])
        assert canonical_code(t1) == canonical_code(t2)
        code1 = stable_model(build_cover(t1)).canonical_code()
        code2 = stable_model(build_cover(t2)).canonical_code()
        assert code1 == code2


class TestModelCanonicalCode:
    """The model code against the index-bookkeeping permutation oracle."""

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_census_agrees_with_permutation_oracle(self, m):
        for t in enumerate_stable_trees(m).trees:
            model = stable_model(build_cover(t))
            assert model.canonical_code() == permutation_model_code(model), t

    @pytest.mark.parametrize("seed", range(12))
    def test_random_models_agree_with_permutation_oracle(self, seed):
        model = stable_model(build_cover(random_stable_tree(seed, n=8, extra=12)))
        assert model.canonical_code() == permutation_model_code(model)

    def test_seven_same_genus_components(self):
        # seven genus-1 tails around a genus-3 centre: 7! relabelings
        model = stable_model(build_cover(star_tree(1, *[3] * 7)))
        assert sorted(genus for _, genus in model.components) == [1] * 7 + [3]
        assert model.canonical_code() == permutation_model_code(model)

    def test_special_points_match_to_dict(self):
        model = stable_model(build_cover(star_tree(0, 2, 2, 4)))
        counts = {c["id"]: c["special_points"] for c in model.to_dict()["components"]}
        assert counts == {cid: model.special_points(cid) for cid, _ in model.components}
        assert sum(counts.values()) == 2 * len(model.nodes)
