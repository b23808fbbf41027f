import random
import re
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hyperforms
from hyperforms import (
    InvariantError,
    StabilityReport,
    build_cover,
    canonical_code,
    contract_F_m,
    enumerate_stable_trees,
    find_central,
    path_tree,
    stable_model,
    star_tree,
    tree,
)
from hyperforms.covers import (
    RAMIFIED,
    SPLIT,
    CoverComponent,
    CoverModel,
    CoverNode,
    StableHyperellipticModel,
    arithmetic_genus,
)
from conftest import (
    _prufer_edges,
    branch_count,
    central_by_definition,
    check_branch_identity,
    cover_connected,
    edge_is_ramified,
    fixpoint_stable_model,
    leaf_strip_cover,
    model_shape,
    permutation_model_code,
    random_stable_tree,
    relabeled,
    rooted,
    side_weight,
    special_points,
    spliced_stable_model,
    traced_peak,
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
        assert hits == ["trees.py"]


class TestBuildCover:
    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            build_cover(tree({0: 5}))

    def test_disconnected_cover_raises_invariant_error(self):
        # Passed as stable, two weightless vertices are both unbranched: their
        # sheets pair off across the split edge into two curves.
        t = path_tree(0, 0)
        t.__dict__["_stability"] = StabilityReport(stable=True, violations=())
        with pytest.raises(InvariantError, match="^admissible double cover must be connected$"):
            build_cover(t)

    def test_forced_stable_cover_is_connected_iff_weighted(self):
        # Every labelled tree on n <= 4 vertices with weights 0..3 and even m,
        # passed as stable: a cover with a branched vertex is one curve, and
        # with none (m = 0) its sheets 0 and sheets 1 are two.
        raised = covers = 0
        for n in range(1, 5):
            for seq in product(range(n), repeat=max(n - 2, 0)):
                edges = _prufer_edges(seq, n)
                for weights in product(range(4), repeat=n):
                    if sum(weights) % 2:
                        continue
                    t = tree(dict(enumerate(weights)), edges)
                    t.__dict__["_stability"] = StabilityReport(stable=True, violations=())
                    if t.m == 0:
                        with pytest.raises(InvariantError,
                                           match="^admissible double cover must be connected$"):
                            build_cover(t)
                        raised += 1
                    else:
                        assert cover_connected(build_cover(t))
                        covers += 1
        assert (raised, covers) == (21, 2154 - 21)

    def test_odd_branch_count_raises_invariant_error(self):
        # An even weight below the edge leaves it split, so no branch point is added.
        t = path_tree(3, 5)
        t.__dict__["_rooted"] = t._rooted._replace(below=[4, 8])
        with pytest.raises(InvariantError, match="^branch count must be even$"):
            build_cover(t)

    def test_model_genus_mismatch_raises_invariant_error(self):
        # Read as a leaf, the middle weight-2 vertex is dropped: model genus 4, g = 5.
        t = path_tree(4, 2, 2, 4)
        degree = list(t._rooted.degree)
        degree[1] = 1
        t.__dict__["_rooted"] = t._rooted._replace(degree=degree)
        with pytest.raises(InvariantError, match="^contraction changed the genus$"):
            build_cover(t)

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
                left = side_weight(t, (a, b), toward=a)
                right = side_weight(t, (a, b), toward=b)
                assert (left + right) == m
                assert edge_is_ramified(t, (a, b)) == (left % 2 == 1) == (right % 2 == 1)
            for v in t.ids:
                assert branch_count(t, v) % 2 == 0

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_genus_and_connectivity(self, m):
        for t in enumerate_stable_trees(m).trees:
            cover = build_cover(t)
            assert cover.arithmetic_genus == (m - 2) // 2
            assert cover_connected(cover)

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
        assert cover_connected(cover)
        assert cover.arithmetic_genus == stable_model(cover).arithmetic_genus == (t.m - 2) // 2

    def test_connectivity_oracle_sees_two_curves(self):
        # The two sheets over one unbranched vertex, with no node between them.
        sheets = [CoverComponent(i, 0, i, 0, 0) for i in (0, 1)]
        assert not cover_connected(CoverModel(sheets, [], 1))
        assert cover_connected(CoverModel(sheets, [CoverNode((0, 1), SPLIT, (0, 1))], 1))


class TestCoverIdentities:
    """The one-pass cover against the per-edge rules in `conftest`."""

    @staticmethod
    def check_identities(t):
        cover, table = build_cover(t), rooted(t)
        for node in cover.nodes:
            assert node.kind == (RAMIFIED if edge_is_ramified(t, node.base_edge, table) else SPLIT)
        for comp in cover.components:
            assert comp.branch_count == branch_count(t, comp.base_vertex, table)
        ramified = sum(edge_is_ramified(t, e, table) for e in t.edges)
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

    # The model's canonical code is left out: its cost is factorial in the
    # number of same-genus components.
    @given(st.integers(0, 2**32), st.integers(1, 16), st.integers(0, 6))
    def test_random_trees_property(self, seed, n, extra):
        t = random_stable_tree(seed, n, extra)
        copy = relabeled(t, seed)
        covers = [self.check_identities(u) for u in (t, copy)]
        models = [stable_model(cover) for cover in covers]
        for u, cover, model in zip((t, copy), covers, models):
            assert find_central(u) == central_by_definition(u)
            assert model == fixpoint_stable_model(cover)
        check_branch_identity(t)
        assert contract_F_m(copy) == contract_F_m(t)
        first, second = (sorted(c.genus for c in cover.components) for cover in covers)
        assert first == second
        assert model_shape(models[0]) == model_shape(models[1])


def big_path():
    """1,000 vertices, weight 2 at both ends and 1 inside."""
    return path_tree(2, *[1] * 998, 2)


def big_star():
    """A weight-0 centre and 499 leaves of weight 2."""
    return star_tree(0, *[2] * 499)


class TestLargeShapes:
    """Both layers against their oracles on trees of hundreds of vertices, where
    the model contracts: the path's 1,000 components to 998, the star's 501 to 2.
    The model's shape and the contracted form do not change under relabelling."""

    @pytest.mark.parametrize("relabel_seed", [None, 0, 1])
    @pytest.mark.parametrize(
        "shape, components, kept", [(big_path, 1000, 998), (big_star, 501, 2)], ids=["path", "star"]
    )
    def test_agrees_with_oracles(self, shape, components, kept, relabel_seed):
        t = shape()
        if relabel_seed is not None:
            t = relabeled(t, relabel_seed)
        cover = build_cover(t)
        ramified, branch = leaf_strip_cover(t)
        assert ramified == {n.base_edge for n in cover.nodes if n.kind == RAMIFIED}
        assert branch == {c.base_vertex: c.branch_count for c in cover.components}
        model = stable_model(cover)
        assert model == fixpoint_stable_model(cover)
        assert (len(cover.components), len(model.components)) == (components, kept)
        assert model_shape(model) == model_shape(stable_model(build_cover(shape())))
        assert contract_F_m(t) == contract_F_m(shape())


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
                assert special_points(model, cid) >= 3

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_stability_and_genus_preserved(self, m):
        for t in enumerate_stable_trees(m).trees:
            model = stable_model(build_cover(t))
            assert model.arithmetic_genus == (m - 2) // 2
            for cid, genus in model.components:
                if genus == 0 and len(model.components) > 1:
                    assert special_points(model, cid) >= 3, (t, model)

    @pytest.mark.parametrize("m", range(4, 11, 2))
    def test_agrees_with_fixpoint_oracle(self, m):
        for t in enumerate_stable_trees(m).trees:
            cover = build_cover(t)
            assert stable_model(cover) == fixpoint_stable_model(cover), t

    @pytest.mark.parametrize("seed", range(12))
    def test_random_trees_agree_with_fixpoint_oracle(self, seed):
        cover = build_cover(random_stable_tree(seed, n=5 + 5 * seed, extra=seed % 4))
        assert stable_model(cover) == fixpoint_stable_model(cover) == spliced_stable_model(cover)

    def test_model_code_relabeling_invariant(self):
        t1 = star_tree(0, 2, 2, 4)
        t2 = tree({7: 0, 3: 2, 5: 2, 1: 4}, [(7, 3), (7, 5), (7, 1)])
        assert canonical_code(t1) == canonical_code(t2)
        code1 = stable_model(build_cover(t1)).canonical_code()
        code2 = stable_model(build_cover(t2)).canonical_code()
        assert code1 == code2


class TestDroppedComponents:
    """Section 5 across the two layers: the components that the generic
    contraction (`spliced_stable_model`) drops are exactly those over the
    weight-2 leaves, which is the rule `build_cover` builds the model by.  A
    genus-0 component with two node ends and no self-node lies over a vertex
    of weight w with r ramified and s split edges, where w + r = 2 and
    r + 2s = 2; stability (w + r + s >= 3) leaves w = 2, s = 1: a weight-2 leaf."""

    @staticmethod
    def dropped_and_leaves(t):
        cover = build_cover(t)
        model = spliced_stable_model(cover)
        assert stable_model(cover) == model, t
        degree = Counter(v for edge in t.edges for v in edge)
        leaves = {v for v, w in t.vertices if w == 2 and degree[v] == 1}
        dropped = {c.id for c in cover.components} - {cid for cid, _ in model.components}
        return dropped, {c.id for c in cover.components if c.base_vertex in leaves}, cover, model

    def test_every_even_class_up_to_12(self):
        total = 0
        for m in range(4, 13, 2):
            for t in enumerate_stable_trees(m, bound=12).trees:
                dropped, over_leaves, cover, model = self.dropped_and_leaves(t)
                if t == path_tree(2, 2):
                    # Both leaves: a closed soft 2-cycle, which keeps its last component.
                    assert over_leaves == {0, 1} and dropped == {0}
                    assert model.components == ((1, 0),) and model.nodes == ((1, 1),)
                else:
                    assert dropped == over_leaves, t
                total += len(dropped)
        assert total == 3519

    @pytest.mark.parametrize("seed", range(8))
    def test_random_trees(self, seed):
        t = random_stable_tree(seed, n=50 + 50 * seed, extra=seed)
        dropped, over_leaves, _, _ = self.dropped_and_leaves(t)
        assert dropped == over_leaves and dropped


class TestSectionFiveRule:
    """`build_cover`'s model, read off the tree by Section 5's rule, against
    the generic contraction of its cover, and what `stable_model` accepts."""

    def test_every_class_at_m14_agrees_with_the_contraction(self):
        # m <= 12 is checked with the dropped components, in `TestDroppedComponents`
        for t in enumerate_stable_trees(14, bound=14).trees:
            cover = build_cover(t)
            assert cover_connected(cover), t
            assert stable_model(cover) == spliced_stable_model(cover), t

    @pytest.mark.parametrize("t, nodes", [
        (path_tree(2, 2), ((1, 1),)),  # both leaves weigh 2: the stated special case
        (tree({5: 2, 3: 2}, [(5, 3)]), ((1, 1),)),  # the same on ids that are not positions
        (path_tree(2, 4), ((1, 1),)),  # a self-node on a branched neighbour
        (star_tree(0, 2, 2, 4), ((0, 1), (0, 1), (0, 4), (1, 4))),  # between the centre's sheets
    ], ids=["path-2-2", "path-2-2-ids", "path-2-4", "star-0-2-2-4"])
    def test_leaf_nodes(self, t, nodes):
        cover = build_cover(t)
        model = stable_model(cover)
        assert model.nodes == nodes
        assert model == spliced_stable_model(cover)

    def test_reading_the_model_allocates_under_1_kb(self):
        # The model is built inside `build_cover`; reading it allocates nothing
        # that grows with the tree (the generic contraction held about 190 KB here).
        cover = build_cover(random_stable_tree(seed=1, n=1000))
        model, peak = traced_peak(lambda: stable_model(cover))
        assert model.arithmetic_genus == cover.g
        assert peak < 1000, f"{peak} bytes held while reading the model"

    @pytest.mark.parametrize("make", [
        lambda c: CoverModel(c.components, c.nodes, c.g),
        lambda c: c._replace(g=c.g),
        lambda c: CoverModel._make(c),
    ], ids=["constructor", "replace", "make"])
    def test_a_cover_not_made_by_build_cover_is_a_value_error(self, make):
        cover = make(build_cover(star_tree(0, 2, 2, 4)))
        with pytest.raises(ValueError, match="^stable_model takes a cover made by build_cover") as caught:
            stable_model(cover)
        assert type(caught.value) is ValueError
        assert caught.value.__cause__ is None and caught.value.__suppress_context__


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

    @pytest.mark.parametrize("leaves", [7, 8])
    def test_same_genus_components(self, leaves):
        # k genus-1 tails around a genus-k//2 centre: k! relabelings, which take 4.4 MB
        # at k = 8 when every permutation is held at once and a few KB when streamed
        model = stable_model(build_cover(star_tree(2 - leaves % 2, *[3] * leaves)))
        assert sorted(genus for _, genus in model.components) == [1] * leaves + [leaves // 2]
        code, peak = traced_peak(model.canonical_code)
        assert code == permutation_model_code(model)
        assert peak < 10**6, f"{peak} bytes held while coding"

    def test_nodes_at_the_last_position(self):
        # Twelve distinct genera allow one relabeling, so this is cheap.  The last
        # position k - 1 meets position 0 and itself: coding a node to an int in
        # a base below k mixes these up with other pairs.
        k = 12
        genus = {cid: 5 * cid % k for cid in range(k)}
        by_genus = sorted(genus, key=genus.get)
        pairs = [(by_genus[0], by_genus[-1]), (by_genus[-1], by_genus[-1])]
        pairs += [(cid, cid + 1) for cid in range(k - 1)]
        model = hand_model(genus, pairs)
        target, nodes = code = model.canonical_code()
        assert target == tuple(range(k))
        assert (0, k - 1) in nodes and (k - 1, k - 1) in nodes
        assert code == permutation_model_code(model)

    def test_special_points_match_to_dict(self):
        model = stable_model(build_cover(star_tree(0, 2, 2, 4)))
        counts = {c["id"]: c["special_points"] for c in model.to_dict()["components"]}
        assert counts == {cid: special_points(model, cid) for cid, _ in model.components}
        assert sum(counts.values()) == 2 * len(model.nodes)


class TestBranchIdentity:
    """`reduce`'s closed form read off `build_cover` at the central vertex."""

    def test_every_even_class_up_to_12(self):
        checked = sum(
            check_branch_identity(t)
            for m in range(4, 13, 2)
            for t in enumerate_stable_trees(m, bound=12).trees
        )
        assert checked == 2572

    @pytest.mark.parametrize("seed", range(3))
    def test_large_random_trees(self, seed):
        assert check_branch_identity(random_stable_tree(seed, n=3000, extra=seed)) > 0


def hand_model(genus: dict[int, int], pairs) -> StableHyperellipticModel:
    """A model off the tree pipeline, in `stable_model`'s normal form."""
    components = tuple(sorted(genus.items()))
    nodes = tuple(sorted(tuple(sorted(pair)) for pair in pairs))
    g = arithmetic_genus(list(genus.values()), len(nodes))
    return StableHyperellipticModel(components, nodes, g)


def relabeled_model(model: StableHyperellipticModel, seed: int) -> StableHyperellipticModel:
    ids = [cid for cid, _ in model.components]
    new = dict(zip(ids, random.Random(seed).sample(range(100), len(ids))))
    return hand_model(
        {new[cid]: genus for cid, genus in model.components},
        [(new[a], new[b]) for a, b in model.nodes],
    )


def random_model(seed: int) -> StableHyperellipticModel:
    """Up to 7 components of genus 0-2, random nodes, self-nodes included."""
    rng = random.Random(seed)
    k = rng.randint(2, 7)
    pairs = [(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(k, 2 * k))]
    return hand_model({cid: rng.randrange(3) for cid in range(k)}, pairs)


def degrees(model: StableHyperellipticModel) -> list[int]:
    return sorted(special_points(model, cid) for cid, _ in model.components)


A, B = 0, 1
K33 = [(a, b) for a in range(3) for b in range(3, 6)]
PRISM = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
# Pairs of non-isomorphic models with the same genus multiset and degree sequence.
TWINS = {
    "self-nodes": (hand_model({A: 1, B: 1}, [(A, A), (A, B), (B, B)]),
                   hand_model({A: 1, B: 1}, [(A, B)] * 3)),
    "k33-prism": (hand_model(dict.fromkeys(range(6), 0), K33),
                  hand_model(dict.fromkeys(range(6), 0), PRISM)),
    "genus-order": (hand_model({0: 0, 1: 1, 2: 1, 3: 0}, [(0, 1), (1, 2), (2, 3)]),
                    hand_model({0: 1, 1: 0, 2: 0, 3: 1}, [(0, 1), (1, 2), (2, 3)])),
}


class TestModelCodeOffThePipeline:
    """The model code on hand-built models against the permutation oracle."""

    @pytest.mark.parametrize("name", sorted(TWINS))
    def test_twins_get_different_codes(self, name):
        first, second = TWINS[name]
        assert Counter(g for _, g in first.components) == Counter(g for _, g in second.components)
        assert degrees(first) == degrees(second)
        assert first.canonical_code() != second.canonical_code()
        for model in (first, second):
            assert model.canonical_code() == permutation_model_code(model)
            for seed in range(3):
                assert relabeled_model(model, seed).canonical_code() == model.canonical_code()

    @pytest.mark.parametrize("seed", range(24))
    def test_random_models(self, seed):
        model = random_model(seed)
        assert model.canonical_code() == permutation_model_code(model)
        for copy_seed in range(3):
            copy = relabeled_model(model, copy_seed)
            assert copy.canonical_code() == model.canonical_code()
            assert copy.canonical_code() == permutation_model_code(copy)


def hand_cover(genus: dict[int, int], pairs, seed: int) -> CoverModel:
    """A cover off the tree pipeline; components listed in a seeded order,
    which is the order `stable_model` visits them in."""
    ids = random.Random(seed).sample(sorted(genus), len(genus))
    components = tuple(CoverComponent(cid, cid, None, 2 * genus[cid] + 2, genus[cid]) for cid in ids)
    nodes = tuple(CoverNode((a, b), SPLIT, (a, b)) for a, b in pairs)
    return CoverModel(components, nodes, arithmetic_genus(list(genus.values()), len(nodes)))


def chain_cover(k: int, anchored: bool, seed: int) -> CoverModel:
    """k two-pointed genus-0 components 1..k in a chain from 0 to k + 1;
    the ends have genus 1 if anchored, else genus 0 and one node each."""
    end = int(anchored)
    genus = {0: end, **dict.fromkeys(range(1, k + 1), 0), k + 1: end}
    return hand_cover(genus, [(i, i + 1) for i in range(k + 1)], seed)


def cycle_cover(k: int, anchored: bool, seed: int) -> CoverModel:
    """A cycle of k two-pointed genus-0 components, through one genus-1
    component 0 if anchored."""
    ids = list(range(k + anchored))
    genus = {cid: int(anchored and cid == 0) for cid in ids}
    return hand_cover(genus, [(ids[i - 1], ids[i]) for i in range(len(ids))], seed)


class TestStableModelOffThePipeline:
    """The generic contraction, `spliced_stable_model`, on chains and cycles
    built by hand, against the fixpoint oracle.  The tree pipeline builds only
    chains of one (the component over a weight-2 leaf) and one closed cycle:
    the two soft components over `path_tree(2, 2)` at m = 4, joined by two
    nodes (see `TestDroppedComponents`).  `stable_model` models only trees'
    covers, so these check the oracle that `TestSectionFiveRule` trusts."""

    @staticmethod
    def check(cover: CoverModel) -> StableHyperellipticModel:
        model = spliced_stable_model(cover)
        assert model == fixpoint_stable_model(cover)
        # No contraction changes a kept component's node branches.
        ends = Counter(cid for node in cover.nodes for cid in node.components)
        for cid, _ in model.components:
            assert special_points(model, cid) == ends[cid]
        return model

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_anchored_chain_contracts_to_one_node(self, k, seed):
        model = self.check(chain_cover(k, True, seed))
        assert model.components == ((0, 1), (k + 1, 1))
        assert model.nodes == ((0, k + 1),)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_anchored_cycle_contracts_to_a_self_node(self, k, seed):
        model = self.check(cycle_cover(k, True, seed))
        assert model.components == ((0, 1),)
        assert model.nodes == ((0, 0),)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_unanchored_chain(self, k, seed):
        model = self.check(chain_cover(k, False, seed))
        assert len(model.nodes) == 1

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_unanchored_cycle_keeps_one_self_node(self, k, seed):
        cover = cycle_cover(k, False, seed)
        model = self.check(cover)
        assert len(model.components) == 1
        (cid, genus), = model.components
        assert genus == 0 and model.nodes == ((cid, cid),)
        assert cid == cover.components[-1].id  # the last one in component order stays

    def test_several_chains_between_one_pair_of_anchors(self):
        # anchors 10 and 20, joined directly and by soft chains of 1, 2 and 3
        chains = [[], [31], [41, 42], [51, 52, 53]]
        genus = {10: 1, 20: 2, **{cid: 0 for ids in chains for cid in ids}}
        pairs = [pair for ids in chains for pair in zip([10, *ids], [*ids, 20])]
        for seed in range(4):
            model = self.check(hand_cover(genus, pairs, seed))
            assert model.components == ((10, 1), (20, 2))
            assert model.nodes == ((10, 20),) * 4

    def test_parallel_nodes_and_self_nodes_in_the_input(self):
        # 1 meets anchor 0 twice (a self-node on 0), 2 has a self-node and one
        # node more (kept), and 3 sits between 2 and 0 (contracted)
        genus = {0: 1, 1: 0, 2: 0, 3: 0}
        pairs = [(0, 1), (1, 0), (2, 2), (2, 3), (3, 0)]
        for seed in range(4):
            model = self.check(hand_cover(genus, pairs, seed))
            assert model.components == ((0, 1), (2, 0))
            assert model.nodes == ((0, 0), (0, 2), (2, 2))

    @given(st.data())
    def test_random_hand_covers(self, data):
        """Ids that are not positions, a shuffled component order, both node
        orientations, parallel nodes, self-nodes and genus-0 cycles."""
        k = data.draw(st.integers(1, 8), label="k")
        ids = data.draw(st.lists(st.integers(0, 99), min_size=k, max_size=k, unique=True), label="ids")
        genus = {cid: data.draw(st.sampled_from([0, 0, 0, 1, 2])) for cid in ids}
        spanning = [(ids[i], ids[data.draw(st.integers(0, i - 1))]) for i in range(1, k)]
        extra = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=4))
        pairs = data.draw(st.permutations(spanning + extra), label="pairs")
        self.check(hand_cover(genus, pairs, data.draw(st.integers(0, 2**16), label="seed")))
