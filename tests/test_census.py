import hashlib
import json
import sys
from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import pytest

import hyperforms.census as census_mod
import hyperforms.trees as trees_mod
from hyperforms import (
    canonical_code,
    classify_stratum,
    enumerate_stable_trees,
    find_central,
    path_tree,
    star_tree,
    tree,
    validate_stable,
)
from hyperforms.trees import MAX_LISTED
from conftest import (
    adjacency, aut_order, brute_force_census, dissymmetry_count, keel_poincare, run_python, strata_poincare,
    tree_centers, walk,
)


def walk_depth(t) -> int:
    """Steps from the census root (id 0) to the farther center of the tree:
    the depth of the deepest vertex the census walk roots a code at."""
    _, parent = walk(adjacency(t), 0)
    depths = []
    for c in tree_centers(t):
        depth = 0
        while parent[c] is not None:
            c, depth = parent[c], depth + 1
        depths.append(depth)
    return max(depths)


class TestEnumerate:
    @pytest.mark.parametrize("m,count", [(3, 1), (4, 2), (5, 3), (6, 7)])
    def test_frozen_counts(self, m, count):
        assert len(enumerate_stable_trees(m)) == count

    def test_m_6_classes(self):
        # weight multisets of the 7 classes, as a regression anchor
        profiles = sorted(
            tuple(sorted(w for _, w in t.vertices))
            for t in enumerate_stable_trees(6).trees
        )
        assert profiles == [
            (0, 2, 2, 2),
            (1, 1, 2, 2),
            (1, 2, 3),
            (2, 2, 2),
            (2, 4),
            (3, 3),
            (6,),
        ]

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            enumerate_stable_trees(2)
        with pytest.raises(ValueError):
            enumerate_stable_trees(11)

    def test_ceiling_is_the_last_m_listed_within_the_bound(self):
        assert dissymmetry_count(census_mod.MAX_M) <= MAX_LISTED < dissymmetry_count(census_mod.MAX_M + 1)

    def test_ceiling_admits_m_20_and_refuses_m_21_before_any_row(self, monkeypatch):
        """Checked without building either census: the table builder only
        records the m it is asked for."""
        built = []
        monkeypatch.setattr(census_mod, "_central_classes", lambda m: built.append(m) or [])
        monkeypatch.setattr(census_mod, "_make_census", lambda m, classes: m)
        assert enumerate_stable_trees(20, bound=40) == 20
        with pytest.raises(ValueError, match=f"^m = 21 exceeds 20: more than {MAX_LISTED} classes to list$"):
            enumerate_stable_trees(21, bound=40)
        assert built == [20]

    @pytest.mark.parametrize("m", [10.0, "10", True], ids=["float", "str", "bool"])
    def test_rejects_non_integer_m(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            enumerate_stable_trees(m, bound=13)

    @pytest.mark.parametrize(
        "bound", [11.5, "12", None, True], ids=["float", "str", "none", "bool"]
    )
    def test_rejects_non_integer_bound(self, bound):
        with pytest.raises(ValueError, match="^bound must be an integer, got "):
            enumerate_stable_trees(11, bound=bound)

    def test_bound_is_configurable(self):
        assert len(enumerate_stable_trees(11, bound=11)) > 0

    @pytest.mark.parametrize("m", range(3, 15))
    def test_members_stable_and_distinct(self, m):
        census = enumerate_stable_trees(m, bound=14)
        codes = census.codes
        assert len(set(codes)) == len(codes)
        assert codes == tuple(sorted(codes))
        for code, t in census.classes:
            assert validate_stable(t).stable
            assert canonical_code(t) == code
            assert t.m == m
        # The census walks from its root toward the center for each code:
        # walks of depth 2 appear from m = 9, of depth 3 from m = 13.
        deepest = max(walk_depth(t) for t in census.trees)
        assert deepest == (0 if m < 4 else 1 if m < 9 else 2 if m < 13 else 3)

    def test_two_centre_classes_reach_every_branch(self):
        # Two centres are adjacent, and census ids are breadth first, so the
        # lower id u is the vertex the walk stands on and v its deep child.
        # The walk keeps u's code if u is lighter, builds only v's if v is
        # lighter, and builds both on a tie: every branch must occur.
        orders = set()
        for m in range(3, 13):
            for t in enumerate_stable_trees(m, bound=12).trees:
                centres = tree_centers(t)
                if len(centres) == 2:
                    wu, wv = map(dict(t.vertices).__getitem__, centres)
                    orders.add((wu > wv) - (wu < wv))
        assert orders == {-1, 0, 1}

    def test_deterministic(self):
        a = enumerate_stable_trees(7)
        b = enumerate_stable_trees(7)
        assert a.codes == b.codes
        assert [t.to_dict() for t in a.trees] == [t.to_dict() for t in b.trees]


# sha256 of the census's JSON document (`json.dumps(to_dict(), sort_keys=True)`)
# and of its DOT text (the trees' `to_dot()` joined by newlines, as `enumerate
# --format dot` prints it), for m = 3..14.  Any change to the class order, a
# tree's ids, weights or edges, or the stratum counts changes a digest.
CENSUS_DIGESTS = {
    3: ("f7c3b45ff4e46b980351ec04229528ad5cda9252006f844ef0b65272041216a9",
        "3ea5ef8bbe630ec60ff2b3170161ad11e5fb4f6159eab2e90d49fe11ba8d2129"),
    4: ("43a72efd3ff60c63e4094c9e89e13f0b3f241fc7ad6f7a8176a3cda70546820e",
        "d8298377c4a0f0d6cc4609122f03963dc449723e2fb06d214565d6e4398d6e6b"),
    5: ("4239963699cf988758e084362174880e1d6a81143cd3a965b442513e61cc735a",
        "01d26790aaa306ff53f3f52786093385f91fdf0d75b983855dc3fdbc12a8942c"),
    6: ("1ea78950c0de6b7146c9997aed1d335718e99c6017983e9eb4d0b5d3afd33ce8",
        "8720f0648bdc36b89398f75c9c0beaea0c2d2d80277166216a64b2ba88b0d988"),
    7: ("1eb793bc52bb7627f93264d3e417bd06439bcdda276d6ed828b462e4270490ca",
        "1bcbb461cc04de8d7930650227b27093447ffc0c2574874a4a11ad20d171501a"),
    8: ("6df5816803363a7044c94ac354dfd9c7f402fe304d0b9ae1ad47605e31eeb2ad",
        "c1c9f952fe34b8860c79fcdc47eb33ed36ba1aa7046964799acc5b3562e43f5b"),
    9: ("d07b3b161774e89c04e41f3238858f545432377a7de92d621f2c03d2ae67d676",
        "c6d58f0c9797b56672b2a8ff3d8b2d1ad3944803fb908854e5828aa0215f8dd9"),
    10: ("2a4235d9b54f4d9e940634832066f304c069c66738417c970bbf53e4e662a1aa",
        "b2693c94cf41bb7859bd0543f90dd148744530c120e30694b802e180bece77c2"),
    11: ("f817dec5c7c5302f46c9b90ae899bda439ccf336de79af86e290b6647ba168a8",
        "37a66e563c2b4451ee88b4f04ec26748534093c67b477ed12d94d6ebc5f7a69b"),
    12: ("3a67e2c0f75a2c97d254ee062ff854e5f4042dc5ab88ca9bfaa4cf97472ef69b",
        "b1f4c81ae5e2c7632b1c2570408553ee860dce79bee151583685a31f1367c0b8"),
    13: ("1a07609e304342aa6b798cf67ddbb3d8246925b60544003d894b9ca171814465",
        "f63e9d1c3975ba37c42a48de33cf8441c803c1a51ded1552e470cca4d5157a0d"),
    14: ("a505798816a998792789ebeaf6a613740e4628527c44eb82afa08a1222fd3d80",
        "ed23c4b08ae91fe277afb3d319bedaef2b05f7b10bf73662eaf0326668881f01"),
}


class TestByteIdentity:
    @pytest.mark.parametrize("m", sorted(CENSUS_DIGESTS))
    def test_census_documents_unchanged(self, m):
        census = enumerate_stable_trees(m, bound=14)
        doc = json.dumps(census.to_dict(), sort_keys=True)
        dot = "\n".join(t.to_dot() for t in census.trees)
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (doc, dot))
        assert digests == CENSUS_DIGESTS[m]


class TestDualGenerators:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_generators_agree(self, m):
        assert brute_force_census(m).codes == enumerate_stable_trees(m).codes

    @pytest.mark.parametrize("m", range(3, 15))
    def test_dissymmetry_count_agrees(self, m):
        assert dissymmetry_count(m) == len(enumerate_stable_trees(m, 14))

    def test_dissymmetry_count_past_the_suite(self):
        # m = 15 and 16 are the census counts `tests/ci_scale.py` checks
        assert [dissymmetry_count(m) for m in (15, 16, 60)] == [
            31311, 92949, 5_204_705_197_961_201_656_157_753_349]

    @pytest.mark.parametrize("m", range(3, 7))
    def test_brute_force_excludes_unstable(self, m):
        for t in brute_force_census(m).trees:
            assert validate_stable(t).stable


class TestKeelPoincare:
    """The census against the geometry of M̄_{0,m} (Section 2, H̄_g ≅ M̄_{0,2g+2};
    Keel 1992), not against the census's own definition of a stable tree."""

    @pytest.mark.parametrize("m", range(3, 15))
    def test_open_strata_sum_to_the_poincare_polynomial(self, m):
        assert strata_poincare(m, enumerate_stable_trees(m, 14).trees) == keel_poincare(m)

    @pytest.mark.parametrize("m", range(4, 17))
    def test_recursion_gives_keels_picard_number_and_duality(self, m):
        P = keel_poincare(m)
        assert len(P) == m - 2 and P == P[::-1] and P[1] == 2 ** (m - 1) - comb(m, 2) - 1

    @pytest.mark.parametrize("t, order", [
        (path_tree(2, 3), 1),
        (path_tree(2, 2), 2),  # two centroids whose halves code alike
        (path_tree(2, 0, 0, 2), 2),
        (path_tree(2, 0, 1, 2), 1),
        (path_tree(2, 1, 2), 2),
        (star_tree(0, 2, 2, 3), 2),
        (star_tree(0, 2, 2, 2), 6),
        (tree({0: 0, 1: 0, 2: 2, 3: 2, 4: 2, 5: 2}, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]), 8),
    ])
    def test_aut_order_of_small_shapes(self, t, order):
        assert aut_order(t) == order


class TestCentralGenerator:
    @pytest.mark.parametrize(
        "m,count", [(9, 73), (10, 190), (11, 488), (12, 1350), (13, 3741)]
    )
    def test_frozen_counts_to_13(self, m, count):
        assert len(enumerate_stable_trees(m, bound=13)) == count

    def test_frozen_count_14(self):
        assert len(enumerate_stable_trees(14, bound=14)) == 10765

    @pytest.mark.parametrize("m", range(3, 15))
    def test_trusted_build_matches_checked_path(self, m):
        for t in enumerate_stable_trees(m, bound=14).trees:
            checked = tree(dict(t.vertices), t.edges)
            assert t.vertices == checked.vertices
            assert t.edges == checked.edges
            assert adjacency(t) == adjacency(checked)

    @pytest.mark.parametrize("m", range(3, 13))
    def test_forest_table_holds_each_multiset_once(self, m, monkeypatch):
        folds = []
        fold = census_mod._fold

        def spy(forests, i, w):
            folds.append((forests, i, w))
            fold(forests, i, w)

        monkeypatch.setattr(census_mod, "_fold", spy)
        enumerate_stable_trees(m, bound=12)
        if m < 5:  # no tail is lighter than m/2
            assert folds == []
            return
        forests = folds[0][0]
        assert all(f is forests for f, _, _ in folds) and len(forests) == m + 1
        weight = [w for _, _, w in folds]
        assert [i for _, i, _ in folds] == list(range(len(weight)))
        assert weight == sorted(weight) and 2 * weight[-1] < m
        brute = [[] for _ in range(m + 1)]
        for k in range(m // 2 + 1):
            for kids in combinations_with_replacement(reversed(range(len(weight))), k):
                t = sum(weight[i] for i in kids)
                if t <= m:
                    brute[t].append(kids)
        for row, expected in zip(forests, brute):
            assert len(set(row)) == len(row)
            assert set(row) == set(expected)

    def test_trees_share_their_pairs(self):
        # one object per distinct (id, weight) and per distinct (parent, child) pair
        trees = enumerate_stable_trees(12, bound=12).trees
        for pairs in ([p for t in trees for p in t.vertices], [p for t in trees for p in t.edges]):
            assert len({id(p) for p in pairs}) == len(set(pairs))

    @pytest.mark.parametrize("m", range(3, 15))
    def test_rooted_at_central_vertex_or_edge(self, m):
        for t in enumerate_stable_trees(m, bound=14).trees:
            central = find_central(t)
            if central.edge is not None:
                assert central.edge == (0, 1)
            else:
                assert central.vertex == 0

    @pytest.mark.parametrize("m", [8, 11, 12])
    def test_no_generic_canonical_code(self, m, monkeypatch):
        calls = []

        def counted(t):
            calls.append(t)
            return canonical_code(t)

        for name, module in list(sys.modules.items()):
            if name.startswith("hyperforms") and hasattr(module, "canonical_code"):
                monkeypatch.setattr(module, "canonical_code", counted)
        assert not hasattr(census_mod, "canonical_code")
        assert len(enumerate_stable_trees(m, bound=12)) > 0
        assert calls == []

    @pytest.mark.parametrize("m", [9, 12, 13])
    def test_trees_keep_no_id_keyed_tables(self, m):
        trees = enumerate_stable_trees(m, bound=13).trees
        for name in ("weight_of", "adjacency", "neighbors"):
            assert not any(hasattr(t, name) for t in trees)

    @pytest.mark.parametrize("m", range(4, 13, 2))
    def test_stratum_counts_match_checked_classification(self, m):
        census = enumerate_stable_trees(m, bound=12)
        counts = Counter(str(classify_stratum(t)) for t in census.trees)
        assert census.stratum_counts == tuple(sorted(counts.items()))

    def test_strata_counted_without_stability_checks(self, monkeypatch):
        calls = []

        def counted(t):
            calls.append(t)
            return validate_stable(t)

        monkeypatch.setattr(trees_mod, "validate_stable", counted)
        census = enumerate_stable_trees(12, bound=12)
        assert len(census) == 1350 and census.stratum_counts
        assert calls == []

    def test_import_loads_no_networkx(self):
        proc = run_python("import sys, hyperforms; print('networkx' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
