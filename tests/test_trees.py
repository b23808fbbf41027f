import ast
import random
import re
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hyperforms.central as central_mod
import hyperforms.trees as trees_mod
from hyperforms import (
    CentralResult,
    InvalidTreeError,
    InvariantError,
    UnstableTreeError,
    WeightedTree,
    build_cover,
    canonical_code,
    classify_stratum,
    contract_F_m,
    enumerate_stable_trees,
    f_g_exponents,
    find_central,
    path_tree,
    stable_model,
    star_tree,
    tree,
    validate_stable,
)
from hyperforms.cli import InputError, _read_input
from hyperforms.forms import BinaryFormClass
from hyperforms.trees import pair_table, peel
from conftest import (
    breadth_first_parents,
    brute_isomorphic,
    over_long_integer,
    random_stable_tree,
    relabeled,
    rooted,
    run_python,
    side_weight,
    tree_from_json,
    walk_canonical_code,
)


def read_json(tmp_path, text: str):
    """The document in `text`, read through a file as the CLI reads its input."""
    path = tmp_path / "tree.json"
    path.write_text(text, encoding="utf-8")
    return _read_input(str(path))


class TestStructure:
    def test_rejects_disconnected(self):
        with pytest.raises(InvalidTreeError):
            tree({0: 2, 1: 2, 2: 2, 3: 2}, [(0, 1), (2, 3)])

    def test_rejects_cycle(self):
        with pytest.raises(InvalidTreeError):
            tree({0: 1, 1: 1, 2: 1}, [(0, 1), (1, 2), (0, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidTreeError):
            tree({0: 3, 1: 1}, [(0, 0)])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InvalidTreeError):
            WeightedTree(((0, 2), (0, 3)), ((0, 0),))

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidTreeError):
            tree({0: -1, 1: 4}, [(0, 1)])

    def test_rejects_unknown_edge_vertex(self):
        with pytest.raises(InvalidTreeError):
            tree({0: 2, 1: 2}, [(0, 7)])

    def test_rejects_no_vertices(self):
        with pytest.raises(InvalidTreeError, match="^tree has no vertices$"):
            WeightedTree((), ())

    def test_rejects_repeated_edge(self):
        with pytest.raises(InvalidTreeError, match="^repeated edge$"):
            tree({0: 2, 1: 2}, [(0, 1), (1, 0)])

    def test_rejects_triangle_plus_isolated_vertex(self):
        # As many edges as a tree on four vertices, but one vertex unreached.
        with pytest.raises(InvalidTreeError, match="^graph is disconnected$"):
            tree({0: 1, 1: 1, 2: 1, 3: 3}, [(0, 1), (1, 2), (0, 2)])

    # n - 1 edges, a cycle and a separate tree: the peel finishes the tree part
    # and must stop there, never reading a cycle vertex as a peeled one's parent.
    # Offset 0 gives ids 0..n-1, read as positions; the others are mapped.
    @pytest.mark.parametrize("offset", [0, 1, 10**6, -10**6], ids=["ids", "from-1", "shifted", "negative"])
    @pytest.mark.parametrize(
        "n, edges",
        [
            (6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]),
            (7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 6)]),
        ],
        ids=["four-cycle-plus-edge", "triangle-with-pendant-path-plus-path"],
    )
    def test_rejects_cycle_plus_separate_tree(self, n, edges, offset):
        weights = {offset + v: 2 for v in range(n)}
        with pytest.raises(InvalidTreeError, match="^graph is disconnected$"):
            tree(weights, [(offset + a, offset + b) for a, b in edges])
        # and with the separate tree on the lowest ids, so that it is peeled first
        flip = {v: n - 1 - v for v in range(n)}
        with pytest.raises(InvalidTreeError, match="^graph is disconnected$"):
            tree(weights, [(offset + flip[a], offset + flip[b]) for a, b in edges])

    # A tree's JSON text is parsed where the CLI reads it, in `cli._read_input`.
    def test_from_json_rejects_invalid_json(self, tmp_path):
        msg = r"^invalid JSON: Expecting value: line 1 column 1 \(char 0\)$"
        with pytest.raises(InputError, match=msg):
            read_json(tmp_path, "not json")

    def test_from_json_rejects_too_deeply_nested_json(self, tmp_path):
        with pytest.raises(InputError, match="^invalid JSON: .*recursion"):
            read_json(tmp_path, "[" * 100_000 + "]" * 100_000)

    def test_from_json_rejects_over_long_integer(self, tmp_path):
        doc = '{"vertices": [{"id": 0, "weight": %s}], "edges": []}' % over_long_integer()
        with pytest.raises(InputError, match="^invalid JSON: "):
            read_json(tmp_path, doc)

    @pytest.mark.parametrize(
        "vertices, edges, error",
        [
            (((0, 1, 2), (1, 3)), ((0, 1),), "each vertex must be an (id, weight) pair"),
            (((0,), (1, 3)), ((0, 1),), "each vertex must be an (id, weight) pair"),
            ((0, 1), (), "each vertex must be an (id, weight) pair"),
            (((0, 2), (1, 2)), ((0,),), "each edge must be an array of two vertex ids"),
            (((0, 2), (1, 2)), ((0, 1, 1),), "each edge must be an array of two vertex ids"),
            (((0, 2), (1, 2)), (0,), "each edge must be an array of two vertex ids"),
            # a dict or a string holds two items, but is no pair: the token scan stops there
            (((0, 2), (1, 2)), ({"a": 0, "b": 1},), "each edge must be an array of two vertex ids"),
            (((0, 2), (1, 2)), ("01",), "each edge must be an array of two vertex ids"),
            (({"id": 0, "weight": 2}, (1, 2)), ((0, 1),), "each vertex must be an (id, weight) pair"),
            (("ab", (1, 2)), ((0, 1),), "each vertex must be an (id, weight) pair"),
        ],
        ids=["vertex-of-3", "vertex-of-1", "vertex-not-a-pair",
             "edge-of-1", "edge-of-3", "edge-not-a-pair",
             "edge-dict", "edge-string", "vertex-dict", "vertex-string"],
    )
    def test_rejects_items_that_are_not_pairs(self, vertices, edges, error):
        with pytest.raises(InvalidTreeError, match=f"^{re.escape(error)}$"):
            WeightedTree(vertices, edges)

    # The bulk token check reads both arguments, and the per-field checks read them again.
    @pytest.mark.parametrize(
        "vertices, edges, expected",
        [
            (lambda: ((i, 3) for i in range(1)), lambda: (), tree({0: 3})),
            (lambda: [(0, 2), (1, 2)], lambda: (e for e in [(0, 1)]), path_tree(2, 2)),
        ],
        ids=["vertex-generator", "edge-generator"],
    )
    def test_accepts_one_shot_iterables(self, vertices, edges, expected):
        assert WeightedTree(vertices(), edges()) == expected

    @pytest.mark.parametrize("vertices, edges", [(5, ()), (((0, 2),), 5), (None, ())])
    def test_non_iterable_argument_is_a_type_error(self, vertices, edges):
        with pytest.raises(TypeError, match="object is not iterable$"):
            WeightedTree(vertices, edges)


class Id(int):
    """An `int` subclass: a JSON integer to `is_int`."""


class TestErrorPrecedence:
    """The bulk checks report the same first error as checking item by item."""

    @pytest.mark.parametrize(
        "vertices, edges, error",
        [
            # the first token that is not an integer, vertices before edges
            (((0, 2), (1, 2), (2, True)), ((0, 1), (1, 2)),
             "ids and weights must be integers, got True"),
            (((0, 2), (1, 2.0)), ((0, 1),), "ids and weights must be integers, got 2.0"),
            (((0, 2), (1, 2)), ((0, 1), (1, True)), "ids and weights must be integers, got True"),
            (((0, 2), (1, 2.5)), ((0, True),), "ids and weights must be integers, got 2.5"),
            (((0, 2), (1, 2)), ((0, 1.0), (True, 1)), "ids and weights must be integers, got 1.0"),
            # a token that is not an integer comes before a malformed item after it
            (((0, 2), (1, 2.5, 0)), ((0, 1),), "ids and weights must be integers, got 2.5"),
            # self-loops and unknown ids: the first edge in sorted order decides
            (((0, 2), (1, 2), (2, 2)), ((0, 1), (1, 1), (5, 2)), "self-loop at vertex 1"),
            (((0, 2), (1, 2), (2, 2)), ((2, 2), (9, 0)), "edge (0,9) uses unknown vertex"),
            (((0, 2), (1, 2), (2, 2)), ((2, 1), (1, 1), (0, 0)), "self-loop at vertex 0"),
            # duplicate ids are named before a negative weight
            (((0, -1), (0, 2)), (), "vertex ids are not distinct"),
            (((0, 2), (1, -1), (1, 3)), ((0, 1),), "vertex ids are not distinct"),
            (((0, -1), (1, 2)), ((0, 7),), "negative vertex weight"),
        ],
    )
    def test_first_error_wins(self, vertices, edges, error):
        with pytest.raises(InvalidTreeError, match=f"^{re.escape(error)}$"):
            WeightedTree(vertices, edges)

    # Exactly n - 1 edges: the edge count passes, so the fault is found by the
    # check of the ends before the peel or by the peel stopping short, and is
    # then named as the item-by-item checks name it.  On ids 0..n-1 an end -1
    # read as the last position would make the edges a tree, and an end n
    # would read past the last.
    @pytest.mark.parametrize(
        "ids, edges, error",
        [
            ((0, 1, 2), ((0, 1), (2, 2)), "self-loop at vertex 2"),
            ((0, 1, 2), ((0, 1), (1, 0)), "repeated edge"),
            ((0, 1, 2), ((0, 1), (-1, 0)), "edge (-1,0) uses unknown vertex"),
            ((0, 1, 2), ((0, 1), (1, 3)), "edge (1,3) uses unknown vertex"),
            ((10, 11, 12), ((10, 11), (12, 12)), "self-loop at vertex 12"),
            ((10, 11, 12), ((10, 11), (11, 10)), "repeated edge"),
            ((10, 11, 12), ((10, 11), (9, 12)), "edge (9,12) uses unknown vertex"),
            ((10, 11, 12), ((10, 11), (11, 13)), "edge (11,13) uses unknown vertex"),
            ((10, 12, 14), ((10, 12), (11, 14)), "edge (11,14) uses unknown vertex"),
        ],
        ids=["self-loop", "repeated", "end-minus-1", "end-n",
             "shifted-self-loop", "shifted-repeated", "shifted-below", "shifted-above",
             "gap-between-ids"],
    )
    def test_fault_among_n_minus_1_edges(self, ids, edges, error):
        with pytest.raises(InvalidTreeError, match=f"^{re.escape(error)}$"):
            WeightedTree(tuple((v, 2) for v in ids), edges)

    def test_int_subclass_is_accepted(self):
        t = WeightedTree(((Id(1), 2), (Id(0), Id(2))), ((Id(1), 0),))
        plain = WeightedTree(((0, 2), (1, 2)), ((0, 1),))
        assert t == plain
        assert t.vertices == plain.vertices == ((0, 2), (1, 2))
        assert canonical_code(t) == canonical_code(plain)


class TestPeel:
    """`peel` returns the rooted table exactly when the graph is a tree, and None
    for each way to miss one: an edge count other than n - 1, an end that is no
    id, and a peel that stops short.  Edges are on vertex indices here: index -1
    is an id below the least and index 4 one above the greatest."""

    @pytest.mark.parametrize("ids", [(0, 1, 2, 3), (10, 11, 12, 13), (-5, 0, 7, 9)],
                             ids=["positions", "shifted", "gapped"])
    @pytest.mark.parametrize("edges, is_tree", [
        (((0, 1), (1, 2), (1, 3)), True),
        (((0, 1), (1, 2)), False),
        (((0, 1), (1, 2), (1, 3), (2, 3)), False),
        (((-1, 0), (0, 1), (1, 2)), False),  # on positions, -1 would read as vertex 3 and make a tree
        (((0, 1), (1, 2), (2, 4)), False),
        (((0, 1), (0, 2), (1, 2)), False),
        (((0, 1), (1, 2), (3, 3)), False),
        (((0, 1), (0, 1), (2, 3)), False),
    ], ids=["tree", "too-few", "too-many", "end-below", "end-above", "cycle", "self-loop", "repeated"])
    def test_a_table_exactly_for_a_tree(self, ids, edges, is_tree):
        def at(i):
            return ids[i] if 0 <= i < len(ids) else ids[0] - 1 if i < 0 else ids[-1] + 1

        vertices = tuple((v, 2) for v in ids)
        edges = tuple(sorted(tuple(sorted((at(a), at(b)))) for a, b in edges))
        got = peel(vertices, edges)
        if not is_tree:
            assert got is None
            return
        assert got == WeightedTree(vertices, edges)._rooted
        assert sorted(got.order) == [0, 1, 2, 3] and got.parent[got.order[-1]] == -1


class TestOneWalk:
    @pytest.fixture
    def walks(self, monkeypatch):
        """Vertex count of every leaf peel the tree layer runs from here on."""
        counts = []

        def counted(vertices, edges):
            counts.append(len(vertices))
            return peel(vertices, edges)

        monkeypatch.setattr(trees_mod, "peel", counted)
        return counts

    @staticmethod
    def from_dict():
        return WeightedTree.from_dict(
            {
                "vertices": [{"id": i, "weight": w} for i, w in enumerate([2, 1, 1, 2])],
                "edges": [[0, 1], [1, 2], [2, 3]],
            }
        )

    def test_from_dict_then_side_weight_walks_once(self, walks):
        # the sides at the centre are read off the walk that proved the document a tree
        t = WeightedTree.from_dict(
            {"vertices": [{"id": i, "weight": w} for i, w in enumerate([2, 1, 2])], "edges": [[0, 1], [1, 2]]}
        )
        assert contract_F_m(t) == BinaryFormClass([2, 2, 1])
        assert walks == [3]

    def test_grown_tree_walks_on_first_use(self, walks):
        t = WeightedTree._grown([0, 2, 2, 2], [0, 0, 0], pair_table(6))
        assert walks == []
        assert find_central(t) == CentralResult(vertex=0)
        assert walks == [4]

    def test_canonical_code_after_from_dict_does_not_walk_again(self, walks):
        t = self.from_dict()
        assert walks == [4]
        assert canonical_code(t) == (-1, 1, -1, 1, -1, 2, -2, -2, -1, 2, -2, -2)
        assert validate_stable(t).stable and find_central(t) == CentralResult(edge=(1, 2))
        build_cover(t)
        assert walks == [4]


class TestOneScan:
    """Each per-tree fact is computed once and kept with the tree's tables."""

    @pytest.fixture
    def made(self, monkeypatch):
        """Every `CentralResult` and `StabilityReport` built from here on: one per scan."""
        made = {"centre": 0, "stability": 0}

        def counting(key, record):
            def build(*args, **kwargs):
                made[key] += 1
                return record(*args, **kwargs)
            return build

        monkeypatch.setattr(central_mod, "CentralResult", counting("centre", central_mod.CentralResult))
        monkeypatch.setattr(trees_mod, "StabilityReport", counting("stability", trees_mod.StabilityReport))
        return made

    @pytest.mark.parametrize("weights", [(3, 2, 3), (2, 2)], ids=["vertex", "edge"])
    def test_centre_is_scanned_once(self, made, weights):
        t = path_tree(*weights)
        central = find_central(t)
        form = contract_F_m(t)
        assert f_g_exponents(t) == form and find_central(t) == central
        assert made == {"centre": 1, "stability": 1}

    def test_validate_stable_then_build_cover_scans_once(self, made):
        t = path_tree(3, 2, 3)
        report = validate_stable(t)
        build_cover(t)
        assert validate_stable(t) is report
        assert made == {"centre": 0, "stability": 1}

    def test_unstable_tree_is_scanned_once(self, made):
        t = path_tree(1, 5)
        assert not validate_stable(t).stable
        for layer in (find_central, contract_F_m, build_cover):
            with pytest.raises(UnstableTreeError):
                layer(t)
        assert made == {"centre": 0, "stability": 1}

    def test_grown_tree_computes_both_on_first_use(self, made):
        t = WeightedTree._grown([0, 2, 2, 2], [0, 0, 0], pair_table(6))
        assert "_centre" not in t.__dict__ and "_stability" not in t.__dict__
        assert made == {"centre": 0, "stability": 0}
        assert contract_F_m(t) == BinaryFormClass([2, 2, 2])
        assert find_central(t) == CentralResult(vertex=0)
        assert f_g_exponents(t) == BinaryFormClass([2, 2, 2])
        assert made == {"centre": 1, "stability": 1}


class TestStability:
    def test_single_vertex_weight_5(self):
        assert validate_stable(tree({0: 5})).stable

    def test_weight_1_leaf_unstable(self):
        report = validate_stable(path_tree(1, 5))
        assert not report.stable
        assert report.violations == ((0, 1, 1),)

    def test_path_2_1_2_stable(self):
        # checked by hand: 2+1, 1+2, 2+1 all >= 3
        assert validate_stable(path_tree(2, 1, 2)).stable

    def test_weight_0_degree_3_allowed(self):
        assert validate_stable(star_tree(0, 2, 2, 2)).stable

    def test_weight_0_degree_2_unstable(self):
        assert not validate_stable(path_tree(2, 0, 2)).stable

    LAYERS = (find_central, contract_F_m, build_cover, classify_stratum, f_g_exponents)

    @pytest.fixture
    def scans(self, monkeypatch):
        """Every `StabilityReport` built from here on: one per scan."""
        built = []
        record = trees_mod.StabilityReport

        def counted(*args, **kwargs):
            built.append(record(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(trees_mod, "StabilityReport", counted)
        return built

    def test_one_scan_serves_every_layer(self, scans):
        t = path_tree(3, 2, 3)
        for layer in self.LAYERS:
            layer(t)
        assert scans == [validate_stable(t)]

    def test_one_scan_rejects_in_every_layer(self, scans):
        t = path_tree(1, 5)
        for layer in self.LAYERS:
            with pytest.raises(UnstableTreeError) as err:
                layer(t)
            assert str(err.value) == "tree is not stable; violations at vertices 0 (weight 1, degree 1)"
        assert scans == [validate_stable(t)]


class TestCanonicalCode:
    def test_single_vertex_id_irrelevant(self):
        assert canonical_code(tree({0: 7})) == canonical_code(tree({42: 7}))

    def test_relabeling_invariance(self):
        t1 = path_tree(2, 1, 3)
        t2 = tree({10: 1, 5: 3, 99: 2}, [(99, 10), (10, 5)])
        assert canonical_code(t1) == canonical_code(t2)

    def test_distinguishes_weight_distributions(self):
        assert canonical_code(path_tree(2, 1, 3)) != canonical_code(path_tree(2, 2, 2))

    @pytest.mark.parametrize("m", range(3, 9))
    def test_matches_brute_force_isomorphism(self, m):
        trees = enumerate_stable_trees(m).trees
        small = [t for t in trees if len(t.ids) <= 7]
        for i, t1 in enumerate(small):
            for t2 in small[i:]:
                expected = brute_isomorphic(t1, t2)
                got = canonical_code(t1) == canonical_code(t2)
                assert got == expected, (t1, t2)

    @given(st.permutations(list(range(6))), st.lists(st.integers(0, 4), min_size=6, max_size=6))
    def test_relabeling_invariance_random(self, perm, weights):
        edges = [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]
        t1 = tree(dict(enumerate(weights)), edges)
        t2 = tree(
            {perm[v]: w for v, w in enumerate(weights)},
            [(perm[a], perm[b]) for a, b in edges],
        )
        assert canonical_code(t1) == canonical_code(t2)

    def test_long_path(self):
        t = path_tree(2, *([1] * 9998), 2)
        code = canonical_code(t)
        assert len(code) == 3 * len(t.ids)
        assert canonical_code(relabeled(t, seed=1)) == code

    def test_three_legged_spider(self):
        weights, edges = {0: 0}, []
        for leg in range(3):
            ids = [0] + [1 + 700 * leg + i for i in range(700)]
            weights.update({v: 1 for v in ids[1:-1]})
            weights[ids[-1]] = 2
            edges += zip(ids, ids[1:])
        t = tree(weights, edges)
        assert validate_stable(t).stable
        assert canonical_code(relabeled(t, seed=2)) == canonical_code(t)


def caterpillar(k: int, spine: int = 1, leg: int = 2):
    """Spine 0..k-1 of weight `spine`, one leaf of weight `leg` on each."""
    weights = {**{i: spine for i in range(k)}, **{k + i: leg for i in range(k)}}
    return tree(weights, [(i, i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)])


def spider(center: int, legs: list[int]):
    """Paths of the given numbers of vertices from a center of weight `center`;
    inner vertices weigh 1, leg ends 2."""
    weights, edges = {0: center}, []
    for length in legs:
        ids = [0, *range(len(weights), len(weights) + length)]
        weights.update({v: 1 for v in ids[1:-1]})
        weights[ids[-1]] = 2
        edges += zip(ids, ids[1:])
    return tree(weights, edges)


def split_paths(depth: int, leg: int):
    """Binary tree of paths: every branch point has two legs of `leg` vertices,
    `depth` levels deep, so equal codes meet mid-tree; branch points weigh 1."""
    weights, edges, tips = {0: 1}, [], [0]
    for level in range(depth):
        new_tips = []
        for tip in tips:
            for _ in range(2):
                ids = [tip, *range(len(weights), len(weights) + leg)]
                weights.update({v: 1 for v in ids[1:]})
                edges += zip(ids, ids[1:])
                new_tips.append(ids[-1])
        tips = new_tips
    weights.update({v: 2 for v in tips})
    return tree(weights, edges)


def hanging(weights) -> tuple:
    """Code of a path hanging from its first vertex."""
    return (*chain.from_iterable((-1, w) for w in weights), *[-2] * len(weights))


def deep_tree(back: list[int], extra: list[int]) -> WeightedTree:
    """Stable tree where vertex i hangs `back[i-1]` steps above i-1: long chains
    with side branches, so codes are also extended in place."""
    parent = [None] + [max(0, i - 1 - b) for i, b in enumerate(back, 1)]
    degree = [0] * len(parent)
    for i, p in enumerate(parent[1:], 1):
        degree[i] += 1
        degree[p] += 1
    weights = {i: max(0, 3 - d) + extra[i % len(extra)] for i, d in enumerate(degree)}
    return tree(weights, [(p, i) for i, p in enumerate(parent[1:], 1)])


class TestLeafPeelingCode:
    """The one-pass leaf-peeling code against the three-walk oracle."""

    @pytest.mark.parametrize("m", range(3, 13))
    def test_census_classes(self, m):
        for t in enumerate_stable_trees(m, bound=12).trees:
            assert canonical_code(t) == walk_canonical_code(t)

    @pytest.mark.parametrize(
        "seed,n", [(1, 5), (2, 6), (3, 50), (4, 51), (5, 300), (6, 2000), (7, 2000)]
    )
    def test_random_trees(self, seed, n):
        t = random_stable_tree(seed, n, extra=seed)
        assert canonical_code(t) == walk_canonical_code(t)

    @pytest.mark.parametrize(
        "t",
        [
            tree({5: 4}),
            tree({3: 2, 8: 5}, [(3, 8)]),
            path_tree(2, 1, 2),
            path_tree(3, *[1] * 998, 2),
            star_tree(0, 2, 2, 2),
            star_tree(1, *[2] * 500),
            star_tree(0, *range(2, 40)),
        ],
        ids=["vertex", "edge", "path3", "path1000", "star3", "star500", "star38"],
    )
    def test_small_and_extreme_shapes(self, t):
        assert canonical_code(t) == walk_canonical_code(t)

    @pytest.mark.parametrize(
        "t",
        [
            path_tree(2, *[1] * 1998, 2),
            path_tree(2, *[1] * 1999, 2),
            caterpillar(1000),
            caterpillar(1001, leg=3),
            spider(0, [1000] + [1] * 1000),
            spider(0, [667] * 3),
            spider(1, [500, 500, 499, 500]),
            spider(0, list(range(1, 61))),
            spider(3, [30] * 60),
            split_paths(4, 60),
        ],
        ids=["path-even", "path-odd", "caterpillar", "caterpillar-odd", "broom",
             "spider-equal-legs", "spider-one-short-leg", "star-of-paths", "star-of-equal-paths",
             "split-paths"],
    )
    def test_matches_walk_oracle(self, t):
        assert validate_stable(t).stable
        code = canonical_code(t)
        assert code == walk_canonical_code(t)
        assert canonical_code(relabeled(t, seed=len(t.ids))) == code

    @given(st.integers(0, 2**32), st.integers(1, 400), st.integers(0, 3))
    def test_random_trees_property(self, seed, n, extra):
        t = random_stable_tree(seed, n, extra)
        code = canonical_code(t)
        assert code == walk_canonical_code(t)
        assert canonical_code(relabeled(t, seed)) == code

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 3), max_size=300), st.lists(st.integers(0, 2), min_size=1))
    def test_deep_trees(self, back, extra):
        t = deep_tree(back, extra)
        code = canonical_code(t)
        assert code == walk_canonical_code(t)
        assert canonical_code(relabeled(t, len(back))) == code

    def test_long_path_closed_form(self):
        n = 10**5
        half = [1] * (n // 2 - 1) + [2]  # a center down to one end
        expected = (-1, 1, *hanging(half), *hanging(half[1:]), -2)
        assert canonical_code(path_tree(2, *[1] * (n - 2), 2)) == expected

    def test_long_caterpillar_closed_form(self):
        k = 5 * 10**4  # spine vertices; two centers in its middle
        def side(j):  # the spine below a center, j vertices, with their leaves
            return (-1, 1) * j + (-1, 2, -2, -2) * j
        expected = (-1, 1, *side(k // 2), *side(k // 2 - 1), -1, 2, -2, -2)
        assert canonical_code(caterpillar(k)) == expected


def id_copies(t: WeightedTree, seed: int):
    """(name, copy, back) for four copies of `t`: ids 0..n-1 in the order of
    `t`'s ids, which are read as positions, and three that are mapped: shuffled
    ids that miss 0..4, ids shifted by 10**6, and negative ids in reverse
    order.  `back` maps a copy's ids to those of `t`."""
    ids = t.ids
    n = len(ids)
    new = {
        "ids": range(n),
        "shuffled": random.Random(seed).sample(range(5, 5 + 3 * n), n),
        "shifted": range(10**6, 10**6 + n),
        "negative": range(-1, -1 - n, -1),
    }
    for name, to in new.items():
        to = dict(zip(ids, to))
        copy = tree({to[v]: w for v, w in t.vertices}, [(to[a], to[b]) for a, b in t.edges])
        yield name, copy, {b: a for a, b in to.items()}


def coarse_model_key(model) -> tuple:
    """The stable model up to relabeling, coarsely: its genera and its nodes as
    genus pairs.  For trees whose model code is factorial."""
    genus = dict(model.components)
    return (sorted(genus.values()),
            sorted(tuple(sorted((genus[a], genus[b]))) for a, b in model.nodes), model.g)


class TestIdIndependence:
    """Ids only name vertices: every layer gives the same answer, mapped back,
    on ids 0..n-1 (which the peel reads as positions) and on mapped ids."""

    @staticmethod
    def check_copies(t, seed, model_key):
        code = canonical_code(t)
        report = validate_stable(t)
        if report.stable:
            central, form = find_central(t), contract_F_m(t)
        even = report.stable and t.m % 2 == 0
        if even:
            cover = build_cover(t)
            model = model_key(stable_model(cover))
        for name, copy, back in id_copies(t, seed):
            assert canonical_code(copy) == code, name
            got = validate_stable(copy)
            assert sorted((back[v], w, d) for v, w, d in got.violations) == sorted(report.violations), name
            if not report.stable:
                continue
            c = find_central(copy)
            if c.edge is None:
                assert back[c.vertex] == central.vertex, name
            else:
                assert tuple(sorted(map(back.get, c.edge))) == central.edge, name
            assert contract_F_m(copy) == form, name
            if even:
                copy_cover = build_cover(copy)
                assert sorted((back[x.base_vertex], x.branch_count, x.genus) for x in copy_cover.components) == \
                    sorted((x.base_vertex, x.branch_count, x.genus) for x in cover.components), name
                assert sorted((tuple(sorted(map(back.get, x.base_edge))), x.kind) for x in copy_cover.nodes) == \
                    sorted((x.base_edge, x.kind) for x in cover.nodes), name
                assert model_key(stable_model(copy_cover)) == model, name

    @pytest.mark.parametrize("m", range(3, 11))
    def test_every_stable_class(self, m):
        for seed, t in enumerate(enumerate_stable_trees(m).trees):
            self.check_copies(t, seed, lambda model: model.canonical_code())

    @pytest.mark.parametrize("seed,n,extra", [(1, 2, 0), (2, 7, 1), (3, 40, 0), (4, 41, 3), (5, 300, 2), (6, 1000, 0)])
    def test_random_stable_trees(self, seed, n, extra):
        self.check_copies(random_stable_tree(seed, n, extra), seed, coarse_model_key)

    @pytest.mark.parametrize("seed", range(4))
    def test_unstable_trees_name_their_violations(self, seed):
        rng = random.Random(seed)
        n = 30
        t = tree({v: rng.randrange(3) for v in range(n)}, [(v, rng.randrange(v)) for v in range(1, n)])
        assert not validate_stable(t).stable
        self.check_copies(t, seed, coarse_model_key)

    # Hand codes at n = 1, 2 and 3, on paths with one and two centres, and on
    # two centres of one weight whose codes differ below them.
    @pytest.mark.parametrize(
        "t, code",
        [
            (tree({0: 5}), (-1, 5, -2)),
            (path_tree(3, 5), (-1, 3, -1, 5, -2, -2)),
            (path_tree(5, 3), (-1, 3, -1, 5, -2, -2)),
            (path_tree(2, 1, 2), (-1, 1, -1, 2, -2, -1, 2, -2, -2)),
            (path_tree(2, 1, 1, 2), (-1, 1, -1, 1, -1, 2, -2, -2, -1, 2, -2, -2)),
            (path_tree(2, 1, 0, 1, 2), (-1, 0, *(-1, 1, -1, 2, -2, -2) * 2, -2)),
            (tree({0: 1, 1: 1, 2: 2, 3: 4, 4: 2, 5: 3}, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]),
             (-1, 1, -1, 1, -1, 2, -2, -1, 3, -2, -2, -1, 2, -2, -1, 4, -2, -2)),
        ],
        ids=["n1", "n2", "n2-heavier-first", "n3", "even-path", "odd-path", "tied-centres"],
    )
    def test_pinned_codes(self, t, code):
        assert canonical_code(t) == code == walk_canonical_code(t)
        for name, copy, _ in id_copies(t, len(code)):
            assert canonical_code(copy) == code, name


@st.composite
def short_grown_trees(draw):
    """(weights, up) on 1..8 vertices: the parents up[v - 1] of v = 1..n-1, in -2..8.
    Vertex v's parent is drawn from 0..v-1, from -2..v or from -2..8, so
    breadth-first lists and each kind of near miss are all common."""
    n = draw(st.integers(1, 8))
    up = [draw(st.integers(0, v - 1) | st.integers(-2, v) | st.integers(-2, 8)) for v in range(1, n)]
    return draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)), up


class TestGrownTree:
    @pytest.mark.parametrize(
        "weights,up",
        [([2, 1, 2], [2, 0]), ([2, 2], [1]), ([3, 3], [5])],
        ids=["parent-after-child", "own-parent", "unknown-parent"],
    )
    def test_rejects_parent_not_before_child(self, weights, up):
        with pytest.raises(InvariantError):
            WeightedTree._grown(weights, up, pair_table(6))

    def test_rejects_parents_not_breadth_first(self):
        # a valid tree, 0-1, 1-2 and 0-3, but vertex 3 is the root's child after 1's
        with pytest.raises(InvariantError):
            WeightedTree._grown([2, 1, 2, 2], [0, 1, 0], pair_table(6))

    def test_rejects_tree_larger_than_its_pair_table(self):
        # breadth first, but four vertices against the three rows of pair_table(2)
        with pytest.raises(InvariantError):
            WeightedTree._grown([2, 0, 2, 2], [0, 1, 1], pair_table(2))

    @pytest.mark.parametrize(
        "weights,up",
        # the last two are breadth first, but unchecked their three vertices would get
        # three edges, or one
        [([2, 1, 2], [-1, 0]), ([2, 1, 2, 2], [0, 2, 1]), ([2, 2, 2], [0, 0, 1]), ([2, 2, 2], [0])],
        ids=["negative-first-parent", "decreasing", "one-parent-too-many", "one-parent-too-few"],
    )
    def test_rejects_with_the_contract_message(self, weights, up):
        with pytest.raises(InvariantError, match="^grown tree: parents must be breadth first"):
            WeightedTree._grown(weights, up, pair_table(6))

    def test_a_peel_that_rejects_a_grown_tree_is_an_invariant_failure(self, monkeypatch):
        t = WeightedTree._grown([2, 1, 2], [0, 1], pair_table(6))
        monkeypatch.setattr(trees_mod, "peel", lambda vertices, edges: None)
        with pytest.raises(InvariantError, match="^grown tree: the peel must prove it a tree$"):
            t._rooted

    @settings(max_examples=300)
    @given(short_grown_trees())
    def test_rejects_exactly_what_the_oracle_rejects(self, case):
        weights, up = case
        if not breadth_first_parents(up):
            with pytest.raises(InvariantError, match="^grown tree: parents must be breadth first"):
                WeightedTree._grown(weights, up, pair_table(8))
            return
        t = WeightedTree._grown(weights, up, pair_table(8))
        assert t == WeightedTree(t.vertices, t.edges)
        assert t.vertices == tuple(enumerate(weights))
        assert t.edges == tuple(zip(up, range(1, len(weights))))


class TestComplementaryWeights:
    """The weights of the complementary subtrees at the central vertex, as
    `find_central` reads them at the centre's position in the rooted table."""

    @staticmethod
    def sides(t) -> list[int]:
        result, sides, _ = central_mod._central(t)
        assert result.vertex is not None, t
        return list(sides)

    def test_star_center(self):
        assert self.sides(star_tree(0, 2, 2, 2)) == [2, 2, 2]

    def test_path_leaf(self):
        t = path_tree(5, 1, 2)
        assert find_central(t) == CentralResult(vertex=0) and self.sides(t) == [3]

    def test_single_vertex(self):
        assert self.sides(tree({0: 5})) == []

    # The centre is not the root of the peel, so its parent's side weighs the rest.
    @pytest.mark.parametrize(
        "t, v, sides",
        [
            (path_tree(2, 2, 1, 2), 1, [2, 3]),
            (path_tree(2, 1, 1, 1, 6), 4, [5]),
            (path_tree(2, 3, 1, 1, 2), 1, [2, 4]),
            (star_tree(0, 2, 2, 5), 3, [4]),
            (tree({0: 3, 1: 1, 2: 3, 3: 1, 4: 1, 5: 2}, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)]),
             1, [3, 3, 4]),
        ],
        ids=["path-middle", "path-end", "path-inner", "star-leaf", "branch-vertex"],
    )
    def test_non_root_vertex(self, t, v, sides):
        assert find_central(t) == CentralResult(vertex=v)
        assert t._rooted.parent[t.ids.index(v)] >= 0
        assert self.sides(t) == sides

    @staticmethod
    def by_oracle(t, v):
        table = rooted(t)
        _, _, adj, _ = table
        return sorted(side_weight(t, (v, u), u, table) for u in adj[v])

    @staticmethod
    def centred(trees):
        """The trees with a central vertex, each with its centre."""
        return [(t, c.vertex) for t in trees if (c := find_central(t)).vertex is not None]

    def test_matches_oracle_on_every_class_to_10(self):
        checked = 0
        for m in range(3, 11):
            for t, c in self.centred(enumerate_stable_trees(m).trees):
                assert self.sides(t) == self.by_oracle(t, c), t
                checked += 1
        assert checked > 200

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_on_relabeled_random_trees(self, seed):
        t = relabeled(random_stable_tree(seed, n=300, extra=seed), seed)
        (v, w), *rest = t.vertices
        odd = WeightedTree(((v, w + 1), *rest), t.edges)  # odd weight: never a half-weight edge
        for t, c in self.centred([t, odd]):
            assert self.sides(t) == self.by_oracle(t, c), t

    @pytest.mark.parametrize("k", [3, 4, 50])
    def test_matches_oracle_on_stars(self, k):
        stars = self.centred([star_tree(0, *[2] * k), relabeled(star_tree(1, *range(2, k + 2)), k)])
        assert len(stars) == 2
        for t, c in stars:
            assert self.sides(t) == self.by_oracle(t, c), t

    @pytest.mark.parametrize("m", range(3, 9))
    def test_weights_sum_to_m(self, m):
        for t, c in self.centred(enumerate_stable_trees(m).trees):
            _, sides, weight = central_mod._central(t)
            assert weight == dict(t.vertices)[c] and weight + sum(sides) == m


class TestSerialization:
    def test_json_round_trip(self):
        t = star_tree(0, 2, 2, 4)
        again = tree_from_json(t.to_json())
        assert canonical_code(again) == canonical_code(t)

    def test_m_is_optional_and_checked(self):
        t = WeightedTree.from_dict(
            {"vertices": [{"id": 0, "weight": 3}, {"id": 1, "weight": 3}], "edges": [[0, 1]]}
        )
        assert t.m == 6
        with pytest.raises(InvalidTreeError):
            WeightedTree.from_dict({"m": 5, "vertices": [{"id": 0, "weight": 3}], "edges": []})

    @pytest.mark.parametrize(
        "doc, error",
        [
            ([1, 2], "input must be a JSON object"),
            ("tree", "input must be a JSON object"),
            ({"edges": []}, "missing field 'vertices'"),
            ({"vertices": "nope"}, "field 'vertices' must be an array"),
            ({"vertices": {"0": 4}}, "field 'vertices' must be an array"),
            ({"vertices": [{"id": 0, "weight": 4}], "edges": None},
             "field 'edges' must be an array"),
            ({"vertices": [1, 2]}, "each vertex must be an object with an id and a weight"),
            ({"vertices": [{"weight": 4}]}, "each vertex must be an object with an id and a weight"),
            ({"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}], "edges": [[0]]},
             "each edge must be an array of two vertex ids"),
            ({"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}], "edges": [1]},
             "each edge must be an array of two vertex ids"),
            # edge shapes are checked before the tokens, duplicate ids before loops
            ({"vertices": [{"id": 0, "weight": 2.5}], "edges": [[0]]},
             "each edge must be an array of two vertex ids"),
            ({"vertices": [{"id": 0, "weight": 2}], "edges": [["a", "b"]]},
             "ids and weights must be integers, got 'a'"),
            ({"vertices": [{"id": 0, "weight": 2}, {"id": 0, "weight": -1}], "edges": [[0, 0]]},
             "vertex ids are not distinct"),
            # an object or a string of two items is not an array of two ids
            ({"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}], "edges": [{"a": 0, "b": 1}]},
             "each edge must be an array of two vertex ids"),
            ({"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}], "edges": ["01"]},
             "each edge must be an array of two vertex ids"),
        ],
    )
    def test_from_dict_names_the_broken_field(self, doc, error):
        with pytest.raises(InvalidTreeError, match=f"^{error}$"):
            WeightedTree.from_dict(doc)

    def test_dot_labels(self):
        dot = path_tree(2, 4).to_dot()
        assert '"0:2"' in dot and '"1:4"' in dot and "v0 -- v1" in dot

    def test_dot_names_negative_ids_apart(self):
        assert tree({7: 3, -3: 5}, [(7, -3)]).to_dot() == (
            'graph tree {\n  n3 [label="-3:5"];\n  v7 [label="7:3"];\n  n3 -- v7;\n}')
        # -3 and 3 in one tree: distinct DOT identifiers, each id kept in its label
        dot = tree({-3: 2, 0: 0, 3: 2, 5: 2}, [(-3, 0), (0, 3), (0, 5)]).to_dot()
        names = re.findall(r"^  (\S+) \[label=\"(-?\d+):", dot, re.M)
        assert names == [("n3", "-3"), ("v0", "0"), ("v3", "3"), ("v5", "5")]
        assert all(re.fullmatch(r"[A-Za-z_]\w*", name) for name, _ in names)
        assert "n3 -- v0;" in dot


class TestInvariantCheck:
    def test_check_survives_optimize_flag(self):
        code = (
            "from hyperforms.trees import InvariantError, check\n"
            "assert False, 'asserts are on'\n"
            "check(True, 'fine')\n"
            "try:\n"
            "    check(False, 'broken')\n"
            "except InvariantError as exc:\n"
            "    print(isinstance(exc, AssertionError), exc)\n"
        )
        proc = run_python(code, "-O")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True broken"

    def test_no_assert_statements_in_the_package(self):
        # Every invariant goes through `check`: an `assert` would vanish under -O.
        package = Path(trees_mod.__file__).parent
        asserts = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
        ]
        assert asserts == []
