"""Acceptance suite: one test per criterion, printing a pass line each.

Everything here is exact integer arithmetic; tolerances are zero throughout.
"""

from hyperforms import (
    GitClass,
    build_cover,
    classify,
    classify_stratum,
    contract_F_m,
    enumerate_stable_trees,
    f_g_exponents,
    find_central,
    image_dimension,
    stable_model,
)
from hyperforms.covers import RAMIFIED
from hyperforms.reduction import ExponentVector, blowup_chain, reduce
from hyperforms.strata import DELTA, SEMISTABLE_IMAGE, XI, StratumLabel
from conftest import (
    branch_count,
    brute_force_census,
    compositions,
    edge_is_ramified,
    half_weight_edge,
    is_central,
    leaf_strip_cover,
    reconstructed_exponents,
    two_vertex_tree,
)


def report(criterion, text):
    print(f"criterion {criterion}: PASS - {text}")


def test_criterion_1_unique_central_vertex():
    checked = 0
    for m in range(3, 10):
        for t in enumerate_stable_trees(m).trees:
            if half_weight_edge(t) is not None:
                continue
            central = [v for v in t.ids if is_central(t, v)]
            assert len(central) == 1, t
            assert find_central(t).vertex == central[0], t
            checked += 1
    report(1, f"unique central vertex on {checked} trees with m <= 9")


def test_criterion_2_semistable_divisor():
    checked = 0
    for m in range(4, 11, 2):
        for t in enumerate_stable_trees(m).trees:
            form = contract_F_m(t)
            if half_weight_edge(t) is not None:
                assert form.semistable_point, t
            else:
                assert not form.semistable_point
                assert form.degree == m, t
                assert classify(form) == GitClass.STABLE, t
            checked += 1
    report(2, f"contraction semistable iff half-weight edge on {checked} trees")


def test_criterion_3_cover_genus_and_parity_oracle():
    checked = 0
    for m in range(4, 11, 2):
        for t in enumerate_stable_trees(m).trees:
            cover = build_cover(t)
            assert cover.arithmetic_genus == (m - 2) // 2, t
            ramified, branch = leaf_strip_cover(t)
            assert ramified == {e for e in t.edges if edge_is_ramified(t, e)}, t
            assert branch == {v: branch_count(t, v) for v in t.ids}, t
            checked += 1
    report(3, f"cover genus (m-2)/2 and leaf-stripping agreement on {checked} trees")


def test_criterion_4_generic_divisor_covers():
    for g in range(2, 5):
        m = 2 * g + 2
        for i in range(1, g // 2 + 1):
            t = two_vertex_tree(2 * i + 1, m)
            cover = build_cover(t)
            assert sorted(w for _, w in t.vertices) == sorted([2 * i + 1, 2 * g - 2 * i + 1])
            assert len(cover.nodes) == 1 and cover.nodes[0].kind == RAMIFIED
            assert sorted(c.genus for c in cover.components) == sorted([i, g - i])
        for i in range((g - 1) // 2 + 1):
            t = two_vertex_tree(2 * i + 2, m)
            cover = build_cover(t)
            assert len(cover.nodes) == 2
            assert sorted(c.genus for c in cover.components) == sorted([i, g - i - 1])
        model = stable_model(build_cover(two_vertex_tree(2, m)))
        assert [genus for _, genus in model.components] == [g - 1]
        (cid, _), = model.components
        assert model.nodes == ((cid, cid),)
    report(4, "generic delta/xi covers and xi_0 stable model for g <= 4")


def test_criterion_5_stable_reduction():
    checked = 0
    for g in range(2, 6):
        for comp in compositions(2 * g + 2, 2 * g):
            out = reduce(ExponentVector(comp))
            assert out.arithmetic_genus == g, comp
            for tail in out.tails:
                assert tail.genus == (tail.exponent - 1) // 2, comp
                assert tail.attachment_points == 2 - (tail.exponent % 2), comp
            checked += 1
    for n in range(2, 13):
        chain = blowup_chain(n).multiplicities
        i = n // 2
        expected = tuple(2 * j for j in range(1, i + 1))
        if n % 2:
            expected += (2 * i + 1, 4 * i + 2)
        assert chain == expected, n
    report(5, f"stable reduction on {checked} exponent vectors, chains for n <= 12")


def test_criterion_6_commuting_square():
    checked = 0
    for m in range(4, 11, 2):
        for t in enumerate_stable_trees(m).trees:
            form = f_g_exponents(t)
            assert form == contract_F_m(t), t
            recon = reconstructed_exponents(t)
            if recon is None:
                assert form.semistable_point, t
            else:
                assert list(form.multiplicities) == recon, t
            checked += 1
    report(6, f"map equals contraction and cover-tail reconstruction on {checked} trees")


def test_criterion_7_image_dimensions():
    for g in range(2, 7):
        m = 2 * g + 2
        for i in range(1, g // 2 + 1):
            j = 2 * i + 1
            label = classify_stratum(two_vertex_tree(j, m))
            if j == g + 1:
                assert label.kind == SEMISTABLE_IMAGE
                assert image_dimension(label, g) == 0
                continue
            assert (label.kind, label.index) == (DELTA, i)
            dim = image_dimension(StratumLabel(DELTA, index=i), g)
            assert dim == 2 * g - 2 * i - 1
            form = f_g_exponents(two_vertex_tree(j, m))
            assert dim == len(form.multiplicities) - 3
        for i in range((g - 1) // 2 + 1):
            j = 2 * i + 2
            label = classify_stratum(two_vertex_tree(j, m))
            if j == g + 1:
                assert label.kind == SEMISTABLE_IMAGE
                assert image_dimension(label, g) == 0
                continue
            assert (label.kind, label.index) == (XI, i)
            dim = image_dimension(StratumLabel(XI, index=i), g)
            assert dim == 2 * g - 2 * i - 2
            form = f_g_exponents(two_vertex_tree(j, m))
            assert dim == len(form.multiplicities) - 3
    report(7, "image dimensions 2g-2i-1 / 2g-2i-2 with root-count cross-check, g <= 6")


def test_criterion_8_census_regression():
    expected = {3: 1, 4: 2, 5: 3, 6: 7}
    for m, count in expected.items():
        assert len(enumerate_stable_trees(m)) == count, m
    for m in range(3, 9):
        assert brute_force_census(m).codes == enumerate_stable_trees(m).codes, m
    report(8, "census counts 1,2,3,7 and dual-generator agreement for m <= 8")


def test_criterion_9_injectivity():
    for m in range(4, 9, 2):
        seen = {}
        for code, t in enumerate_stable_trees(m).classes:
            model_code = stable_model(build_cover(t)).canonical_code()
            assert model_code not in seen, (t, seen.get(model_code))
            seen[model_code] = t
    report(9, "tree -> stable-model map injective on codes for even m <= 8")


def test_criterion_9_injectivity_m10():
    classes = enumerate_stable_trees(10).classes
    codes = {stable_model(build_cover(t)).canonical_code() for _, t in classes}
    assert len(classes) == len(codes) == 190
    report(9, "tree -> stable-model map injective on the 190 classes at m = 10")


def test_criterion_9_injectivity_m12():
    classes = enumerate_stable_trees(12, bound=12).classes
    codes = {stable_model(build_cover(t)).canonical_code() for _, t in classes}
    assert len(classes) == len(codes) == 1350
    report(9, "tree -> stable-model map injective on the 1,350 classes at m = 12")
