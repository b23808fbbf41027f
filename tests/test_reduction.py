import re
from itertools import permutations

import pytest

from hyperforms import (
    ExponentVector,
    blowup_chain,
    build_cover,
    contract_F_m,
    enumerate_stable_trees,
    find_central,
    reduce,
    stable_model,
    star_tree,
)
from conftest import (
    adjacency, check_exponent_square, compositions, model_shape, partitions, reduced_curve_unstable,
    reduced_shape, square_partitions,
)


class TestExponentVector:
    def test_genus(self):
        assert ExponentVector((4, 1, 1, 1, 1)).g == 3
        assert ExponentVector((3, 1, 1), at_infinity=1).g == 2

    def test_rejects_odd_sum(self):
        with pytest.raises(ValueError):
            ExponentVector((3, 1, 1, 1, 1))

    def test_rejects_small_sum(self):
        with pytest.raises(ValueError):
            ExponentVector((2, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExponentVector((), at_infinity=6)

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError, match="^finite-root exponents must be positive$"):
            ExponentVector((0, 3, 3))

    def test_rejects_negative_at_infinity(self):
        with pytest.raises(
            ValueError, match="^multiplicity at infinity must be non-negative$"
        ):
            ExponentVector((3, 3, 1), at_infinity=-1)

    @pytest.mark.parametrize("at_infinity", [None, 1.0, "1", True])
    def test_non_integer_at_infinity_names_its_field(self, at_infinity):
        error = f"field 'at_infinity' must be an integer, got {at_infinity!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            ExponentVector((3, 3), at_infinity=at_infinity)

    @pytest.mark.parametrize(
        "doc, error",
        [
            ([3, 3], "input must be a JSON object"),
            ("exponents", "input must be a JSON object"),
            ({"at_infinity": 2}, "missing field 'exponents'"),
            ({"exponents": 6}, "field 'exponents' must be an array"),
            ({"exponents": "3111"}, "field 'exponents' must be an array"),
            ({"exponents": None}, "field 'exponents' must be an array"),
        ],
    )
    def test_from_dict_names_the_broken_field(self, doc, error):
        with pytest.raises(ValueError, match=f"^{error}$"):
            ExponentVector.from_dict(doc)


class TestReduce:
    def test_even_exponent_tail(self):
        out = reduce(ExponentVector((4, 1, 1, 1, 1)))
        (tail,) = out.tails
        assert (tail.exponent, tail.genus, tail.attachment_points) == (4, 1, 2)
        assert tail.equation == "y^2 = z^4 - 1"
        assert (out.central_branch_points, out.central_genus) == (4, 1)
        assert out.arithmetic_genus == 3

    def test_odd_exponent_tail(self):
        out = reduce(ExponentVector((3, 1, 1, 1)))
        (tail,) = out.tails
        assert (tail.exponent, tail.genus, tail.attachment_points) == (3, 1, 1)
        assert tail.equation == "y^2 = z^3 - 1"
        assert out.to_dict()["tails"] == [tail._asdict()]
        # the odd root stays as a branch point of the central component
        assert (out.central_branch_points, out.central_genus) == (4, 1)
        assert out.arithmetic_genus == 2

    def test_exponent_2_contracts_to_node(self):
        out = reduce(ExponentVector((2, 1, 1, 1, 1)))
        assert out.tails == ()
        assert out.extra_nodes == 1
        assert (out.central_branch_points, out.central_genus) == (4, 1)
        assert out.arithmetic_genus == 2

    def test_all_simple_roots(self):
        out = reduce(ExponentVector((1,) * 6))
        assert out.tails == () and out.extra_nodes == 0
        assert (out.central_branch_points, out.central_genus) == (6, 2)

    def test_all_even_splits_central(self):
        # no branch points survive: the central fiber is two genus-0 sheets
        out = reduce(ExponentVector((4, 2)))
        assert out.central_split and len(out.tails) == 1  # two sheets and one tail
        assert out.arithmetic_genus == 2

    def test_infinity_treated_as_root(self):
        a = reduce(ExponentVector((3, 1, 1), at_infinity=1))
        b = reduce(ExponentVector((3, 1, 1, 1)))
        assert a.to_dict()["central"] == b.to_dict()["central"]
        assert [t.exponent for t in a.tails] == [t.exponent for t in b.tails]

    def test_unstable_input_flagged(self):
        out = reduce(ExponentVector((4, 1, 1)))  # g=2, 4 > g+1
        assert out.git_unstable_input
        assert out.arithmetic_genus == 2
        assert not reduce(ExponentVector((3, 1, 1, 1))).git_unstable_input

    def test_too_large_exponent_rejected(self):
        with pytest.raises(ValueError):
            reduce(ExponentVector((5, 1)))  # g=2, 5 > 2g

    @pytest.mark.parametrize("g", range(2, 6))
    def test_genus_conserved_exhaustively(self, g):
        for comp in compositions(2 * g + 2, max_part=2 * g):
            out = reduce(ExponentVector(comp))
            assert out.arithmetic_genus == g, comp
            for tail in out.tails:
                assert tail.genus == (tail.exponent - 1) // 2
                assert tail.attachment_points == 2 - (tail.exponent % 2)
            assert out.central_branch_points % 2 == 0

    def test_commutes_with_permutation(self):
        base = (4, 3, 2, 1, 1, 1)
        ref = reduce(ExponentVector(base))
        for perm in set(permutations(base)):
            out = reduce(ExponentVector(perm))
            assert sorted(
                (t.exponent, t.genus, t.attachment_points) for t in out.tails
            ) == sorted((t.exponent, t.genus, t.attachment_points) for t in ref.tails)
            assert out.to_dict()["central"] == ref.to_dict()["central"]
            assert out.extra_nodes == ref.extra_nodes


class TestBlowupChain:
    def test_single_blow_up(self):
        assert blowup_chain(2).multiplicities == (2,)

    def test_even(self):
        assert blowup_chain(6).multiplicities == (2, 4, 6)

    def test_odd(self):
        assert blowup_chain(5).multiplicities == (2, 4, 5, 10)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            blowup_chain(1)

    @pytest.mark.parametrize("n", [3.0, True, "3"], ids=["float", "bool", "str"])
    def test_rejects_n_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
            blowup_chain(n)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_stated_sequences(self, n):
        chain = blowup_chain(n).multiplicities
        i = n // 2
        if n % 2 == 0:
            assert chain == tuple(2 * j for j in range(1, i + 1))
        else:
            assert chain == tuple(2 * j for j in range(1, i + 1)) + (2 * i + 1, 4 * i + 2)


class TestDepthOneIdentity:
    """On a tree whose central vertex has only leaves as neighbours, the
    closed-form reduction of F(t) is the stable model of the cover."""

    @pytest.mark.parametrize("m, count", [(6, 4), (8, 10), (10, 23), (12, 47), (14, 90)])
    def test_reduce_of_contraction_is_stable_model(self, m, count):
        checked = 0
        for t in enumerate_stable_trees(m, bound=14).trees:
            v = find_central(t).vertex
            adj = adjacency(t)
            if v is None or any(len(adj[u]) > 1 for u in adj[v]):
                continue
            red = reduce(ExponentVector(contract_F_m(t).multiplicities))
            assert model_shape(stable_model(build_cover(t))) == reduced_shape(red), t
            checked += 1
        assert checked == count

    def test_star_of_every_partition_up_to_20(self):
        # The square read from the exponent side, one step wider in CI (2g+2 <= 30).
        forms = list(square_partitions(20))
        for p in forms:
            check_exponent_square(p)
        assert len(forms) == 1114

    def test_star_of_every_accepted_partition_up_to_20(self):
        # Every vector `reduce` accepts (no part above 2g) with at least three
        # distinct roots, so that the star is stable, GIT-unstable ones
        # included.  Of the 1,470 with 2g+2 <= 20, all but the eight
        # (2g, 1, 1), recorded by the strict xfails below, give the star's
        # stable model.
        checked = 0
        for m in range(6, 21, 2):
            g = (m - 2) // 2
            for p in partitions(m, 2 * g):
                if len(p) < 3 or p == (2 * g, 1, 1):
                    continue
                t = star_tree(p.count(1), *[n for n in p if n >= 2])
                red = reduce(ExponentVector(p))
                assert model_shape(stable_model(build_cover(t))) == reduced_shape(red), p
                checked += 1
        assert checked == 1462

    def test_unstable_curve_exactly_on_two_roots_and_2g_1_1(self):
        # Known defect, pinned: over every vector `reduce` accepts with
        # 2g+2 <= 20, the genus is always g, but the curve is unstable on
        # exactly the 44 two-root vectors and the eight (2g, 1, 1).  Once
        # `reduce` returns a stable curve or refuses, this set is empty.
        accepted, unstable = 0, set()
        for m in range(6, 21, 2):
            g = (m - 2) // 2
            for p in partitions(m, 2 * g):
                out = reduce(ExponentVector(p))
                assert out.arithmetic_genus == g, p
                accepted += 1
                if reduced_curve_unstable(out):
                    unstable.add(p)
        two_roots = {(a, m - a) for m in range(6, 21, 2) for a in range(m // 2, m - 1)}
        assert (accepted, len(two_roots)) == (1514, 44)
        assert unstable == two_roots | {(2 * g, 1, 1) for g in range(2, 10)}

    # Known defect, recorded as a FOUND line in CHANGES.md: on (2g, 1, 1)
    # `reduce` returns a genus-0 centre with only two special points, an
    # unstable curve, and `find_central` picks the weight-2g leaf of the star.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="reduce returns an unstable curve on (2g, 1, 1)")
    @pytest.mark.parametrize("g", range(2, 6))
    def test_star_of_2g_1_1(self, g):
        check_exponent_square((2 * g, 1, 1))
