import pytest
from hypothesis import given, strategies as st

from hyperforms import BinaryFormClass, GitClass, classify, moduli_dimension


class TestBinaryFormClass:
    def test_multiplicities_sorted(self):
        f = BinaryFormClass([1, 3, 2])
        assert f.multiplicities == (3, 2, 1)
        assert f.degree == 6

    def test_equality_is_multiset_equality(self):
        assert BinaryFormClass([2, 1, 3]) == BinaryFormClass([3, 2, 1])
        assert BinaryFormClass([2, 2]) != BinaryFormClass([3, 1])

    def test_semistable_point_is_single_value(self):
        assert BinaryFormClass(semistable_point=True) == BinaryFormClass(semistable_point=True)
        assert BinaryFormClass(semistable_point=True) != BinaryFormClass([3, 3])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BinaryFormClass([2, 0])

    def test_rejects_semistable_point_with_roots(self):
        with pytest.raises(ValueError, match="^the semistable point carries no roots$"):
            BinaryFormClass((3, 3), semistable_point=True)

    def test_rejects_form_without_roots(self):
        with pytest.raises(ValueError, match="^a form needs at least one root$"):
            BinaryFormClass(())

    @pytest.mark.parametrize(
        "doc",
        [
            {"semistable_point": "false"},
            {"semistable_point": 1},
            {"semistable_point": "no", "multiplicities": [3, 3]},
        ],
        ids=["string-false", "int-1", "string-no-with-roots"],
    )
    def test_rejects_non_boolean_semistable_flag(self, doc):
        with pytest.raises(ValueError, match="^semistable_point must be a boolean, got "):
            BinaryFormClass(**doc)

    def test_from_dict_rejects_semistable_point_with_roots(self):
        # A form document is read by unpacking it into the constructor.
        with pytest.raises(ValueError, match="^the semistable point carries no roots$"):
            BinaryFormClass(**{"semistable_point": True, "multiplicities": [3, 3]})

    @pytest.mark.parametrize("bad",[2.9, True, "3", None, 3.0])
    def test_rejects_non_integer(self, bad):
        with pytest.raises(ValueError, match="^multiplicities must be integers, got "):
            BinaryFormClass([2, bad, 1])
        with pytest.raises(ValueError, match="^multiplicities must be integers, got "):
            BinaryFormClass(multiplicities=(bad, 3))

    def test_json_round_trip(self):
        # `to_dict`'s keys are the constructor's parameters.
        f = BinaryFormClass([3, 1, 1, 1])
        assert BinaryFormClass(**f.to_dict()) == f
        s = BinaryFormClass(semistable_point=True)
        assert BinaryFormClass(**s.to_dict()) == s


class TestClassify:
    def test_simple_roots_stable(self):
        assert classify(BinaryFormClass([1] * 6)) == GitClass.STABLE

    def test_half_degree_strictly_semistable(self):
        assert classify(BinaryFormClass([3, 3])) == GitClass.STRICTLY_SEMISTABLE

    def test_above_half_unstable(self):
        # odd degree: 5 > 7/2, and no strictly semistable forms exist
        assert classify(BinaryFormClass([5, 1, 1])) == GitClass.UNSTABLE

    def test_semistable_point_convention(self):
        assert classify(BinaryFormClass(semistable_point=True)) == GitClass.STRICTLY_SEMISTABLE

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    def test_invariant_under_permutation(self, mults):
        f1 = BinaryFormClass(mults)
        f2 = BinaryFormClass(list(reversed(mults)))
        assert classify(f1) == classify(f2)

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    def test_odd_degree_never_strictly_semistable(self, mults):
        f = BinaryFormClass(mults)
        if f.degree % 2:
            assert classify(f) != GitClass.STRICTLY_SEMISTABLE


class TestModuliDimension:
    @pytest.mark.parametrize("m,expected", [(3, 0), (6, 3), (8, 5)])
    def test_values(self, m, expected):
        assert moduli_dimension(m) == expected

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            moduli_dimension(2)

    @pytest.mark.parametrize("m", [3.5, 4.0, True], ids=["fraction", "whole-float", "bool"])
    def test_rejects_a_degree_that_is_not_an_integer(self, m):
        with pytest.raises(ValueError, match=f"^degree must be an integer, got {m!r}$"):
            moduli_dimension(m)
