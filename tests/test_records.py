"""Result records: immutable named tuples, validated on every construction path."""

import pytest

from hyperforms import (
    BinaryFormClass,
    CentralResult,
    ExponentVector,
    InvalidTreeError,
    WeightedTree,
    blowup_chain,
    build_cover,
    canonical_code,
    classify_stratum,
    contract_F_m,
    enumerate_stable_trees,
    f_g_exponents,
    find_central,
    image_dimension,
    path_tree,
    reduce,
    stable_model,
    tree,
    validate_stable,
)
from hyperforms.trees import peel
from conftest import cyclic_garbage, partitions, random_stable_tree, run_python, special_points


def sample_records() -> dict:
    """One record of every record type the package builds."""
    t = path_tree(3, 5)
    cover = build_cover(t)
    out = reduce(ExponentVector((3, 1, 1, 1, 1, 1)))
    records = [
        t, validate_stable(t), find_central(t), contract_F_m(t), classify_stratum(t),
        cover, cover.components[0], cover.nodes[0], stable_model(cover),
        ExponentVector((3, 1, 1, 1, 1, 1)), out, out.tails[0], blowup_chain(5),
        enumerate_stable_trees(6),
    ]
    return {type(r).__name__: r for r in records}


RECORDS = sample_records()


def test_every_record_type_sampled():
    assert len(RECORDS) == 14


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestImmutable:
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record = RECORDS[name]
        before = tuple(record)
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert tuple(record) == before

    def test_no_new_attributes(self, name):
        with pytest.raises(AttributeError):
            RECORDS[name].extra = 1


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"WeightedTree"}))
def test_records_hold_only_their_fields(name):
    """Only `WeightedTree` and `CoverModel` keep tables, and so an instance
    `__dict__`; a cover keeps its stable model and nothing else."""
    record = RECORDS[name]
    if name == "CoverModel":
        assert set(vars(record)) == {"_model"}
    else:
        assert not hasattr(record, "__dict__")


class TestCachedTables:
    @pytest.mark.parametrize("name", ["m", "_rooted", "_stability"])
    @pytest.mark.parametrize("computed", [True, False], ids=["computed", "fresh"])
    def test_tree_tables_cannot_be_overwritten(self, name, computed):
        t = path_tree(3, 5)
        if computed:
            getattr(t, name)
        with pytest.raises(AttributeError):
            setattr(t, name, 99)
        with pytest.raises(AttributeError):
            delattr(t, name)
        assert t.m == 8 and t._rooted == peel(t.vertices, t.edges) and t._stability == (True, ())

    def test_model_table_cannot_be_overwritten(self):
        model = stable_model(build_cover(path_tree(3, 5)))
        points = [special_points(model, cid) for cid, _ in model.components]
        with pytest.raises(AttributeError):
            model._special = None
        assert [special_points(model, cid) for cid, _ in model.components] == points

    def test_cover_table_cannot_be_overwritten(self):
        cover = build_cover(path_tree(3, 5))
        model = stable_model(cover)
        for name in ("_model", "extra"):
            with pytest.raises(AttributeError):
                setattr(cover, name, None)
            with pytest.raises(AttributeError):
                delattr(cover, name)
        assert stable_model(cover) is model

    def test_tables_still_cached(self):
        t = path_tree(3, 5)
        assert t._stability is t._stability
        assert "_stability" in t.__dict__

    @pytest.mark.parametrize("name", ["weight_of", "adjacency", "neighbors"])
    def test_checked_tree_keeps_no_id_keyed_table(self, name):
        t = WeightedTree.from_dict(path_tree(3, 5).to_dict())
        for layer in (validate_stable, find_central, contract_F_m, build_cover, canonical_code):
            layer(t)
        assert not hasattr(t, name)


REJECTED = [
    (lambda: path_tree(3, 5)._replace(edges=()), InvalidTreeError),
    (lambda: path_tree(3, 5)._replace(vertices=((0, 3), (1, 2.5))), InvalidTreeError),
    (lambda: WeightedTree._make((((0, 1), (1, 2)), ((0, 0),))), InvalidTreeError),
    (lambda: BinaryFormClass._make(((1,), True)), ValueError),
    (lambda: BinaryFormClass((2, 1))._replace(multiplicities=(0,)), ValueError),
    (lambda: BinaryFormClass._make(((1,), 1)), ValueError),
    (lambda: CentralResult._make((None, None)), ValueError),
    (lambda: CentralResult(vertex=0)._replace(edge=(0, 1)), ValueError),
    (lambda: ExponentVector._make(((1, 1), 0)), ValueError),
    (lambda: ExponentVector((3, 1, 1, 1))._replace(at_infinity=-1), ValueError),
    (lambda: ExponentVector._make(((3, 1.0, 1, 1), 0)), ValueError),
]


class TestConstructionPaths:
    @pytest.mark.parametrize("build, error", REJECTED, ids=range(len(REJECTED)))
    def test_replace_and_make_reject_what_the_constructor_rejects(self, build, error):
        with pytest.raises(error):
            build()

    def test_replace_and_make_normalise_like_the_constructor(self):
        t = path_tree(3, 5)
        assert t._replace(edges=[(1, 0)]) == t
        assert WeightedTree._make(([(1, 5), (0, 3)], [(1, 0)])) == t
        assert BinaryFormClass._make(([1, 3, 2], False)).multiplicities == (3, 2, 1)
        assert ExponentVector._make(([3, 1, 1, 1], 0)).exponents == (3, 1, 1, 1)

    def test_census_make_keeps_its_fields(self):
        census = RECORDS["Census"]
        assert len(census) == 7
        assert census._make(census) == census
        assert census._replace(m=6) == census


class TestTupleBehaviour:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_fields_by_name_and_position(self, name):
        record = RECORDS[name]
        fields = tuple(getattr(record, f) for f in record._fields)
        assert tuple(record) == fields and record == fields
        assert record._asdict() == dict(zip(record._fields, fields))
        assert hash(record) == hash(fields)

    def test_equality_within_a_type(self):
        assert path_tree(3, 5) == tree({1: 5, 0: 3}, [(1, 0)])
        assert hash(path_tree(3, 5)) == hash(tree({1: 5, 0: 3}, [(1, 0)]))
        assert path_tree(3, 5) != path_tree(5, 3)

    def test_repr_names_the_fields(self):
        assert repr(path_tree(3, 5)) == "WeightedTree(vertices=((0, 3), (1, 5)), edges=((0, 1),))"
        assert repr(find_central(path_tree(3, 5))) == "CentralResult(vertex=1, edge=None)"


class TestNoReferenceCycles:
    """The library's layers create no reference cycles, so a caller may run
    them with the cyclic collector off and still free everything."""

    @pytest.mark.parametrize("m", range(3, 13))
    def test_census(self, m):
        assert cyclic_garbage(lambda: enumerate_stable_trees(m, bound=12).to_dict()) == (0, {})

    def test_tree_cover_model_and_code(self):
        doc = random_stable_tree(seed=1, n=1000).to_dict()

        def pipeline():
            t = WeightedTree.from_dict(doc)
            cover = build_cover(t)
            model = stable_model(cover)
            cover.to_dict(), model.to_dict(), canonical_code(t)

        assert cyclic_garbage(pipeline) == (0, {})

    @pytest.mark.parametrize("m", range(3, 13))
    def test_tree_layers_over_the_census(self, m):
        trees = enumerate_stable_trees(m, bound=12).trees

        def layers():
            for t in trees:
                validate_stable(t), find_central(t).to_dict(), contract_F_m(t).to_dict()
                if m % 2 == 0:
                    label = classify_stratum(t)
                    label.to_dict(), image_dimension(label, (m - 2) // 2), f_g_exponents(t).to_dict()

        assert cyclic_garbage(layers) == (0, {})

    @pytest.mark.parametrize("m", range(6, 13, 2))
    def test_reduce_and_chains_over_every_exponent_vector(self, m):
        # every accepted vector up to root order: no exponent above 2g = m - 2,
        # the last root either finite or at infinity
        vectors = [v for p in partitions(m, m - 2)
                   for v in (ExponentVector(p), ExponentVector(p[:-1], at_infinity=p[-1]))]

        def layers():
            for v in vectors:
                reduce(v).to_dict()
                [blowup_chain(n).to_dict() for n in v.all_multiplicities() if n >= 2]

        assert cyclic_garbage(layers) == (0, {})


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Start-up contract: the CLI imports neither module.  Checked in a fresh
    interpreter without `site`, since pytest imports both."""
    proc = run_python(
        "import sys, hyperforms.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        "-S",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
