"""Start-up contract: the package resolves its names on first use, and each CLI
command loads only the layers it runs.  Each check runs in a fresh interpreter,
since this test process has imported every module."""

import importlib
import json
import subprocess
import sys

import pytest

import hyperforms
from hyperforms import path_tree
from hyperforms.reduction import Tail
from conftest import checkout_env, run_python

# Every public name, by its defining submodule.
EXPORTS = {
    "census": ["Census", "enumerate_stable_trees"],
    "central": ["CentralResult", "contract_F_m", "f_g_exponents", "find_central"],
    "covers": ["CoverModel", "StableHyperellipticModel", "build_cover", "stable_model"],
    "forms": ["BinaryFormClass", "GitClass", "classify", "moduli_dimension"],
    "reduction": ["BlowupChain", "ExponentVector", "ReductionOutput", "blowup_chain", "reduce"],
    "strata": ["StratumLabel", "classify_stratum", "image_dimension"],
    "trees": ["CanonicalCode", "InvalidTreeError", "InvariantError", "StabilityReport",
              "UnstableTreeError", "WeightedTree", "canonical_code", "path_tree", "star_tree",
              "tree", "validate_stable"],
}
# Names that left the library: restated definitions, now test oracles in
# `conftest`, and one-caller helpers folded into their callers.
REMOVED = {"central": ["half_weight_edge"],
           "covers": ["branch_count", "edge_is_ramified", "connected"],
           "reduction": ["tail_genus", "attachment_points"],
           "strata": ["delta", "xi"],
           "trees": ["isomorphic", "decode", "bfs", "complementary_subtree_weights"]}
REMOVED_METHODS = [("BinaryFormClass", "roots"), ("BinaryFormClass", "from_multiplicities"),
                   ("StableHyperellipticModel", "special_points"), ("WeightedTree", "degree"),
                   ("WeightedTree", "from_json"), ("CoverModel", "is_connected"),
                   ("ReductionOutput", "component_count"), ("BinaryFormClass", "from_dict"),
                   ("WeightedTree", "side_weight"), ("WeightedTree", "weight"),
                   ("CentralResult", "is_semistable_edge"), ("BinaryFormClass", "semistable")]
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]

CENTRAL = {"trees", "forms", "central"}
STRATA = {"trees", "strata"}
TREE_DOC = path_tree(3, 5).to_json()
REDUCE_DOC = json.dumps({"exponents": [5, 1, 1, 1, 1, 1]})
# argv, stdin, and the layers the command loads besides `hyperforms` and `hyperforms.cli`
COMMANDS = [
    (["stability"], TREE_DOC, {"trees"}),
    (["central"], TREE_DOC, CENTRAL),
    (["contract"], TREE_DOC, CENTRAL),
    (["cover"], TREE_DOC, {"trees", "covers"}),
    (["stratum"], TREE_DOC, STRATA),
    (["map"], TREE_DOC, CENTRAL | STRATA),
    (["reduce", "--chain"], REDUCE_DOC, {"trees", "reduction"}),
    (["enumerate", "--m", "8"], "", STRATA | {"census"}),
]

# Runs `main` on argv and stdin, then prints its status and the package's loaded modules.
MAIN = """
import contextlib, io, json, sys
from hyperforms.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("hyperforms"))]))
"""


@pytest.mark.parametrize("argv, stdin, layers", COMMANDS, ids=[c[0][0] for c in COMMANDS])
def test_command_loads_only_its_layers(argv, stdin, layers):
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv], input=stdin, capture_output=True,
                          text=True, env=checkout_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    expected = sorted({"hyperforms", "hyperforms.cli"} | {f"hyperforms.{m}" for m in layers})
    assert json.loads(proc.stdout) == [0, expected]


def test_package_import_loads_no_submodule():
    proc = run_python(
        "import sys, hyperforms; print(sorted(m for m in sys.modules if m.startswith('hyperforms')))",
        "-S",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['hyperforms']"


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_submodule_object(module, name):
    assert getattr(hyperforms, name) is getattr(importlib.import_module(f"hyperforms.{module}"), name)
    assert name in hyperforms.__all__
    assert name in dir(hyperforms)


def test_all_lists_exactly_the_exports():
    assert sorted(hyperforms.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in REMOVED.items() for n in names],
                         ids=[n for names in REMOVED.values() for n in names])
def test_removed_name_is_gone(module, name):
    assert name not in hyperforms.__all__
    assert name not in dir(hyperforms)
    with pytest.raises(AttributeError, match=f"'{name}'"):
        getattr(hyperforms, name)
    assert not hasattr(importlib.import_module(f"hyperforms.{module}"), name)


@pytest.mark.parametrize("record, name", REMOVED_METHODS, ids=[n for _, n in REMOVED_METHODS])
def test_removed_method_is_gone(record, name):
    assert not hasattr(getattr(hyperforms, record), name)


def test_tail_is_a_plain_record():
    # `ReductionOutput.to_dict` writes each tail's `_asdict()`.
    assert not hasattr(Tail, "to_dict")


def test_star_import_binds_every_export():
    proc = run_python(
        "from hyperforms import *\n"
        f"missing = [n for n in {[name for _, name in NAMES]!r} if n not in globals()]\n"
        "print(missing)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        hyperforms.no_such_name
