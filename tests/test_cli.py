import argparse
import contextlib
import gc
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import hyperforms.census as census_mod
import hyperforms.trees as trees_mod
from hyperforms import (
    WeightedTree, build_cover, canonical_code, covers, enumerate_stable_trees, path_tree, stable_model,
)
from hyperforms.cli import COMMANDS, build_parser, main
from hyperforms.trees import MAX_LISTED, InvariantError, check
from conftest import checkout_env, over_long_integer, random_stable_tree, tree_from_json


@pytest.fixture
def run(capsys, monkeypatch, tmp_path):
    def _run(argv, stdin=None):
        if stdin is not None:
            path = tmp_path / "input.json"
            path.write_text(stdin)
            argv = argv + ["--input", str(path)]
        status = main(argv)
        return status, capsys.readouterr().out

    return _run


def tree_doc(*weights, edges=None):
    if edges is None:
        edges = [[i, i + 1] for i in range(len(weights) - 1)]
    return json.dumps(
        {
            "vertices": [{"id": i, "weight": w} for i, w in enumerate(weights)],
            "edges": edges,
        }
    )


# Exact stdout of every command and format on small inputs.
GOLDEN_TREES = {
    (3, 5): {
        ("stability",): '{"stable": true, "violations": []}\n',
        ("central",): '{"kind": "central_vertex", "vertex": 1}\n',
        ("contract",): '{"multiplicities": [3, 1, 1, 1, 1, 1]}\n',
        ("cover",): (
            '{"components": [{"base_vertex": 0, "branch_count": 4, "genus": 1, "id": 0, '
            '"sheet": null}, {"base_vertex": 1, "branch_count": 6, "genus": 2, "id": 1, '
            '"sheet": null}], "g": 3, "nodes": [{"components": [0, 1], "edge": [0, 1], '
            '"kind": "ramified"}], "stable_model": {"components": [{"genus": 1, '
            '"id": 0, "special_points": 1}, {"genus": 2, "id": 1, '
            '"special_points": 1}], "g": 3, "nodes": [[0, 1]]}}\n'
        ),
        ("cover", "--format", "dot"): (
            'graph cover {\n'
            '  c0 [label="over 0 g=1"];\n'
            '  c1 [label="over 1 g=2"];\n'
            '  c0 -- c1 [style=bold];\n'
            '}\n'
        ),
        ("stratum",): (
            '{"image_dimension": 3, "label": {"index": 1, "kind": "delta"}, '
            '"name": "delta_1"}\n'
        ),
        ("map",): (
            '{"image_dimension": 3, "label": "delta_1", '
            '"multiplicities": [3, 1, 1, 1, 1, 1]}\n'
        ),
    },
    (2, 1, 5): {
        ("stability",): '{"stable": true, "violations": []}\n',
        ("central",): '{"kind": "central_vertex", "vertex": 2}\n',
        ("contract",): '{"multiplicities": [3, 1, 1, 1, 1, 1]}\n',
        ("cover",): (
            '{"components": [{"base_vertex": 0, "branch_count": 2, "genus": 0, "id": 0, '
            '"sheet": null}, {"base_vertex": 1, "branch_count": 2, "genus": 0, "id": 1, '
            '"sheet": null}, {"base_vertex": 2, "branch_count": 6, "genus": 2, "id": 2, '
            '"sheet": null}], "g": 3, "nodes": [{"components": [0, 1], "edge": [0, 1], '
            '"kind": "split"}, {"components": [0, 1], "edge": [0, 1], '
            '"kind": "split"}, {"components": [1, 2], "edge": [1, 2], '
            '"kind": "ramified"}], "stable_model": {"components": [{"genus": 0, '
            '"id": 1, "special_points": 3}, {"genus": 2, "id": 2, '
            '"special_points": 1}], "g": 3, "nodes": [[1, 1], [1, 2]]}}\n'
        ),
        ("cover", "--format", "dot"): (
            'graph cover {\n'
            '  c0 [label="over 0 g=0"];\n'
            '  c1 [label="over 1 g=0"];\n'
            '  c2 [label="over 2 g=2"];\n'
            '  c0 -- c1;\n'
            '  c0 -- c1;\n'
            '  c1 -- c2 [style=bold];\n'
            '}\n'
        ),
        ("stratum",): (
            '{"image_dimension": null, "label": {"codimension": 2, "kind": "deeper"}, '
            '"name": "deeper_codim_2"}\n'
        ),
        ("map",): (
            '{"image_dimension": null, "label": "deeper_codim_2", '
            '"multiplicities": [3, 1, 1, 1, 1, 1]}\n'
        ),
    },
    (4, 4): {
        ("stability",): '{"stable": true, "violations": []}\n',
        ("central",): '{"edge": [0, 1], "kind": "semistable_edge"}\n',
        ("contract",): '{"semistable_point": true}\n',
        ("cover",): (
            '{"components": [{"base_vertex": 0, "branch_count": 4, "genus": 1, "id": 0, '
            '"sheet": null}, {"base_vertex": 1, "branch_count": 4, "genus": 1, "id": 1, '
            '"sheet": null}], "g": 3, "nodes": [{"components": [0, 1], "edge": [0, 1], '
            '"kind": "split"}, {"components": [0, 1], "edge": [0, 1], '
            '"kind": "split"}], "stable_model": {"components": [{"genus": 1, "id": 0, '
            '"special_points": 2}, {"genus": 1, "id": 1, "special_points": 2}], "g": 3, '
            '"nodes": [[0, 1], [0, 1]]}}\n'
        ),
        ("cover", "--format", "dot"): (
            'graph cover {\n'
            '  c0 [label="over 0 g=1"];\n'
            '  c1 [label="over 1 g=1"];\n'
            '  c0 -- c1;\n'
            '  c0 -- c1;\n'
            '}\n'
        ),
        ("stratum",): (
            '{"image_dimension": 0, "label": {"kind": "semistable_image", '
            '"underlying": {"index": 1, "kind": "xi"}}, "name": "semistable(xi_1)"}\n'
        ),
        ("map",): (
            '{"image_dimension": 0, "label": "semistable(xi_1)", '
            '"semistable_point": true}\n'
        ),
    },
}
GOLDEN_REDUCE = {
    ("reduce",): (
        '{"arithmetic_genus": 4, "central": {"branch_points": 6, "genus": 2, '
        '"split": false}, "extra_nodes": 0, "g": 4, "git_unstable_input": false, '
        '"tails": [{"attachment_points": 1, "equation": "y^2 = z^5 - 1", "exponent": 5, '
        '"genus": 2, "source_index": 0}]}\n'
    ),
    ("reduce", "--chain"): (
        '{"arithmetic_genus": 4, "central": {"branch_points": 6, "genus": 2, '
        '"split": false}, "chains": [{"multiplicities": [2, 4, 5, 10], "n": 5}], '
        '"extra_nodes": 0, "g": 4, "git_unstable_input": false, '
        '"tails": [{"attachment_points": 1, "equation": "y^2 = z^5 - 1", "exponent": 5, '
        '"genus": 2, "source_index": 0}]}\n'
    ),
}
GOLDEN_ENUMERATE = {
    "json": (
        '{"classes": [{"edges": [[0, 1], [0, 2]], "m": 5, "vertices": [{"id": 0, '
        '"weight": 1}, {"id": 1, "weight": 2}, {"id": 2, '
        '"weight": 2}]}, {"edges": [[0, 1]], "m": 5, "vertices": [{"id": 0, '
        '"weight": 3}, {"id": 1, "weight": 2}]}, {"edges": [], "m": 5, '
        '"vertices": [{"id": 0, "weight": 5}]}], "count": 3, "m": 5, '
        '"stratum_counts": {}}\n'
    ),
    "dot": (
        'graph tree {\n'
        '  v0 [label="0:1"];\n'
        '  v1 [label="1:2"];\n'
        '  v2 [label="2:2"];\n'
        '  v0 -- v1;\n'
        '  v0 -- v2;\n'
        '}\n'
        'graph tree {\n'
        '  v0 [label="0:3"];\n'
        '  v1 [label="1:2"];\n'
        '  v0 -- v1;\n'
        '}\n'
        'graph tree {\n'
        '  v0 [label="0:5"];\n'
        '}\n'
    ),
    "count": "3\n",
}


class TestGolden:
    @pytest.mark.parametrize(
        "weights, argv", [(w, argv) for w, outs in GOLDEN_TREES.items() for argv in outs]
    )
    def test_tree_commands(self, run, weights, argv):
        doc = path_tree(*weights).to_json()
        assert run(list(argv), stdin=doc) == (0, GOLDEN_TREES[weights][argv])

    @pytest.mark.parametrize("argv", list(GOLDEN_REDUCE))
    def test_reduce(self, run, argv):
        doc = json.dumps({"at_infinity": 0, "exponents": [5, 1, 1, 1, 1, 1]})
        assert run(list(argv), stdin=doc) == (0, GOLDEN_REDUCE[argv])

    @pytest.mark.parametrize("fmt", list(GOLDEN_ENUMERATE))
    def test_enumerate(self, run, fmt):
        assert run(["enumerate", "--m", "5", "--format", fmt]) == (0, GOLDEN_ENUMERATE[fmt])

    def test_cover_documents_digest(self):
        # sha256 of the `cover` JSON, as `main` builds and emits it, of every even class
        # with m <= 12 and eight random trees of 300 vertices: any change to a byte of
        # a cover or stable-model document changes it
        cover, args = COMMANDS["cover"][2], argparse.Namespace(format="json")
        trees = [t for m in range(4, 13, 2) for t in enumerate_stable_trees(m, bound=12).trees]
        trees += [random_stable_tree(seed, n=300, extra=seed) for seed in range(8)]
        digest = hashlib.sha256()
        for t in trees:
            digest.update(json.dumps(cover(t, args), sort_keys=True).encode() + b"\n")
        assert len(trees) == 1589
        assert digest.hexdigest() == "232088348c7af57a3dbe516379f47a72dd72f0658844ea43ded5a041ec56bd9f"


class TestParserSurface:
    # option: (default, required, choices, type, nargs)
    TREE = {"--input": ("-", False, None, None, None)}
    EXPECTED = {
        "stability": TREE,
        "central": TREE,
        "contract": TREE,
        "cover": {**TREE, "--format": ("json", False, ("json", "dot"), None, None)},
        "reduce": {**TREE, "--chain": (False, False, None, None, 0)},
        "stratum": TREE,
        "map": TREE,
        "enumerate": {
            "--m": (None, True, None, int, None),
            "--bound": (10, False, None, int, None),
            "--format": ("json", False, ("json", "dot", "count"), None, None),
        },
    }

    def test_each_subcommand_takes_exactly_its_options(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: {
                "/".join(a.option_strings): (
                    a.default, a.required, a.choices and tuple(a.choices), a.type, a.nargs
                )
                for a in p._actions
                if a.dest != "help"
            }
            for name, p in sub.choices.items()
        }
        assert list(surface) == list(self.EXPECTED)
        assert surface == self.EXPECTED

    def test_two_main_calls_build_one_parser(self, run):
        build_parser.cache_clear()
        assert run(["enumerate", "--m", "8", "--format", "count"]) == (0, "32\n")
        assert run(["stability"], stdin=tree_doc(3, 3))[0] == 0
        assert build_parser.cache_info().misses == 1

    def test_reused_parser_keeps_no_options(self, run):
        # `cover --format dot`, then plain `cover`: the second call gets the default JSON.
        assert run(["cover", "--format", "dot"], stdin=tree_doc(3, 3))[1].startswith("graph ")
        assert "stable_model" in json.loads(run(["cover"], stdin=tree_doc(3, 3))[1])


class TestSubcommands:
    def test_stability(self, run):
        status, out = run(["stability"], stdin=tree_doc(1, 5))
        assert status == 0
        doc = json.loads(out)
        assert doc == {
            "stable": False,
            "violations": [{"vertex": 0, "weight": 1, "degree": 1}],
        }

    def test_central(self, run):
        status, out = run(["central"], stdin=tree_doc(2, 1, 2))
        assert status == 0
        assert json.loads(out) == {"kind": "central_vertex", "vertex": 1}

    def test_contract(self, run):
        status, out = run(["contract"], stdin=tree_doc(4, 2))
        assert status == 0
        assert json.loads(out) == {"multiplicities": [2, 1, 1, 1, 1]}

    def test_contract_semistable(self, run):
        status, out = run(["contract"], stdin=tree_doc(2, 2))
        assert status == 0
        assert json.loads(out) == {"semistable_point": True}

    def test_cover_json(self, run):
        status, out = run(["cover"], stdin=tree_doc(3, 3))
        assert status == 0
        doc = json.loads(out)
        assert doc["g"] == 2
        assert sorted(c["genus"] for c in doc["components"]) == [1, 1]
        assert [n["kind"] for n in doc["nodes"]] == ["ramified"]
        assert doc["stable_model"]["g"] == 2

    def test_cover_dot(self, run):
        status, out = run(["cover", "--format", "dot"], stdin=tree_doc(3, 3))
        assert status == 0
        assert out.startswith("graph cover {")

    def test_reduce(self, run):
        status, out = run(
            ["reduce"], stdin=json.dumps({"exponents": [3, 1, 1, 1]})
        )
        assert status == 0
        doc = json.loads(out)
        (tail,) = doc["tails"]
        assert tail["equation"] == "y^2 = z^3 - 1"
        assert doc["arithmetic_genus"] == 2

    def test_reduce_chain_flag(self, run):
        status, out = run(
            ["reduce", "--chain"],
            stdin=json.dumps({"at_infinity": 0, "exponents": [5, 1, 1, 1, 1, 1]}),
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["chains"] == [{"n": 5, "multiplicities": [2, 4, 5, 10]}]

    def test_stratum(self, run):
        status, out = run(["stratum"], stdin=tree_doc(3, 5))
        assert status == 0
        doc = json.loads(out)
        assert doc["name"] == "delta_1"
        assert doc["image_dimension"] == 3

    def test_map(self, run):
        status, out = run(["map"], stdin=tree_doc(2, 6))
        assert status == 0
        doc = json.loads(out)
        assert doc["label"] == "xi_0"
        assert doc["multiplicities"] == [2, 1, 1, 1, 1, 1, 1]
        assert doc["image_dimension"] == 4

    def test_stratum_deeper_has_codimension_and_no_dimension(self, run):
        status, out = run(["stratum"], stdin=tree_doc(2, 1, 5))
        assert status == 0
        assert json.loads(out) == {
            "image_dimension": None,
            "label": {"codimension": 2, "kind": "deeper"},
            "name": "deeper_codim_2",
        }

    def test_map_deeper_has_no_dimension(self, run):
        status, out = run(["map"], stdin=tree_doc(2, 1, 5))
        assert status == 0
        assert json.loads(out) == {
            "image_dimension": None,
            "label": "deeper_codim_2",
            "multiplicities": [3, 1, 1, 1, 1, 1],
        }

    # g = 1: no dimension formula below g = 2, so both print null.
    def test_map_genus_one_has_no_dimension(self, run):
        status, out = run(["map"], stdin=tree_doc(4))
        assert status == 0
        assert json.loads(out) == {
            "image_dimension": None,
            "label": "interior",
            "multiplicities": [1, 1, 1, 1],
        }

    def test_stratum_genus_one_has_no_dimension(self, run):
        status, out = run(["stratum"], stdin=tree_doc(2, 2))
        assert status == 0
        assert json.loads(out) == {
            "image_dimension": None,
            "label": {"kind": "semistable_image", "underlying": {"index": 0, "kind": "xi"}},
            "name": "semistable(xi_0)",
        }

    def test_stratum_semistable_image_names_underlying(self, run):
        status, out = run(["stratum"], stdin=tree_doc(4, 4))
        assert status == 0
        assert json.loads(out) == {
            "image_dimension": 0,
            "label": {
                "kind": "semistable_image",
                "underlying": {"index": 1, "kind": "xi"},
            },
            "name": "semistable(xi_1)",
        }

    def test_central_semistable_edge(self, run):
        status, out = run(["central"], stdin=tree_doc(2, 2))
        assert status == 0
        assert json.loads(out) == {"edge": [0, 1], "kind": "semistable_edge"}

    def test_enumerate_count(self, run, capsys):
        status, out = run(["enumerate", "--m", "4", "--format", "count"])
        assert status == 0
        assert out.strip() == "2"

    def test_enumerate_json_round_trip(self, run):
        status, out = run(["enumerate", "--m", "5"])
        assert status == 0
        doc = json.loads(out)
        assert doc["count"] == 3
        codes = {
            canonical_code(WeightedTree.from_dict(d)) for d in doc["classes"]
        }
        assert len(codes) == 3

    def test_enumerate_dot(self, run):
        status, out = run(["enumerate", "--m", "4", "--format", "dot"])
        assert status == 0
        assert out.count("graph tree {") == 2


class TestErrors:
    def test_schema_violation_exits_2(self, run):
        status, out = run(["central"], stdin='{"vertices": "nope"}')
        assert status == 2
        assert "error" in json.loads(out)

    def test_precondition_failure_exits_2(self, run):
        status, out = run(["central"], stdin=tree_doc(1, 5))
        assert status == 2
        assert "not stable" in json.loads(out)["error"]

    @pytest.mark.parametrize("weight", ["null", "2.9", "true", '"3"'])
    def test_non_integer_weight_exits_2(self, run, weight):
        doc = '{"vertices": [{"id": 0, "weight": %s}, {"id": 1, "weight": 5}], "edges": [[0, 1]]}'
        status, out = run(["map"], stdin=doc % weight)
        assert status == 2
        assert "must be integers" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "weights, m",
        [((4, 4), 8.0), ((4, 4), '"8"'), ((4, 4), "null"), ((1,), "true")],
    )
    def test_non_integer_declared_m_exits_2(self, run, weights, m):
        doc = tree_doc(*weights)[:-1] + ', "m": %s}' % m
        status, out = run(["stability"], stdin=doc)
        assert status == 2
        assert "declared m must be an integer" in json.loads(out)["error"]

    def test_wrong_declared_m_exits_2(self, run):
        status, out = run(["stability"], stdin=tree_doc(4, 4)[:-1] + ', "m": 9}')
        assert status == 2
        assert json.loads(out) == {"error": "declared m=9 but weights sum to 8"}

    @pytest.mark.parametrize(
        "doc",
        [
            {"exponents": [3.5, 1, 1, 1]},
            {"exponents": ["3", 1, 1, 1]},
            {"exponents": [3, 1, 1], "at_infinity": True},
            {"exponents": [3, 3], "at_infinity": None},
        ],
    )
    def test_non_integer_exponent_exits_2(self, run, doc):
        status, out = run(["reduce"], stdin=json.dumps(doc))
        assert status == 2
        if "at_infinity" in doc:
            error = f"field 'at_infinity' must be an integer, got {doc['at_infinity']!r}"
        else:
            error = f"exponents must be integers, got {doc['exponents'][0]!r}"
        assert json.loads(out) == {"error": error}

    @pytest.mark.parametrize("command", ["central", "reduce"])
    def test_invalid_json_exits_2(self, run, command):
        status, out = run([command], stdin="not json")
        assert status == 2
        assert json.loads(out) == {
            "error": "invalid JSON: Expecting value: line 1 column 1 (char 0)"
        }

    @pytest.mark.parametrize("command", ["central", "reduce"])
    def test_too_deeply_nested_json_exits_2(self, run, command):
        status, out = run([command], stdin="[" * 100_000 + "]" * 100_000)
        assert status == 2
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error.startswith("invalid JSON: ") and "recursion" in error

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("central", '{"vertices": [{"id": %s, "weight": 4}], "edges": []}'),
            ("reduce", '{"exponents": [3, 1, 1, 1, 1, 1], "at_infinity": %s}'),
        ],
        ids=["central", "reduce"],
    )
    def test_over_long_integer_is_invalid_json(self, run, command, doc):
        status, out = run([command], stdin=doc % over_long_integer())
        assert status == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"].startswith("invalid JSON: ")

    @pytest.mark.parametrize(
        "command, error",
        [
            ("central", "input must be a JSON object"),
            ("reduce", "input must be a JSON object"),
        ],
    )
    def test_json_array_exits_2(self, run, command, error):
        status, out = run([command], stdin="[1, 2]")
        assert status == 2
        assert json.loads(out) == {"error": error}

    @pytest.mark.parametrize(
        "command, doc, error",
        [
            ("central", {"vertices": "nope"}, "field 'vertices' must be an array"),
            ("central", {"edges": []}, "missing field 'vertices'"),
            ("map", {"vertices": [{"id": 0, "weight": 4}], "edges": {}},
             "field 'edges' must be an array"),
            ("stability", {"vertices": [[0, 4]]},
             "each vertex must be an object with an id and a weight"),
            ("cover", {"vertices": [{"id": 0}]},
             "each vertex must be an object with an id and a weight"),
            ("contract", {"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}],
                          "edges": [[0, 1, 2]]}, "each edge must be an array of two vertex ids"),
            ("stratum", {"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}],
                         "edges": [5]}, "each edge must be an array of two vertex ids"),
            ("reduce", {"nope": 1}, "missing field 'exponents'"),
            ("reduce", {"exponents": 5}, "field 'exponents' must be an array"),
            ("reduce", {"exponents": [3, 1]}, "exponents must sum to 2g+2 with g >= 2, got sum 4"),
            ("stability", {"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}],
                           "edges": [{"a": 0, "b": 1}]}, "each edge must be an array of two vertex ids"),
        ],
    )
    def test_malformed_document_names_the_field(self, run, command, doc, error):
        status, out = run([command], stdin=json.dumps(doc))
        assert status == 2
        assert json.loads(out) == {"error": error}

    @pytest.mark.parametrize("command", ["central", "reduce"])
    def test_missing_input_file_exits_2(self, run, tmp_path, command):
        missing = tmp_path / "missing.json"
        status, out = run([command, "--input", str(missing)])
        assert status == 2
        assert json.loads(out) == {
            "error": f"cannot read input: [Errno 2] No such file or directory: '{missing}'"
        }

    @pytest.mark.parametrize("command", ["central", "reduce"])
    def test_undecodable_input_file_exits_2(self, run, tmp_path, command):
        path = tmp_path / "utf16.json"
        path.write_bytes("{}".encode("utf-16"))  # starts with the bytes ff fe
        status, out = run([command, "--input", str(path)])
        assert status == 2
        assert json.loads(out) == {
            "error": "cannot read input: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte"
        }

    @pytest.mark.parametrize("command, data, error", [
        ("reduce", b'{"exponents": [3, 1, 1, 1, 1, 1], "x": "\xe9"}',
         "byte 0xe9 in position 40: invalid continuation byte"),
        ("central", b"\xff\xfe{}", "byte 0xff in position 0: invalid start byte"),
    ], ids=["latin-1-byte", "utf-16-bom"])
    def test_undecodable_stdin_reads_as_the_same_file(self, run, tmp_path, command, data, error):
        """stdin is decoded as UTF-8 whatever the interpreter's stdin encoding."""
        proc = subprocess.run(
            [sys.executable, "-m", "hyperforms.cli", command],
            input=data,
            capture_output=True,
            env={**checkout_env(), "PYTHONIOENCODING": "utf-8:surrogateescape"},
            timeout=60,
        )
        expected = {"error": f"cannot read input: 'utf-8' codec can't decode {error}"}
        assert (proc.returncode, json.loads(proc.stdout)) == (2, expected)
        path = tmp_path / "input.json"
        path.write_bytes(data)
        status, out = run([command, "--input", str(path)])
        assert (status, json.loads(out)) == (2, expected)

    def test_text_stream_as_stdin(self, capsys, monkeypatch):
        """In-process callers may set a text stream, with no `buffer`, as stdin."""
        monkeypatch.setattr(sys, "stdin", io.StringIO(tree_doc(3, 5)))
        assert main(["central"]) == 0
        assert capsys.readouterr().out == GOLDEN_TREES[(3, 5)][("central",)]

    def test_no_stdin_exits_2(self, capsys, monkeypatch):
        """An interpreter started with fd 0 closed has `sys.stdin` set to None."""
        monkeypatch.setattr(sys, "stdin", None)
        assert main(["central"]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": "cannot read input: stdin is closed"}

    def test_closed_stdin_exits_2(self):
        code = ("import os, sys; os.close(0); "
                "os.execv(sys.executable, [sys.executable, '-m', 'hyperforms.cli', 'central'])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=checkout_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (2, "")
        assert proc.stdout == '{"error": "cannot read input: stdin is closed"}\n'

    @pytest.mark.parametrize("argv, doc, error", [
        (["contract"], {"vertices": [{"id": 0, "weight": 10**30}], "edges": []},
         f"central vertex weight {10**30} exceeds {MAX_LISTED}: too many simple roots to list"),
        (["map"], {"vertices": [{"id": 0, "weight": 10**30}], "edges": []},
         f"central vertex weight {10**30} exceeds {MAX_LISTED}: too many simple roots to list"),
        (["reduce", "--chain"], {"exponents": [2**63 + 1, 2**63 + 1]},
         f"n = {2**63 + 1} exceeds {MAX_LISTED}: the chain is too long to list"),
        (["contract"], {"vertices": [{"id": 0, "weight": 10**10}], "edges": []},
         f"central vertex weight {10**10} exceeds {MAX_LISTED}: too many simple roots to list"),
        (["reduce", "--chain"], {"exponents": [10000000001, 10000000001]},
         f"n = 10000000001 exceeds {MAX_LISTED}: the chain is too long to list"),
        (["enumerate", "--m", "100000000", "--bound", "100000000", "--format", "count"], None,
         f"m = 100000000 exceeds {census_mod.MAX_M}: more than {MAX_LISTED} classes to list"),
        (["enumerate", "--m", "40", "--bound", "40", "--format", "count"], None,
         f"m = 40 exceeds {census_mod.MAX_M}: more than {MAX_LISTED} classes to list"),
    ], ids=["contract", "map", "reduce-chain", "contract-below-maxsize", "reduce-chain-below-maxsize",
            "enumerate-below-maxsize", "enumerate-past-the-census-ceiling"])
    def test_list_longer_than_maxsize_exits_2(self, argv, doc, error):
        """A size past `MAX_LISTED`, whether or not it is past `sys.maxsize`,
        or a census weight past `census.MAX_M`, is refused before a list of it
        is built.  The child process runs
        under a 1 GiB address-space limit, so a regression that starts
        building the list ends in a MemoryError."""
        resource = pytest.importorskip("resource")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run([sys.executable, "-m", "hyperforms.cli", *argv],
                              input=json.dumps(doc), capture_output=True, text=True,
                              env=checkout_env(), preexec_fn=limit_memory, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, "")
        assert proc.stdout == json.dumps({"error": error}) + "\n"

    def test_census_out_of_memory_exits_2(self, run, monkeypatch):
        """A census the address space cannot hold (m = 19 under 1 GiB) ends in
        one error document and exit 2, not a traceback and exit 1."""
        def exhausted(m):
            raise MemoryError

        monkeypatch.setattr(census_mod, "_central_classes", exhausted)
        status, out = run(["enumerate", "--m", "19", "--bound", "19", "--format", "count"])
        assert (status, out) == (2, '{"error": "out of memory"}\n')

    def test_bad_reduce_input_exits_2(self, run):
        status, out = run(["reduce"], stdin=json.dumps({"exponents": [3, 1]}))
        assert status == 2

    def test_invariant_failure_exits_1(self, run, monkeypatch):
        def broken(t):
            check(False, "arithmetic genus mismatch")

        monkeypatch.setattr(covers, "build_cover", broken)
        status, out = run(["cover"], stdin=tree_doc(3, 3))
        assert status == 1
        assert json.loads(out) == {
            "error": "internal inconsistency: arithmetic genus mismatch"
        }

    def test_central_walk_invariant_failure_exits_1(self, run, monkeypatch):
        # Every subtree weighing m makes all three neighbours of the centre heavy.
        peel = trees_mod.peel

        def heavy(vertices, edges):
            return peel(vertices, edges)._replace(below=[sum(w for _, w in vertices)] * len(vertices))

        monkeypatch.setattr(trees_mod, "peel", heavy)
        star = tree_doc(0, 3, 3, 3, edges=[[0, 1], [0, 2], [0, 3]])
        status, out = run(["central"], stdin=star)
        assert status == 1
        assert json.loads(out) == {
            "error": "internal inconsistency: central vertex has a side weighing at least m/2"
        }

    def test_deterministic_output(self, run):
        _, out1 = run(["contract"], stdin=tree_doc(3, 5))
        _, out2 = run(["contract"], stdin=tree_doc(3, 5))
        assert out1 == out2

    def test_cli_round_trip_tree(self, run):
        status, out = run(["enumerate", "--m", "6"])
        doc = json.loads(out)
        for d in doc["classes"]:
            t = WeightedTree.from_dict(d)
            assert canonical_code(tree_from_json(t.to_json())) == canonical_code(t)


def main_on(argv, text):
    """`main`'s status and stdout with `text` as stdin."""
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            status = main(argv)
    finally:
        sys.stdin = stdin
    return status, out.getvalue()


# Integers near the edge cases, and from just past `MAX_LISTED` to past `sys.maxsize`.
INTEGERS = st.integers(-2, 9) | st.integers(MAX_LISTED + 1, 2**65)
JUNK = st.recursive(
    st.none() | st.booleans() | INTEGERS | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5,
)


@st.composite
def spoiled(draw, documents):
    """A document from `documents`, and half the time one of its values, or
    the document itself, replaced by junk."""
    doc = draw(documents)
    if draw(st.booleans()):
        return doc
    slots = []

    def collect(value):
        keys = value.keys() if isinstance(value, dict) else range(len(value))
        for key in keys:
            slots.append((value, key))
            if isinstance(value[key], (dict, list)):
                collect(value[key])

    collect(doc)
    slot = draw(st.sampled_from([None, *slots]))
    if slot is None:
        return draw(JUNK)
    slot[0][slot[1]] = draw(JUNK)
    return doc


@st.composite
def trees(draw):
    """A tree on ids 0..n-1, maybe with its m declared, and one time in four
    one more edge: a cycle, a loop, or an edge to a missing vertex."""
    n = draw(st.integers(1, 4))
    weights = [draw(INTEGERS) for _ in range(n)]
    edges = [[draw(st.integers(0, i - 1)), i] for i in range(1, n)]
    if draw(st.integers(0, 3)) == 3:
        edges.append([draw(st.integers(0, n)), draw(st.integers(0, n))])
    doc = {"vertices": [{"id": i, "weight": w} for i, w in enumerate(weights)], "edges": edges}
    if draw(st.booleans()):
        doc["m"] = sum(weights)
    return doc


@st.composite
def texts(draw, documents):
    """The JSON text of a spoiled document, one time in four cut short."""
    text = json.dumps(draw(spoiled(documents)))
    if draw(st.integers(0, 3)) == 3:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


TREE_TEXTS = texts(trees())
EXPONENT_TEXTS = texts(st.fixed_dictionaries({"exponents": st.lists(INTEGERS, min_size=1,
                                                                    max_size=7)},
                                             optional={"at_infinity": INTEGERS}))
TREE_ARGV = [["stability"], ["central"], ["contract"], ["cover"], ["cover", "--format", "dot"],
             ["stratum"], ["map"]]
REDUCE_ARGV = [["reduce"], ["reduce", "--chain"]]


class TestFuzz:
    """Every command that reads a document answers any text with exit 0 or 2,
    and a JSON answer is one line holding one object.

    Integers are drawn near the edge cases and above `MAX_LISTED`, the
    largest central vertex weight or exponent that is listed out.
    """

    @staticmethod
    def check_answer(argv, text):
        status, out = main_on(argv, text)
        assert status in (0, 2), out
        if status == 2 or "dot" not in argv:
            assert out.endswith("\n") and out.count("\n") == 1, out
            assert isinstance(json.loads(out), dict), out

    @pytest.mark.parametrize("argv", TREE_ARGV, ids=" ".join)
    @settings(deadline=None)
    @given(text=TREE_TEXTS)
    def test_tree_document(self, argv, text):
        self.check_answer(argv, text)

    @pytest.mark.parametrize("argv", REDUCE_ARGV, ids=" ".join)
    @settings(deadline=None)
    @given(text=EXPONENT_TEXTS)
    def test_exponent_document(self, argv, text):
        self.check_answer(argv, text)


class TestCollector:
    """`main` runs read, compute and emit with the cyclic collector off, and
    leaves it as the caller had it, on success and on every error path."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def prior(self, request):
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if enabled else gc.disable)()

    def test_off_while_the_command_runs(self, run, monkeypatch, prior):
        seen, real = [], covers.build_cover

        def spy(t):
            seen.append(gc.isenabled())
            return real(t)

        monkeypatch.setattr(covers, "build_cover", spy)
        assert run(["cover"], stdin=tree_doc(3, 5)) == (0, GOLDEN_TREES[3, 5][("cover",)])
        assert seen == [False]
        assert gc.isenabled() is prior

    @pytest.mark.parametrize("argv, stdin, status", [
        (["stability"], tree_doc(3, 5), 0),
        (["stability"], "[1, 2]", 2),
        (["stability"], "{", 2),
        (["enumerate", "--m", "2"], None, 2),
    ])
    def test_restored_after_a_document(self, run, prior, argv, stdin, status):
        assert run(argv, stdin=stdin)[0] == status
        assert gc.isenabled() is prior

    def test_restored_after_an_invariant_failure(self, run, monkeypatch, prior):
        monkeypatch.setattr(covers, "build_cover", lambda t: check(False, "arithmetic genus mismatch"))
        assert run(["cover"], stdin=tree_doc(3, 3))[0] == 1
        assert gc.isenabled() is prior

    def test_restored_when_an_exception_escapes(self, run, monkeypatch, prior):
        def broken(t):
            raise RuntimeError("boom")

        monkeypatch.setattr(covers, "build_cover", broken)
        with pytest.raises(RuntimeError, match="boom"):
            run(["cover"], stdin=tree_doc(3, 3))
        assert gc.isenabled() is prior


LAYERS = ["census", "cover", "from_dict", "stable_model", "canonical_code"]


class TestLibraryCollector:
    """The census and every tree-sized layer, like `main`, run with the cyclic
    collector off and leave it as the caller had it, on every exit.  The
    stable model is built inside `build_cover`, so `stable_model` only reads
    it: its cases check that the read runs no collection and leaves the
    collector alone, and that a failure while `build_cover` builds the model
    gives the collector back."""

    prior = TestCollector.prior

    @staticmethod
    def call(name):
        """A census, or a call on a 1,000-vertex tree, its document or its cover,
        that allocates O(n) tracked containers, as (function, arguments); the
        input is built here, outside the call."""
        if name == "census":
            return enumerate_stable_trees, (12, 12)
        t = random_stable_tree(seed=1, n=1000)
        return {
            "cover": (build_cover, (t,)),
            "from_dict": (WeightedTree.from_dict, (t.to_dict(),)),
            "stable_model": (stable_model, (build_cover(t),)),
            "canonical_code": (canonical_code, (t,)),
        }[name]

    @pytest.mark.parametrize("name", LAYERS)
    def test_no_collection_during_the_call(self, prior, name):
        fn, args = self.call(name)
        gc.collect()  # an empty young generation: no collection is due before the call
        before = gc.get_stats()
        fn(*args)
        # Read before anything else allocates: the collector, back on, may run a
        # young collection at the next allocation; `get_stats` copies its counts first.
        after = gc.get_stats()
        assert [s["collections"] for s in after] == [s["collections"] for s in before]
        assert gc.isenabled() is prior

    @pytest.mark.parametrize("fn, args", [
        (enumerate_stable_trees, (2,)),
        (build_cover, (path_tree(3, 4),)),
        (WeightedTree.from_dict, ({"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}],
                                   "edges": [[0, 0]]},)),
    ], ids=["census-m-2", "cover-odd-weight", "from_dict-self-loop"])
    def test_restored_after_a_precondition_error(self, prior, fn, args):
        with pytest.raises(ValueError):
            fn(*args)
        assert gc.isenabled() is prior

    # Each patched inner call raises partway through its layer's work; the
    # stable model's record is built last in `build_cover`, after the cover's.
    @pytest.mark.parametrize("name, module, inner", [
        ("census", census_mod, "_make_census"),
        ("cover", covers, "require_even"),
        ("from_dict", trees_mod, "peel"),
        ("cover", covers, "StableHyperellipticModel"),
        ("canonical_code", trees_mod, "rooted_code"),
    ], ids=LAYERS)
    def test_restored_after_an_invariant_failure(self, monkeypatch, prior, name, module, inner):
        fn, args = self.call(name)
        monkeypatch.setattr(module, inner, lambda *a: check(False, "patched"))
        with pytest.raises(InvariantError, match="patched"):
            fn(*args)
        assert gc.isenabled() is prior
