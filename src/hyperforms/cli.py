"""Command-line interface: every operation on JSON inputs, JSON/DOT/text output.

Exit codes: 0 success, 2 for schema violations or precondition failures,
1 for an internal invariant breach (always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import census as census_mod
from .central import contract_F_m, find_central
from .covers import build_cover, stable_model
from .reduction import ExponentVector, blowup_chain, reduce as reduce_equation
from .strata import classify_stratum, f_g_exponents, image_dimension
from .trees import WeightedTree, validate_stable


class InputError(ValueError):
    pass


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc


def _load_tree(path: str) -> WeightedTree:
    return WeightedTree.from_json(_read_input(path))


def _load_json(path: str) -> dict:
    try:
        doc = json.loads(_read_input(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    return doc


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def cmd_stability(args) -> None:
    report = validate_stable(_load_tree(args.input))
    _emit(
        {
            "stable": report.stable,
            "violations": [
                {"vertex": v, "weight": w, "degree": d}
                for v, w, d in report.violations
            ],
        }
    )


def cmd_central(args) -> None:
    _emit(find_central(_load_tree(args.input)).to_dict())


def cmd_contract(args) -> None:
    _emit(contract_F_m(_load_tree(args.input)).to_dict())


def cmd_cover(args) -> None:
    cover = build_cover(_load_tree(args.input))
    if args.format == "dot":
        print(cover.to_dot())
        return
    doc = cover.to_dict()
    doc["stable_model"] = stable_model(cover).to_dict()
    _emit(doc)


def cmd_reduce(args) -> None:
    doc = _load_json(args.input)
    try:
        vector = ExponentVector.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad exponent vector: {exc}") from exc
    out = reduce_equation(vector).to_dict()
    if args.chain:
        out["chains"] = [
            blowup_chain(n).to_dict()
            for n in vector.all_multiplicities()
            if n >= 2
        ]
    _emit(out)


def _classified(args):
    """Input tree, its stratum label, and the image dimension (None if no formula)."""
    t = _load_tree(args.input)
    label = classify_stratum(t)
    try:
        dim = image_dimension(label, (t.m - 2) // 2)
    except ValueError:
        dim = None
    return t, label, dim


def cmd_stratum(args) -> None:
    _, label, dim = _classified(args)
    _emit({"label": label.to_dict(), "name": str(label), "image_dimension": dim})


def cmd_map(args) -> None:
    t, label, dim = _classified(args)
    _emit({"label": str(label), **f_g_exponents(t).to_dict(), "image_dimension": dim})


def cmd_enumerate(args) -> None:
    result = census_mod.enumerate_stable_trees(args.m, bound=args.bound)
    if args.format == "count":
        print(len(result))
    elif args.format == "dot":
        for t in result.trees:
            print(t.to_dot())
    else:
        _emit(result.to_dict())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperforms",
        description="Stable marked genus-0 trees, admissible double covers, "
        "and the map to semistable binary forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def tree_command(name, func, help_text, formats=("json",)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", default="-", help="input path, or - for stdin")
        if len(formats) > 1:
            p.add_argument("--format", choices=formats, default="json")
        p.set_defaults(func=func)
        return p

    tree_command("stability", cmd_stability, "check the stability condition")
    tree_command("central", cmd_central, "locate the central vertex or semistable edge")
    tree_command("contract", cmd_contract, "contract branches to a binary-form class")
    tree_command(
        "cover",
        cmd_cover,
        "build the admissible double cover and its stable model",
        formats=("json", "dot"),
    )

    p = sub.add_parser("reduce", help="local stable reduction of a hyperelliptic equation")
    p.add_argument("--input", default="-", help="input path, or - for stdin")
    p.add_argument("--chain", action="store_true", help="also emit blow-up multiplicity chains")
    p.set_defaults(func=cmd_reduce)

    tree_command("stratum", cmd_stratum, "classify the boundary stratum")
    tree_command("map", cmd_map, "evaluate the map to binary forms with image dimension")

    p = sub.add_parser("enumerate", help="census of stable weighted-tree classes")
    p.add_argument("--m", type=int, required=True, help="total weight")
    p.add_argument("--bound", type=int, default=census_mod.DEFAULT_BOUND)
    p.add_argument("--format", choices=("json", "dot", "count"), default="json")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:  # InputError and the tree errors included
        _emit({"error": str(exc)})
        return 2
    except AssertionError as exc:
        _emit({"error": f"internal inconsistency: {exc}"})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
