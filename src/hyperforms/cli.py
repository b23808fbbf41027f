"""Command-line interface: every operation on JSON inputs, JSON/DOT/text output.

Exit codes: 0 success, 2 for schema violations, precondition failures or
running out of memory, 1 for an internal invariant breach (always a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

# Only `trees` here: each command's function imports its own layers when it runs.
from .trees import DEFAULT_BOUND, WeightedTree, validate_stable, without_collector


class InputError(ValueError):
    pass


def _read_input(path: str):
    """The input's JSON document, read as UTF-8; in process, stdin may be a text stream."""
    try:
        if path != "-":
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        elif sys.stdin is None:  # the interpreter started with fd 0 closed
            raise OSError("stdin is closed")
        else:
            stdin = sys.stdin
            text = stdin.buffer.read().decode("utf-8") if hasattr(stdin, "buffer") else stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    try:  # ValueError: malformed or an over-long integer; RecursionError: nested too deeply
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def _stability(t, args) -> dict:
    report = validate_stable(t)
    return {
        "stable": report.stable,
        "violations": [{"vertex": v, "weight": w, "degree": d} for v, w, d in report.violations],
    }


def _central(t, args) -> dict:
    from .central import find_central
    return find_central(t).to_dict()


def _contract(t, args) -> dict:
    from .central import contract_F_m
    return contract_F_m(t).to_dict()


def _cover(t, args):
    from .covers import build_cover, stable_model
    cover = build_cover(t)
    if args.format == "dot":
        return cover.to_dot()
    return {**cover.to_dict(), "stable_model": stable_model(cover).to_dict()}


def _exponents(doc):
    from .reduction import ExponentVector
    return ExponentVector.from_dict(doc)


def _reduce(vector, args) -> dict:
    from .reduction import blowup_chain, reduce
    out = reduce(vector).to_dict()
    if args.chain:
        out["chains"] = [blowup_chain(n).to_dict() for n in vector.all_multiplicities() if n >= 2]
    return out


def _classified(t):
    """The tree's stratum label and its image dimension (None if no closed form)."""
    from .strata import classify_stratum, image_dimension
    label = classify_stratum(t)
    return label, image_dimension(label, (t.m - 2) // 2)


def _stratum(t, args) -> dict:
    label, dim = _classified(t)
    return {"label": label.to_dict(), "name": str(label), "image_dimension": dim}


def _map(t, args) -> dict:
    from .central import f_g_exponents
    label, dim = _classified(t)
    return {"label": str(label), **f_g_exponents(t).to_dict(), "image_dimension": dim}


def _enumerate(_, args):
    from .census import enumerate_stable_trees
    result = enumerate_stable_trees(args.m, bound=args.bound)
    if args.format == "count":
        return str(len(result))
    if args.format == "dot":
        return "\n".join(t.to_dot() for t in result.trees)
    return result.to_dict()


INPUT = ("--input", dict(default="-", help="input path, or - for stdin"))
TREE = WeightedTree.from_dict

# One row per subcommand, all run alike by `main`: (help, builder of the input object
# or None to read no input, function of (that object, args) -> document or text, options)
COMMANDS = {
    "stability": ("check the stability condition", TREE, _stability, [INPUT]),
    "central": ("locate the central vertex or semistable edge", TREE, _central, [INPUT]),
    "contract": ("contract branches to a binary-form class", TREE, _contract, [INPUT]),
    "cover": ("build the admissible double cover and its stable model", TREE, _cover,
              [INPUT, ("--format", dict(choices=("json", "dot"), default="json"))]),
    "reduce": ("local stable reduction of a hyperelliptic equation", _exponents, _reduce,
               [INPUT, ("--chain", dict(action="store_true",
                                        help="also emit blow-up multiplicity chains"))]),
    "stratum": ("classify the boundary stratum", TREE, _stratum, [INPUT]),
    "map": ("evaluate the map to binary forms with image dimension", TREE, _map, [INPUT]),
    "enumerate": ("census of stable weighted-tree classes", None, _enumerate, [
        ("--m", dict(type=int, required=True, help="total weight")),
        ("--bound", dict(type=int, default=DEFAULT_BOUND)),
        ("--format", dict(choices=("json", "dot", "count"), default="json")),
    ]),
}


@functools.cache  # built on the first `main` call, not at import, and once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperforms",
        description="Stable marked genus-0 trees, admissible double covers, "
        "and the map to semistable binary forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


@without_collector
def main(argv=None) -> int:
    """Read, compute and emit one command; the exit status is returned."""
    args = build_parser().parse_args(argv)
    _, build, run, _ = COMMANDS[args.command]
    try:
        obj = None
        if build is not None:
            obj = build(_read_input(args.input))
        out, status = run(obj, args), 0
    except ValueError as exc:  # InputError and the tree errors included
        out, status = {"error": str(exc)}, 2
    except MemoryError as exc:  # e.g. a census the address space cannot hold; freed by now
        out, status = {"error": f"out of memory: {exc}" if str(exc) else "out of memory"}, 2
    except AssertionError as exc:
        out, status = {"error": f"internal inconsistency: {exc}"}, 1
    print(out if isinstance(out, str) else json.dumps(out, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
