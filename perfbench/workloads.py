"""The four benchmark workloads: seeded inputs, the op list of one pass, checks.

A workload makes its inputs from a `random.Random`, then hands the runner a
fresh list of ops for every pass.  An op's `run` is the timed work and calls
the library only through `tr.call(span_name, fn, *args)`; its `check` runs
afterwards, untimed, and returns False on a wrong output.  `probe`, if any,
runs only in traced runs, after the check and outside the timed region.

Importing this module imports hyperforms, so `src` must be on sys.path.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, NamedTuple

import hyperforms.cli as cli
from hyperforms import (
    WeightedTree,
    build_cover,
    canonical_code,
    classify,
    classify_stratum,
    contract_F_m,
    enumerate_stable_trees,
    f_g_exponents,
    find_central,
    image_dimension,
    stable_model,
    validate_stable,
)
from hyperforms.covers import RAMIFIED
from hyperforms.forms import GitClass
from hyperforms.reduction import ExponentVector, blowup_chain, reduce

import oracles


class Op(NamedTuple):
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    probe: Callable[[Any], bool] | None = None


def reduce_form(mults: tuple[int, ...]):
    """reduce(F(t)): the local stable reduction of the contracted form's equation."""
    return reduce(ExponentVector(mults))


def code_perms(model) -> int:
    """Relabelings StableHyperellipticModel.canonical_code tries: prod of |genus group|!."""
    sizes = Counter(genus for _, genus in model.components)
    return math.prod(math.factorial(k) for k in sizes.values())


def check_cover(cover, facts: oracles.TreeFacts, g: int) -> bool:
    ramified = {n.base_edge for n in cover.nodes if n.kind == RAMIFIED}
    branch = {c.base_vertex: c.branch_count for c in cover.components}
    return (
        cover.arithmetic_genus == g
        and ramified == facts.ramified
        and branch == facts.branch
    )


def check_central(central, facts: oracles.TreeFacts) -> bool:
    if facts.half_edge is not None:
        return central.edge is not None and tuple(sorted(central.edge)) == facts.half_edge
    return central.vertex == facts.central


def check_form(form, facts: oracles.TreeFacts) -> bool:
    """F(t) is the semistable point iff there is a half-weight edge, and
    otherwise has degree m, is GIT-stable and has the oracle's multiplicities."""
    if facts.half_edge is not None:
        return form.semistable_point
    return (
        not form.semistable_point
        and form.degree == facts.m
        and classify(form) == GitClass.STABLE
        and form.multiplicities == facts.contracted
    )


def depth_one_agrees(red, model) -> bool:
    """On a depth-one tree the closed-form reduction predicts the stable model:
    same component genera and same node count."""
    genera = [0, 0] if red.central_split else [red.central_genus]
    genera += [tail.genus for tail in red.tails]
    return sorted(genera) == sorted(g for _, g in model.components) and (
        red.node_count == len(model.nodes)
    )


# -- census ---------------------------------------------------------------

class Census:
    """enumerate_stable_trees(m) for m = 10..13, checked against the frozen counts.

    The paper's census: networkx shape generation plus candidate rejection
    (6,568 candidates for 3,741 classes at m=13).  Covers are not touched.
    Eleven passes put the tail percentile inside the m=13 calls.
    """

    name = "census"
    k_min = 11
    runs_processes = False
    BOUND = 13

    def make_inputs(self, rng) -> list:
        ms = list(range(10, 14))
        rng.shuffle(ms)
        return ms

    def classes_per_pass(self, inputs) -> int:
        return sum(oracles.CENSUS_COUNTS[m] for m in inputs)

    def ops(self, inputs, counts: Counter) -> list[Op]:
        def op(m):
            def run(tr):
                return tr.call(
                    "census.enumerate_stable_trees", enumerate_stable_trees, m, self.BOUND
                )

            def check(census) -> bool:
                counts["census.classes"] += len(census)
                codes = census.codes
                return (
                    len(census) == oracles.CENSUS_COUNTS[m]
                    and all(a < b for a, b in zip(codes, codes[1:]))
                    and all(t.m == m for t in census.trees)
                )

            return Op(run, check)

        return [op(m) for m in inputs]


# -- sweep ----------------------------------------------------------------

class Sweep:
    """Every stable class at m=10 and m=12 (1,540 trees) through the full pipeline.

    Many small trees; the factorial model canonical code sets the tail.  Ids
    are relabelled and lists shuffled per seed; the classes are fixed.
    """

    name = "sweep"
    k_min = 2
    runs_processes = False
    MS = (10, 12)

    def make_inputs(self, rng) -> list:
        shapes = oracles.free_trees(max(self.MS) - 2)
        docs = [
            oracles.relabel(weights, edges, rng, 100)
            for m in self.MS
            for weights, edges in oracles.stable_classes(m, shapes)
        ]
        rng.shuffle(docs)
        return docs

    def classes_per_pass(self, inputs) -> int:
        return len(inputs)

    def ops(self, inputs, counts: Counter) -> list[Op]:
        seen = {m: set() for m in self.MS}
        return [self._op(doc, seen, counts) for doc in inputs]

    @staticmethod
    def _op(doc: dict, seen: dict, counts: Counter) -> Op:
        m = doc["m"]
        g = (m - 2) // 2

        def run(tr):
            t = tr.call("trees.from_dict", WeightedTree.from_dict, doc)
            report = tr.call("trees.validate_stable", validate_stable, t)
            central = tr.call("central.find_central", find_central, t)
            form = tr.call("central.contract_F_m", contract_F_m, t)
            git = tr.call("forms.classify", classify, form)
            label = tr.call("strata.classify_stratum", classify_stratum, t)
            try:
                dim = tr.call("strata.image_dimension", image_dimension, label, g)
            except ValueError:  # the CLI reports this as a null dimension
                dim = None
            cover = tr.call("covers.build_cover", build_cover, t)
            model = tr.call("covers.stable_model", stable_model, cover)
            code = tr.call("covers.model_canonical_code", model.canonical_code)
            red = None
            if not form.semistable_point:
                red = tr.call("reduction.reduce", reduce_form, form.multiplicities)
            return t, report, central, form, git, label, dim, cover, model, code, red

        def check(out) -> bool:
            t, report, central, form, git, label, dim, cover, model, code, red = out
            weights, edges = oracles.from_doc(doc)
            facts = oracles.TreeFacts(weights, edges)
            n = len(weights)
            counts["covers.cover_components"] += len(cover.components)
            counts["covers.cover_nodes"] += len(cover.nodes)
            counts["covers.model_components"] += len(model.components)
            counts["covers.model_code_perms"] += code_perms(model)
            fresh = code not in seen[m]
            seen[m].add(code)
            if n == 1:
                kind_ok = label.kind == "interior"
            elif n == 2:
                kind_ok = label.kind in ("delta", "xi", "semistable_image")
            else:
                kind_ok = label.kind == "deeper" and label.codimension == n - 1
            if dim is None:
                dim_ok = label.kind == "deeper"
            else:
                dim_ok = dim == (0 if form.semistable_point else len(form.multiplicities) - 3)
            expected_git = GitClass.STRICTLY_SEMISTABLE if form.semistable_point else GitClass.STABLE
            red_ok = (red is None) == form.semistable_point
            if red is not None:
                red_ok = red.arithmetic_genus == g
                if facts.depth_one:
                    counts["reduction.depth_one_checked"] += 1
                    red_ok = red_ok and depth_one_agrees(red, model)
            return (
                t.m == m
                and report.stable
                and check_central(central, facts)
                and check_form(form, facts)
                and git == expected_git
                and kind_ok
                and dim_ok
                and check_cover(cover, facts, g)
                and model.arithmetic_genus == g
                and fresh
                and red_ok
            )

        return Op(run, check)


# -- bigtrees -------------------------------------------------------------

def path_doc(n: int) -> dict:
    weights = {i: 1 for i in range(n)}
    weights[0] = weights[n - 1] = 2
    return oracles.to_doc(weights, [(i, i + 1) for i in range(n - 1)])


def star_doc(n: int) -> dict:
    weights = {0: 0, **{i: 2 for i in range(1, n)}}
    return oracles.to_doc(weights, [(0, i) for i in range(1, n)])


def random_doc(n: int, rng) -> dict:
    """Random recursive tree, each vertex one or two marks above its stability
    minimum, one weight raised if needed to make m even.  The extra marks keep
    most cover components branched, so stable_model stays cheap and the cost
    of these trees does not swing with the seed."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    deg = Counter()
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    weights = {v: max(0, 3 - deg[v]) + 1 + rng.randrange(2) for v in range(n)}
    if sum(weights.values()) % 2:
        weights[rng.randrange(n)] += 1
    return oracles.to_doc(weights, edges)


class BigTrees:
    """A few huge trees through the layers `sweep` uses, one op per library call.

    Paths and stars keep their natural ids (the central-vertex walk starts at
    a path end); the seed draws the random trees and the tree order.  The
    model canonical code is left out (factorial); the n=1000 path stays in,
    so canonical_code's RecursionError counts as a failed op.
    """

    name = "bigtrees"
    k_min = 2
    runs_processes = False

    def __init__(self):
        self._expected = {}

    def make_inputs(self, rng) -> list:
        docs = [path_doc(n) for n in (250, 500, 1000)]
        docs += [star_doc(n) for n in (250, 500)]
        docs += [random_doc(300, rng) for _ in range(3)]
        rng.shuffle(docs)
        return docs

    def classes_per_pass(self, inputs) -> int:
        return len(inputs)

    def ops(self, inputs, counts: Counter) -> list[Op]:
        ops = []
        for i, doc in enumerate(inputs):
            if i not in self._expected:  # oracle answers, once per run, untimed
                weights, edges = oracles.from_doc(doc)
                code = oracles.canonical_code(weights, oracles.adjacency(weights, edges))
                self._expected[i] = (weights, oracles.TreeFacts(weights, edges), code)
            ops += self._tree_ops(doc, *self._expected[i], counts)
        return ops

    @staticmethod
    def _tree_ops(doc, weights, facts, code, counts: Counter) -> list[Op]:
        g = (facts.m - 2) // 2
        st = {"doc": doc}

        def step(span, fn, arg, out=None):
            def run(tr):
                result = tr.call(span, fn, st[arg])
                if out:
                    st[out] = result
                return result

            return run

        def cover_ok(cover):
            counts["covers.cover_components"] += len(cover.components)
            counts["covers.cover_nodes"] += len(cover.nodes)
            return check_cover(cover, facts, g)

        def model_ok(model):
            counts["covers.model_components"] += len(model.components)
            return model.arithmetic_genus == g

        return [
            Op(
                step("trees.from_dict", WeightedTree.from_dict, "doc", "t"),
                lambda t: t.m == facts.m and len(t.ids) == len(weights),
            ),
            Op(
                step("central.find_central", find_central, "t"),
                lambda central: check_central(central, facts),
            ),
            Op(
                step("central.contract_F_m", contract_F_m, "t"),
                lambda form: check_form(form, facts),
            ),
            Op(step("covers.build_cover", build_cover, "t", "cover"), cover_ok),
            Op(step("covers.stable_model", stable_model, "cover"), model_ok),
            Op(step("trees.canonical_code", canonical_code, "t"), lambda c: c == code),
        ]


# -- cli ------------------------------------------------------------------

COMMANDS = ("map", "cover", "reduce", "stability", "enumerate")


def expected_stdout(argv: list[str], doc: dict | None) -> str:
    """What the CLI must print, computed with the library in this process."""
    cmd = argv[0]
    if cmd == "enumerate":
        return f"{len(enumerate_stable_trees(int(argv[2])))}\n"
    if cmd == "reduce":
        vector = ExponentVector.from_dict(doc)
        out = reduce(vector).to_dict()
        out["chains"] = [
            blowup_chain(n).to_dict() for n in vector.all_multiplicities() if n >= 2
        ]
    else:
        t = WeightedTree.from_dict(doc)
        if cmd == "stability":
            report = validate_stable(t)
            out = {
                "stable": report.stable,
                "violations": [
                    {"vertex": v, "weight": w, "degree": d} for v, w, d in report.violations
                ],
            }
        elif cmd == "cover":
            c = build_cover(t)
            out = c.to_dict()
            out["stable_model"] = stable_model(c).to_dict()
        else:
            label = classify_stratum(t)
            out = {"label": str(label), **f_g_exponents(t).to_dict()}
            try:
                out["image_dimension"] = image_dimension(label, (t.m - 2) // 2)
            except ValueError:
                out["image_dimension"] = None
    return json.dumps(out, sort_keys=True) + "\n"


def main_in_process(argv: list[str], stdin_text: str) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class Cli:
    """`python -m hyperforms.cli` subprocesses on small documents, one at a time.

    Two each of map, cover, reduce --chain, stability and enumerate --m 8
    --format count; interpreter start and import dominate.  Traced runs also
    time a bare interpreter, a bare import and an in-process cli.main.
    """

    name = "cli"
    k_min = 4
    runs_processes = True

    def __init__(self, src: Path):
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.cwd = src.parent
        self._expected = {}

    def make_inputs(self, rng) -> list:
        shapes = oracles.free_trees(8)
        pools = {m: oracles.stable_classes(m, shapes) for m in (7, 8, 9, 10)}
        items = []
        for cmd in COMMANDS * 2:
            if cmd == "enumerate":
                items.append((["enumerate", "--m", "8", "--format", "count"], None))
            elif cmd == "reduce":
                g = rng.randint(2, 5)
                parts, left = [], 2 * g + 2
                while left:
                    parts.append(rng.randint(1, min(left, 2 * g)))
                    left -= parts[-1]
                at_inf = parts.pop() if len(parts) > 1 and rng.random() < 0.5 else 0
                items.append((["reduce", "--chain"], {"exponents": parts, "at_infinity": at_inf}))
            else:
                m = rng.choice((7, 8, 9)) if cmd == "stability" else rng.choice((8, 10))
                weights, edges = rng.choice(pools[m])
                weights = dict(weights)
                if cmd == "stability" and len(weights) > 1 and rng.random() < 0.5:
                    leaf = next(v for v in weights if sum(v in e for e in edges) == 1)
                    weights[leaf] -= 1  # an unstable tree, still valid input
                items.append(([cmd], oracles.relabel(weights, edges, rng, 50)))
        rng.shuffle(items)
        return items

    def classes_per_pass(self, inputs) -> int:
        """One tree per tree command, the census's classes per enumerate."""
        per_command = {"enumerate": oracles.CENSUS_COUNTS[8], "reduce": 0}
        return sum(per_command.get(argv[0], 1) for argv, _ in inputs)

    def _expect(self, i: int, argv, doc) -> str | None:
        if i not in self._expected:
            text = expected_stdout(argv, doc)
            if argv[0] == "enumerate" and text != f"{oracles.CENSUS_COUNTS[8]}\n":
                text = None  # the library itself is wrong; every call fails
            self._expected[i] = text
        return self._expected[i]

    def _spawn(self, args: list[str], stdin_text: str = ""):
        return subprocess.run(
            [sys.executable, *args],
            input=stdin_text,
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.cwd,
            timeout=60,
        )

    def ops(self, inputs, counts: Counter) -> list[Op]:
        ops = []
        for i, (argv, doc) in enumerate(inputs):
            stdin_text = "" if doc is None else json.dumps(doc)
            expected = self._expect(i, argv, doc)

            def run(tr, argv=argv, stdin_text=stdin_text):
                return tr.call(
                    "cli.process", self._spawn, ["-m", "hyperforms.cli", *argv], stdin_text
                )

            def check(proc, expected=expected):
                return proc.returncode == 0 and proc.stdout == expected

            def probe(tr, argv=argv, stdin_text=stdin_text, expected=expected):
                tr.call("cli.interpreter", self._spawn, ["-c", "pass"])
                tr.call("cli.import", self._spawn, ["-c", "import hyperforms.cli"])
                code, out = tr.call("cli.main", main_in_process, argv, stdin_text)
                return code == 0 and out == expected

            ops.append(Op(run, check, probe))
        return ops


def make(name: str, src: Path):
    return {
        "census": Census,
        "sweep": Sweep,
        "bigtrees": BigTrees,
        "cli": lambda: Cli(src),
    }[name]()
