"""Self-test of the benchmark's oracles against the library, on small inputs.

    python3 perfbench/selftest.py

For every census class with m <= 10: the leaf-stripping oracle gives the
central vertex or half-weight edge that find_central gives, and (even m) the
ramified edges and branch counts that build_cover gives; the benchmark's own
generator and canonical code reproduce the library's census codes.  Exits 1
on any disagreement.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from hyperforms import build_cover, canonical_code, enumerate_stable_trees, find_central  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    problems = []
    shapes = oracles.free_trees(8)
    checked = 0
    for m in range(3, 11):
        census = enumerate_stable_trees(m)
        own = oracles.stable_classes(m, shapes)
        own_codes = sorted(
            oracles.canonical_code(w, oracles.adjacency(w, e)) for w, e in own
        )
        if own_codes != list(census.codes):
            problems.append(f"m={m}: own generator or code differs from the census")
        for t in census.trees:
            weights, edges = dict(t.vertices), list(t.edges)
            facts = oracles.TreeFacts(weights, edges)
            if not workloads.check_central(find_central(t), facts):
                problems.append(f"central vertex differs on {t.to_json()}")
            if m % 2 == 0 and m >= 4:
                if not workloads.check_cover(build_cover(t), facts, (m - 2) // 2):
                    problems.append(f"cover parity differs on {t.to_json()}")
            checked += 1

    rng = random.Random(0)
    big = [workloads.path_doc(250), workloads.star_doc(250), workloads.random_doc(250, rng)]
    for doc in big:
        t = workloads.WeightedTree.from_dict(doc)
        weights, edges = oracles.from_doc(doc)
        if canonical_code(t) != oracles.canonical_code(weights, oracles.adjacency(weights, edges)):
            problems.append(f"canonical code differs on a {len(weights)}-vertex tree")
        if not workloads.check_cover(build_cover(t), oracles.TreeFacts(weights, edges), (t.m - 2) // 2):
            problems.append(f"cover parity differs on a {len(weights)}-vertex tree")

    for p in problems:
        print("FAIL", p)
    print(f"selftest: {checked} census classes (m <= 10) and {len(big)} large trees, "
          f"{len(problems)} disagreements")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
