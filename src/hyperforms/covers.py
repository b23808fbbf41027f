"""Admissible double covers of stable (2g+2)-marked trees and their stable models.

The cover of a vertex is a single hyperelliptic component when it carries
branch points, and two disjoint genus-0 sheets when it carries none.  An edge
is ramified in the cover exactly when the subtree weights on its two sides are
odd (both sides, since the total weight is even); otherwise its fiber is a
pair of nodes.

The stable model follows Section 5's rule for f_g on the boundary: it drops
exactly the components over the weight-2 leaves (the only soft components:
genus 0, two node ends, no self-node), and each such leaf's two split nodes
become one node on its neighbour, a self-node when the neighbour is branched
and a node between its two sheets when it is not.  Every other component and
node is kept.  `path_tree(2, 2)`, whose two leaves both weigh 2, keeps its
second component with one self-node.  `build_cover` reads the model off the
tree and keeps it on the cover, so `stable_model` models only trees' covers.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, groupby, permutations, product, repeat
from operator import itemgetter, mod

from .trees import WeightedTree, arithmetic_genus, check, read_only, require_even, without_collector

RAMIFIED = "ramified"
SPLIT = "split"


# `sheet` is 0/1 for the two sheets over an unbranched vertex, else None.
CoverComponent = namedtuple("CoverComponent", "id base_vertex sheet branch_count genus")
# `kind` is RAMIFIED or SPLIT; `components` are the ids of the two ends.
CoverNode = namedtuple("CoverNode", "base_edge kind components")


class CoverModel(namedtuple("CoverModel", "components nodes g")):
    """`build_cover` keeps the cover's stable model as the table `_model`, as a
    tree keeps `_rooted`; a cover built any other way has none."""

    __setattr__ = __delattr__ = read_only

    @property
    def arithmetic_genus(self) -> int:
        return arithmetic_genus([c.genus for c in self.components], len(self.nodes))

    def to_dict(self) -> dict:
        return {
            "g": self.g,
            "components": [c._asdict() for c in self.components],
            # `json.dumps` writes the node's own tuples as arrays: no copies.
            "nodes": [
                {"edge": edge, "kind": kind, "components": ends}
                for edge, kind, ends in self.nodes
            ],
        }

    def to_dot(self) -> str:
        lines = ["graph cover {"]
        for c in self.components:
            sheet = "" if c.sheet is None else f"[{c.sheet}]"
            lines.append(
                f'  c{c.id} [label="over {c.base_vertex}{sheet} g={c.genus}"];'
            )
        for n in self.nodes:
            a, b = n.components
            style = ' [style=bold]' if n.kind == RAMIFIED else ""
            lines.append(f"  c{a} -- c{b}{style};")
        lines.append("}")
        return "\n".join(lines)


@without_collector
def build_cover(t: WeightedTree) -> CoverModel:
    """Construct the admissible double cover of a stable even-weight tree, and its model.

    It runs with the cyclic collector paused (`trees.without_collector`): its
    `CoverComponent` and `CoverNode` records are named tuples, which the
    collector never untracks, and it makes no reference cycles.  The caller's
    setting comes back afterwards, on success and on every error.

    Each edge's parity is read once from the tree's rooted table, on
    positions: the edge is ramified iff the weight below its lower end is
    odd, and a ramified edge adds one branch point at each end, so both its
    ends are branched and it joins the one component over each.  The cover
    is connected iff some vertex is branched, so no cover graph is walked.
    The stable model is read off in the same two loops, by Section 5's rule.
    """
    g = require_even(t)
    _, parent, below, degree, ends = t._rooted  # on positions: vertex i is `t.vertices[i]`
    branch = [*map(itemgetter(1), t.vertices)]
    ramified: list[int] = []
    for a, b in ends:
        odd = below[a if parent[a] == b else b] & 1
        ramified.append(odd)
        if odd:
            branch[a] += 1
            branch[b] += 1

    check(not any(map(mod, branch, repeat(2))), "branch count must be even")
    # Each edge joins the components over its ends, first to first and last to last, and
    # first == last over a branched vertex: only with none do the two sheets stay apart.
    check(any(branch), "admissible double cover must be connected")
    new = tuple.__new__  # records built as `_grown` builds trees: no per-field call
    components: list[CoverComponent] = []
    # Base vertex position -> (first, last) component over it: sheets 0 and 1
    # over an unbranched vertex, the one component twice over a branched one.
    over: list[tuple[int, int]] = []
    # The model's (id, genus) pairs, and by position whether the vertex is a
    # weight-2 leaf, whose component (branched, genus 0) the model drops.
    kept: list[tuple[int, int]] = []
    leaf: list[bool] = []
    cid = 0
    for (v, w), bc, d in zip(t.vertices, branch, degree):
        if bc:
            genus = bc // 2 - 1
            components.append(new(CoverComponent, (cid, v, None, bc, genus)))
            over.append((cid, cid))
            soft = w == 2 and d == 1
            leaf.append(soft)
            if not soft:
                kept.append((cid, genus))
            cid += 1
        else:
            components.append(new(CoverComponent, (cid, v, 0, 0, 0)))
            components.append(new(CoverComponent, (cid + 1, v, 1, 0, 0)))
            over.append((cid, cid + 1))
            leaf.append(False)
            kept += (cid, 0), (cid + 1, 0)
            cid += 2

    # Split nodes over an unbranched vertex go one to each sheet; between two
    # unbranched vertices the sheets are matched first-to-first, last-to-last.
    # Positions, and so component ids, increase along an edge: every pair is sorted.
    nodes: list[CoverNode] = []
    model_nodes: list[tuple[int, int]] = []
    for edge, (i, j), odd in zip(t.edges, ends, ramified):
        (a, a1), (b, b1) = over[i], over[j]
        if odd:
            pair = (a, b)
            nodes.append(new(CoverNode, (edge, RAMIFIED, pair)))
            model_nodes.append(pair)
        else:
            first, last = (a, b), (a1, b1)
            nodes.append(new(CoverNode, (edge, SPLIT, first)))
            nodes.append(new(CoverNode, (edge, SPLIT, last)))
            # A weight-2 leaf's two nodes become one on its neighbour: the
            # neighbour's (first, last), a self-node or a node between sheets.
            if leaf[i]:
                model_nodes.append(over[j])
            elif leaf[j]:
                model_nodes.append(over[i])
            else:
                model_nodes += first, last

    cover = CoverModel(tuple(components), tuple(nodes), g)
    check(cover.arithmetic_genus == g, "arithmetic genus mismatch")
    if not kept:  # path_tree(2, 2): its edge gave component 1 the self-node (1, 1)
        kept.append((1, 0))
    model_nodes.sort()
    model = StableHyperellipticModel(tuple(kept), tuple(model_nodes), g)
    check(model.arithmetic_genus == g, "contraction changed the genus")
    cover.__dict__["_model"] = model  # the one table, filled here
    return cover


class StableHyperellipticModel(namedtuple("StableHyperellipticModel", "components nodes g")):
    """Stable reduction of a cover: components as (id, genus) pairs, nodes as
    sorted id pairs.

    Self-pairs record non-separating nodes.  Node pairs form a multiset.
    """

    __slots__ = ()

    @property
    def arithmetic_genus(self) -> int:
        return arithmetic_genus([genus for _, genus in self.components], len(self.nodes))

    def to_dict(self) -> dict:
        special = Counter(chain.from_iterable(self.nodes))
        return {
            "g": self.g,
            "components": [
                {"id": cid, "genus": genus, "special_points": special[cid]}
                for cid, genus in self.components
            ],
            "nodes": [list(pair) for pair in self.nodes],
        }

    def canonical_code(self) -> tuple:
        """Isomorphism invariant: minimal relabeling over genus-preserving maps.

        Position i holds the i-th component by genus, target[i]; a relabeling
        permutes the positions within every run of equal genera.  The runs are
        laid out shortest first, so the permutations of the longest come last
        and are streamed: `product` holds only those of the shorter runs.

        A relabeling is scored as the sorted list of its nodes, each coded as
        the int `lo * k + hi` for positions lo <= hi < k, the component count.
        These lists order as the sorted tuples of `(lo, hi)` pairs do, so the
        least one is decoded once, with `divmod`, into the code's node pairs.
        The time is still the product of the runs' factorials.
        """
        ranked = sorted(self.components, key=lambda c: c[1])
        target = tuple(genus for _, genus in ranked)
        k = len(target)
        runs = sorted((tuple(run) for _, run in groupby(range(k), target.__getitem__)),
                      key=len) or [()]
        # A relabeling's `slot[index[cid]]` is the position it gives component cid.
        index = {ranked[p][0]: i for i, p in enumerate(chain(*runs))}
        ends = [(index[a], index[b]) for a, b in self.nodes]
        longest = runs.pop()
        best = min(
            sorted(slot[a] * k + slot[b] if slot[a] <= slot[b] else slot[b] * k + slot[a]
                   for a, b in ends)
            for perms in product(*map(permutations, runs))
            for last in permutations(longest)
            for slot in [list(chain(*perms, last))]
        )
        return target, tuple(divmod(node, k) for node in best)


def stable_model(c: CoverModel) -> StableHyperellipticModel:
    """The stable model that `build_cover` kept on the cover, built by Section
    5's rule: components as (id, genus) pairs and nodes as id pairs, both
    sorted.  A cover that `build_cover` did not make has none: `ValueError`."""
    try:
        return c.__dict__["_model"]
    except (AttributeError, KeyError):
        raise ValueError("stable_model takes a cover made by build_cover;"
                         " this one was built another way") from None
