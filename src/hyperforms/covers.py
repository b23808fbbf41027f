"""Admissible double covers of stable (2g+2)-marked trees and their stable models.

The cover of a vertex is a single hyperelliptic component when it carries
branch points, and two disjoint genus-0 sheets when it carries none.  An edge
is ramified in the cover exactly when the subtree weights on its two sides are
odd (both sides, since the total weight is even); otherwise its fiber is a
pair of nodes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, compress, groupby, permutations, product, repeat, starmap
from operator import eq, itemgetter, mod

from .trees import WeightedTree, arithmetic_genus, check, require_even, without_collector

RAMIFIED = "ramified"
SPLIT = "split"


# `sheet` is 0/1 for the two sheets over an unbranched vertex, else None.
CoverComponent = namedtuple("CoverComponent", "id base_vertex sheet branch_count genus")
# `kind` is RAMIFIED or SPLIT; `components` are the ids of the two ends.
CoverNode = namedtuple("CoverNode", "base_edge kind components")


class CoverModel(namedtuple("CoverModel", "components nodes g")):
    __slots__ = ()

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
    """Construct the admissible double cover of a stable even-weight tree.

    It runs with the cyclic collector paused (`trees.without_collector`): its
    `CoverComponent` and `CoverNode` records are named tuples, which the
    collector never untracks, and it makes no reference cycles.  The caller's
    setting comes back afterwards, on success and on every error.

    Each edge's parity is read once from the tree's rooted table, on
    positions: the edge is ramified iff the weight below its lower end is
    odd, and a ramified edge adds one branch point at each end.  The cover
    graph's adjacency is built with its nodes, for the one connectivity walk.
    """
    g = require_even(t)
    _, parent, below, _, ends = t._rooted  # on positions: vertex i is `t.vertices[i]`
    branch = [*map(itemgetter(1), t.vertices)]
    ramified: list[int] = []
    for a, b in ends:
        odd = below[a if parent[a] == b else b] & 1
        ramified.append(odd)
        if odd:
            branch[a] += 1
            branch[b] += 1

    check(not any(map(mod, branch, repeat(2))), "branch count must be even")
    new = tuple.__new__  # records built as `_grown` builds trees: no per-field call
    components: list[CoverComponent] = []
    # Base vertex position -> (first, last) component over it: sheets 0 and 1
    # over an unbranched vertex, the one component twice over a branched one.
    over: list[tuple[int, int]] = []
    cid = 0
    for (v, _), bc in zip(t.vertices, branch):
        if bc:
            components.append(new(CoverComponent, (cid, v, None, bc, bc // 2 - 1)))
            over.append((cid, cid))
            cid += 1
        else:
            components.append(new(CoverComponent, (cid, v, 0, 0, 0)))
            components.append(new(CoverComponent, (cid + 1, v, 1, 0, 0)))
            over.append((cid, cid + 1))
            cid += 2

    # Split nodes over an unbranched vertex go one to each sheet; between two
    # unbranched vertices the sheets are matched first-to-first, last-to-last.
    nodes: list[CoverNode] = []
    adj: list[list[int]] = [[] for _ in components]  # component ids are positions
    for edge, (a, b), odd in zip(t.edges, ends, ramified):
        (a, a1), (b, b1) = over[a], over[b]
        adj[a].append(b)
        adj[b].append(a)
        if odd:
            check(a == a1 and b == b1, "ramified node over an unbranched vertex")
            nodes.append(new(CoverNode, (edge, RAMIFIED, (a, b))))
        else:
            adj[a1].append(b1)
            adj[b1].append(a1)
            nodes.append(new(CoverNode, (edge, SPLIT, (a, b))))
            nodes.append(new(CoverNode, (edge, SPLIT, (a1, b1))))

    reached, seen = [0], [True] + [False] * (len(adj) - 1)
    for u in reached:  # the list grows while it is read, so it is the queue
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                reached.append(w)
    check(len(reached) == len(adj), "admissible double cover must be connected")
    cover = CoverModel(tuple(components), tuple(nodes), g)
    check(cover.arithmetic_genus == g, "arithmetic genus mismatch")
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


@without_collector
def stable_model(c: CoverModel) -> StableHyperellipticModel:
    """Contract genus-0 components meeting the rest of the curve in 2 points.

    Such a soft component has genus 0, exactly two node ends and no
    self-node.  Contracting one identifies its two attachment points into one
    node, so no other component's count of node ends changes, and the soft
    components are read off the cover once.  They are contracted one at a
    time, in component order: each is spliced out of its soft neighbours'
    links, and once neither of its links is soft the node between them is
    kept.  So each maximal chain of soft components becomes one node between
    the kept anchors at its two ends, a self-node when they coincide.  A
    closed cycle of soft components (a whole curve of genus 1) is left as its
    last component in component order, linked to itself twice: it is kept
    with one self-node.  Arithmetic genus is preserved.

    It runs with the cyclic collector paused, as `build_cover` does.
    """
    pairs = [*map(itemgetter(2), c.nodes)]  # each node's `components`
    ends = Counter(chain.from_iterable(pairs))
    looped = {a for a, _ in compress(pairs, starmap(eq, pairs))}
    id_genus = [*map(itemgetter(0, 4), c.components)]  # each component's (id, genus)
    # A soft component's two neighbours, one per node end, in component order.
    link: dict[int, list[int]] = {cid: [] for cid, genus in id_genus
                                  if not genus and ends[cid] == 2 and cid not in looped}

    nodes: list[tuple[int, int]] = []  # the nodes with no soft end stay as they are
    for pair in pairs:
        a, b = pair
        if a in link:
            link[a].append(b)
            if b in link:
                link[b].append(a)
        elif b in link:
            link[b].append(a)
        else:
            nodes.append(pair if a <= b else (b, a))

    kept: list[tuple[int, int]] = [pair for pair in id_genus if pair[0] not in link]
    # A link never names a soft component spliced out before: it was replaced then.
    for cid, (x, y) in link.items():
        if x == cid:  # the last member of a closed cycle
            kept.append((cid, 0))
            nodes.append((cid, cid))
            continue
        if x in link:
            link[x][link[x].index(cid)] = y
        if y in link:
            link[y][link[y].index(cid)] = x
        elif x not in link:
            nodes.append((x, y) if x <= y else (y, x))

    nodes.sort()
    kept.sort()
    model = StableHyperellipticModel(components=tuple(kept), nodes=tuple(nodes), g=c.g)
    check(model.arithmetic_genus == c.g, "contraction changed the genus")
    return model
