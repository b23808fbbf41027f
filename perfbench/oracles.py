"""The benchmark's own tree algorithms: input generators and output oracles.

Nothing here imports hyperforms.  A tree is a weight mapping {id: weight} plus
a list of edges; a document is the JSON form the library reads,
{"m": ..., "vertices": [{"id": ..., "weight": ...}], "edges": [[a, b], ...]}.
"""

from __future__ import annotations

from collections import deque

# Stable weighted-tree classes of total weight m, m = 3..14 (the paper's census).
CENSUS_COUNTS = {
    3: 1, 4: 2, 5: 3, 6: 7, 7: 13, 8: 32, 9: 73,
    10: 190, 11: 488, 12: 1350, 13: 3741, 14: 10765,
}


def adjacency(weights: dict, edges) -> dict:
    adj = {v: [] for v in weights}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def to_doc(weights: dict, edges) -> dict:
    return {
        "m": sum(weights.values()),
        "vertices": [{"id": v, "weight": w} for v, w in weights.items()],
        "edges": [[a, b] for a, b in edges],
    }


def from_doc(doc: dict) -> tuple[dict, list]:
    weights = {v["id"]: v["weight"] for v in doc["vertices"]}
    return weights, [tuple(e) for e in doc["edges"]]


# -- canonical code -------------------------------------------------------

def tree_centers(adj: dict) -> list:
    """The 1 or 2 structural centers, by removing leaves layer by layer."""
    deg = {v: len(ns) for v, ns in adj.items()}
    layer = [v for v, d in deg.items() if d <= 1]
    remaining = len(adj)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = -1
            for u in adj[v]:
                if deg[u] > 0:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(v for v, d in deg.items() if d >= 0)


def _rooted_code(weights: dict, adj: dict, root) -> tuple:
    """Flattened AHU code of the tree rooted at `root`, built without recursion.

    A subtree is -1, its root weight, its children's codes in increasing
    order, then -2.  Lexicographic order on these flat tuples equals the order
    on the nested (weight, children) tuples, so this is the library's code.
    """
    parent = {root: None}
    order = [root]
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    code = {}
    for v in reversed(order):
        kids = sorted(code.pop(u) for u in adj[v] if u != parent[v])
        flat = [-1, weights[v]]
        for kid in kids:
            flat.extend(kid)
        flat.append(-2)
        code[v] = tuple(flat)
    return code[root]


def canonical_code(weights: dict, adj: dict) -> tuple:
    return min(_rooted_code(weights, adj, c) for c in tree_centers(adj))


# -- linear leaf stripping -------------------------------------------------

class TreeFacts:
    """Side weights, central vertex and cover parity from one leaf-stripping pass.

    Leaves are removed in FIFO order; each removed vertex hands its
    accumulated weight (the weight on its side of the edge it hangs from) to
    its one remaining neighbour.  Every quantity below is a lookup afterwards.
    """

    def __init__(self, weights: dict, edges):
        adj = adjacency(weights, edges)
        self.m = m = sum(weights.values())
        acc = dict(weights)
        deg = {v: len(ns) for v, ns in adj.items()}
        hang = {}  # stripped vertex -> the neighbour it was stripped into
        queue = deque(v for v, d in deg.items() if d == 1)
        for _ in range(len(adj) - 1):
            v = queue.popleft()
            deg[v] = 0
            (u,) = (x for x in adj[v] if deg[x] > 0)
            hang[v] = u
            acc[u] += acc[v]
            deg[u] -= 1
            if deg[u] == 1:
                queue.append(u)
        # acc[v] is now the weight on v's side of edge (v, hang[v]).
        self.ramified = {
            tuple(sorted((v, u))) for v, u in hang.items() if acc[v] % 2
        }
        self.branch = dict(weights)
        for a, b in self.ramified:
            self.branch[a] += 1
            self.branch[b] += 1
        self.half_edge = next(
            (tuple(sorted((v, u))) for v, u in hang.items() if 2 * acc[v] == m),
            None,
        )
        branches = {v: [] for v in adj}
        for v, u in hang.items():
            branches[u].append(acc[v])
            branches[v].append(m - acc[v])
        self.central = None
        self.contracted = None  # root multiplicities of F(t), largest first
        if self.half_edge is None:
            for v, ws in branches.items():
                if all(2 * w < m for w in ws):
                    self.central = v
                    self.contracted = tuple(sorted(ws + [1] * weights[v], reverse=True))
                    break
        self.depth_one = self.central is not None and all(
            len(adj[u]) == 1 for u in adj[self.central]
        )


# -- generators -----------------------------------------------------------

def free_trees(n_max: int) -> dict[int, list[list[tuple[int, int]]]]:
    """Edge lists of every unlabelled tree on 1..n_max vertices (ids 0..n-1).

    Each tree on n vertices comes from one on n - 1 by hanging a leaf off
    some vertex; duplicates are removed by canonical code.
    """
    shapes = {1: [[]]}
    for n in range(2, n_max + 1):
        seen = {}
        for edges in shapes[n - 1]:
            for v in range(n - 1):
                grown = edges + [(v, n - 1)]
                zero = dict.fromkeys(range(n), 0)
                seen.setdefault(canonical_code(zero, adjacency(zero, grown)), grown)
        shapes[n] = list(seen.values())
    return shapes


def _weightings(lower: list[int], slack: int):
    if len(lower) == 1:
        yield [lower[0] + slack]
        return
    for extra in range(slack + 1):
        for rest in _weightings(lower[1:], slack - extra):
            yield [lower[0] + extra] + rest


def stable_classes(m: int, shapes: dict) -> list[tuple[dict, list]]:
    """One (weights, edges) representative per stable class of weight m, by code."""
    found = {}
    for n in range(1, max(1, m - 2) + 1):
        for edges in shapes[n]:
            deg = [0] * n
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            lower = [max(0, 3 - d) for d in deg]
            if sum(lower) > m:
                continue
            for ws in _weightings(lower, m - sum(lower)):
                weights = dict(enumerate(ws))
                code = canonical_code(weights, adjacency(weights, edges))
                found.setdefault(code, (weights, edges))
    if len(found) != CENSUS_COUNTS[m]:
        raise RuntimeError(
            f"generator found {len(found)} classes at m={m}, expected {CENSUS_COUNTS[m]}"
        )
    return [found[code] for code in sorted(found)]


def relabel(weights: dict, edges, rng, id_range: int) -> dict:
    """Document of the same tree with random distinct ids and shuffled lists."""
    ids = rng.sample(range(id_range), len(weights))
    new = dict(zip(weights, ids))
    verts = [(new[v], w) for v, w in weights.items()]
    rng.shuffle(verts)
    es = [[new[a], new[b]] if rng.random() < 0.5 else [new[b], new[a]] for a, b in edges]
    rng.shuffle(es)
    return to_doc(dict(verts), es)
