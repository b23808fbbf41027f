"""Shared brute-force oracles for the property suites."""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from itertools import chain, compress, permutations, product, starmap
from math import comb, factorial, prod
from operator import eq, itemgetter, le, lt
from pathlib import Path

import pytest

from hyperforms import (
    CentralResult,
    ExponentVector,
    WeightedTree,
    build_cover,
    canonical_code,
    contract_F_m,
    find_central,
    reduce,
    stable_model,
    star_tree,
    validate_stable,
)
from hyperforms.census import Census, _make_census
from hyperforms.covers import CoverModel, StableHyperellipticModel, arithmetic_genus
from hyperforms.forms import BinaryFormClass
from hyperforms.reduction import ReductionOutput
from hyperforms.trees import CanonicalCode, InvalidTreeError, check, tree


# -- the paper's definitions, one edge or vertex at a time ----------------

def adjacency(t: WeightedTree) -> dict[int, list[int]]:
    """Each vertex's neighbours by id, read off `t.edges`: the oracles' own
    id-keyed view, which the library does not keep."""
    adj: dict[int, list[int]] = {v: [] for v, _ in t.vertices}
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def walk(adj, root: int, cut: int | None = None) -> tuple[list[int], dict]:
    """Breadth-first order from `root` and each reached vertex's parent,
    never entering `cut`: the oracles' own walk, apart from the library's leaf peel."""
    parent: dict = {root: None}
    order = [root]
    for u in order:
        for w in adj[u]:
            if w != cut and w not in parent:
                parent[w] = u
                order.append(w)
    return order, parent


def rooted(t: WeightedTree) -> tuple[dict, dict[int, int], dict[int, list[int]], dict[int, int]]:
    """Parent and subtree weight of every vertex, rooted at the first id by
    one `walk`, with the `adjacency` it walked and the vertex weights: the
    oracles' own id-keyed table, apart from the library's `t._rooted`."""
    adj, weight = adjacency(t), dict(t.vertices)
    order, parent = walk(adj, t.vertices[0][0])
    below = dict(weight)
    for v in reversed(order[1:]):  # children before parents
        below[parent[v]] += below[v]
    return parent, below, adj, weight


def side_weight(t: WeightedTree, edge: tuple[int, int], toward: int, table=None) -> int:
    """Total weight of the component on the `toward` side of `edge`, read off
    `table`, the tree's `rooted` table (one walk when not given), so that a
    check at every edge can share one walk and stay linear."""
    a, b = edge
    if toward == a:
        away = b
    elif toward == b:
        away = a
    else:
        raise InvalidTreeError(f"vertex {toward} not an endpoint of {edge}")
    parent, below, _, _ = table or rooted(t)
    if parent.get(toward) == away:
        return below[toward]
    if parent.get(away) == toward:
        return t.m - below[away]
    raise InvalidTreeError(f"{edge} is not an edge of the tree")


def is_central(t: WeightedTree, v: int, table=None) -> bool:
    """Direct test of the definition: every complementary subtree < m/2."""
    table = table or rooted(t)
    _, _, adj, _ = table
    return all(2 * side_weight(t, (v, u), u, table) < t.m for u in adj[v])


def half_weight_edge(t: WeightedTree) -> tuple[int, int] | None:
    """The edge splitting the total weight as (m/2, m/2), if any."""
    table = rooted(t)
    for a, b in t.edges:
        if 2 * side_weight(t, (a, b), a, table) == t.m:
            return (a, b)
    return None


def central_by_definition(t: WeightedTree) -> CentralResult:
    """The half-weight edge if there is one, else the one vertex `is_central` accepts."""
    edge = half_weight_edge(t)
    if edge is not None:
        return CentralResult(edge=edge)
    table = rooted(t)
    (v,) = [v for v in t.ids if is_central(t, v, table)]
    return CentralResult(vertex=v)


# -- Section 3's map along an edge contraction ----------------------------

def contracted(t: WeightedTree, edge: tuple[int, int]) -> WeightedTree:
    """T/e: the ends of `edge`, an edge of `t` as `t.edges` lists it, merged
    into its first end, which carries both weights.  T/e is stable if T is."""
    u, v = edge
    weights = dict(t.vertices)
    weights[u] += weights.pop(v)
    return tree(weights, [(u if a == v else a, u if b == v else b) for a, b in t.edges if (a, b) != edge])


def root_blocks(t: WeightedTree) -> dict:
    """The root of `contract_F_m(t)` that each vertex's marks land on, as
    `find_central` places it: the branch at the central vertex holding the
    vertex, named by the centre's neighbour on it, or None on the central
    vertex, whose marks are simple roots, one each.  On the semistable point
    the blocks are the two sides of the half-weight edge, named by their ends."""
    result, adj = find_central(t), adjacency(t)
    if result.edge is not None:
        a, b = result.edge
        side_a = set(walk(adj, a, cut=b)[0])
        return {x: a if x in side_a else b for x in adj}
    c = result.vertex
    blocks = {c: None}
    for n in adj[c]:
        blocks.update(dict.fromkeys(walk(adj, n, cut=c)[0], n))
    return blocks


def roots_refine(t: WeightedTree, edge: tuple[int, int], blocks=None) -> bool:
    """Section 3's map respects degeneration, in linear form: each mark is
    labelled by its vertex of `t`, and the partition of the marks by the roots
    of T/e (`contracted(t, edge)`) refines their partition by the roots of T,
    `blocks` (`root_blocks(t)`, computed when not given, so that checks at
    several edges can share it)."""
    u, v = edge
    fine, coarse = root_blocks(contracted(t, edge)), blocks or root_blocks(t)
    image: dict = {}  # a block of T/e -> the block of T its first mark lies in
    for x, w in t.vertices:
        block = fine[u if x == v else x]
        if block is None:  # a simple root of T/e refines any block
            continue
        for i in range(w):
            outer = (x, i) if coarse[x] is None else coarse[x]  # T's simple roots, one each
            if image.setdefault(block, outer) != outer:
                return False
    return True


def coarsens(fine: tuple[int, ...], coarse: tuple[int, ...]) -> bool:
    """Whether the parts of `fine` group into blocks summing to the parts of
    `coarse`: roots of multiplicities `fine` colliding into `coarse`.  A
    brute-force search, one part at a time into a block with room for it."""
    room = list(coarse)

    def place(i: int) -> bool:
        if i == len(fine):
            return not any(room)
        for j, r in enumerate(room):
            if r >= fine[i] and r not in room[:j]:  # equal rooms are tried once
                room[j] -= fine[i]
                if place(i + 1):
                    return True
                room[j] += fine[i]
        return False

    return sum(fine) == sum(coarse) and place(0)


def edge_is_ramified(t: WeightedTree, edge: tuple[int, int], table=None) -> bool:
    """An edge is ramified iff the subtree weight on either side is odd."""
    return side_weight(t, edge, edge[0], table) % 2 == 1


def branch_count(t: WeightedTree, v: int, table=None) -> int:
    """Marks on v plus incident ramified edges; always even for even m."""
    table = table or rooted(t)
    _, _, adj, weight = table
    return weight[v] + sum(edge_is_ramified(t, (v, u), table) for u in adj[v])


def special_points(model: StableHyperellipticModel, cid: int) -> int:
    """Node branches on the component; a self-node counts twice."""
    return sum((a == cid) + (b == cid) for a, b in model.nodes)


def brute_isomorphic(t1: WeightedTree, t2: WeightedTree) -> bool:
    """Weighted-tree isomorphism by trying every vertex bijection."""
    if len(t1.ids) != len(t2.ids):
        return False
    if sorted(w for _, w in t1.vertices) != sorted(w for _, w in t2.vertices):
        return False
    edges1 = set(t1.edges)
    weight1, weight2 = dict(t1.vertices), dict(t2.vertices)
    for perm in permutations(t2.ids):
        mapping = dict(zip(t1.ids, perm))
        if any(weight1[v] != weight2[mapping[v]] for v in t1.ids):
            continue
        mapped = {tuple(sorted((mapping[a], mapping[b]))) for a, b in edges1}
        if mapped == set(t2.edges):
            return True
    return False


def tree_centers(t: WeightedTree) -> list[int]:
    """The one or two centers of the tree, as the middle of a longest path
    found by two walks."""
    adj = adjacency(t)
    far = walk(adj, t.vertices[0][0])[0][-1]
    order, parent = walk(adj, far)
    path = [order[-1]]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    k = len(path)
    return sorted(path[(k - 1) // 2 : k // 2 + 1])


def breadth_first_parents(up: list[int]) -> bool:
    """`WeightedTree._grown`'s contract on the parents `up[v - 1]` of vertices
    v = 1, 2, ..., stated directly: every parent precedes its child, and the
    parents never decrease, starting from 0."""
    return all(map(lt, up, range(1, len(up) + 1))) and all(map(le, chain((0,), up), up))


def walk_canonical_code(t: WeightedTree) -> CanonicalCode:
    """Tree canonical code from three walks: two to find the centers, one to
    encode the subtrees below them."""
    adj, weight = adjacency(t), dict(t.vertices)

    def node_code(v: int, kids: list[CanonicalCode]) -> CanonicalCode:
        return (-1, weight[v], *chain.from_iterable(sorted(kids)), -2)

    def subtree_codes(root: int, cut: int | None = None) -> list[CanonicalCode]:
        order, parent = walk(adj, root, cut)
        kids: dict[int, list[CanonicalCode]] = {root: []}
        for v in order[:0:-1]:  # children before parents, root excluded
            kids.setdefault(parent[v], []).append(node_code(v, kids.pop(v, ())))
        return kids[root]

    centers = tree_centers(t)
    if len(centers) == 1:
        (c,) = centers
        return node_code(c, subtree_codes(c))
    a, b = centers
    below_a, below_b = subtree_codes(a, cut=b), subtree_codes(b, cut=a)
    return min(
        node_code(a, below_a + [node_code(b, below_b)]),
        node_code(b, below_b + [node_code(a, below_a)]),
    )


# -- census oracle: every weighting of every labeled tree -----------------

def max_vertices(m: int) -> int:
    """Stability bounds the vertex count by m - 2: leaves weigh >= 2,
    degree-2 vertices >= 1, and degree >= 3 vertices number at most
    (leaves - 2)."""
    return max(1, m - 2)


def _weightings(lower_bounds: list[int], total: int):
    """All weight vectors >= the per-vertex lower bounds summing to total."""
    slack = total - sum(lower_bounds)
    if slack < 0:
        return
    n = len(lower_bounds)

    def rec(i: int, remaining: int, acc: list[int]):
        if i == n - 1:
            yield acc + [lower_bounds[i] + remaining]
            return
        for extra in range(remaining + 1):
            yield from rec(i + 1, remaining - extra, acc + [lower_bounds[i] + extra])

    yield from rec(0, slack, [])


def _prufer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on ids 0..n-1 with Pruefer sequence `seq`."""
    if n == 1:
        return []
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)  # the smallest remaining leaf
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return edges


def _collect(candidates) -> dict[CanonicalCode, WeightedTree]:
    classes: dict[CanonicalCode, WeightedTree] = {}
    for t in candidates:
        if not validate_stable(t).stable:
            continue
        code = canonical_code(t)
        if code not in classes:
            classes[code] = t
    return classes


def _prufer_classes(m: int) -> dict[CanonicalCode, WeightedTree]:
    """Independent oracle: labeled trees from Pruefer sequences, all weightings."""

    def candidates():
        for n in range(1, max_vertices(m) + 1):
            for seq in product(range(n), repeat=max(0, n - 2)):
                edges = _prufer_edges(seq, n)
                degree = Counter()
                for a, b in edges:
                    degree[a] += 1
                    degree[b] += 1
                bounds = [max(0, 3 - degree[v]) for v in range(n)]
                for weights in _weightings(bounds, m):
                    yield tree(dict(enumerate(weights)), edges)

    return _collect(candidates())


def brute_force_census(m: int, bound: int = 8) -> Census:
    """Same census via the Pruefer-sequence generator: every weighting of
    every labeled tree, kept if stable and deduplicated by canonical code."""
    if not 3 <= m <= bound:
        raise ValueError(f"m must satisfy 3 <= m <= {bound}, got {m}")
    return _make_census(m, _prufer_classes(m).items())


def tail_counts(m: int) -> list[int]:
    """T(w) for w = 0..m, the number of tails of weight w.  A tail is a rooted
    stable tree hanging off one edge.  A weight-w tail, w >= 2, is a root
    weight w - t over a forest of lighter tails weighing t, and is stable for
    every t <= w (a forest weighing w holds two tails or more, one weighing
    w - 1 one or more), so T(w) sums the forest counts, which the Euler
    transform of T gives."""
    T = [0] * (m + 1)
    forests = [1] + [0] * m  # forests[t]: multisets of the tails counted so far weighing t
    for w in range(2, m + 1):
        T[w] = sum(forests[:w + 1])
        # T[w] kinds of weight-w tail: k of them, repeats allowed, in comb(T[w] + k - 1, k) ways
        forests = [sum(comb(T[w] + k - 1, k) * forests[t - k * w] for k in range(t // w + 1))
                   for t in range(m + 1)]
    return T


def dissymmetry_count(m: int) -> int:
    """The census count of weight m by the dissymmetry theorem for trees:
    unrooted = vertex-rooted + edge-rooted - arc-rooted, with no central-vertex
    lemma.  An arc roots an ordered pair of tails (`tail_counts`), an edge an
    unordered one, and only a pair of equal half-weight tails, T(m/2) of
    them, is its own reverse."""
    T = tail_counts(m)
    ordered = sum(T[w] * T[m - w] for w in range(m + 1))
    half = T[m // 2] if m % 2 == 0 else 0
    # A centre weight c over k tails lighter than m weighing m - c, T(m) in all, less
    # the roots with c + k < 3: c = 0 with two tails (the unordered pairs), c = 1 with one.
    vertex_rooted = T[m] - (ordered + half) // 2 - T[m - 1]
    return vertex_rooted - (ordered - half) // 2


def fibre_count(form: BinaryFormClass, T: list[int]) -> int:
    """The stable trees of weight m = len(T) - 1 that `contract_F_m` sends to
    `form`, by Section 3's picture of its fibre, with T = `tail_counts(m)`.
    Over a GIT-stable form, the centre carries the simple roots and one tail
    of weight n per root of multiplicity n >= 2: for the r_n such roots, a
    multiset of r_n tails of T(n) kinds.  Over the semistable point, the
    half-weight edge joins an unordered pair of weight-m/2 tails."""
    if form.semistable_point:
        m = len(T) - 1
        half = T[m // 2] if m % 2 == 0 else 0
        return half * (half + 1) // 2
    return prod(comb(T[n] + r - 1, r) for n, r in Counter(form.multiplicities).items() if n >= 2)


# -- the census against Keel's Betti numbers of M̄_{0,m} (ROADMAP item 24) --

def aut_order(t: WeightedTree) -> int:
    """|Aut T|: the automorphisms of the tree that keep every weight.  The tree
    is rooted at its vertex-count centroid by the oracles' own `walk` and coded
    by nested (weight, sorted child codes) tuples, not `canonical_code`: at
    each vertex, k equal child subtrees are permuted in k! ways, and two
    centroids whose halves code alike are swapped once more."""
    adj, weight = adjacency(t), dict(t.vertices)
    order, parent = walk(adj, t.vertices[0][0])
    n, size = len(order), dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    # a centroid leaves no side of more than n/2 vertices: one, or two adjacent
    centroids = [v for v in order if 2 * (n - size[v]) <= n
                 and all(2 * size[u] <= n for u in adj[v] if u != parent[v])]

    def coded(root: int, cut: int | None = None) -> tuple[tuple, int]:
        """The code and |Aut| of the subtree at `root`, away from `cut`."""
        below, up = walk(adj, root, cut)
        code, aut = {}, 1
        for v in reversed(below):  # children before parents
            kids = sorted(code[u] for u in adj[v] if up.get(u) == v)
            aut *= prod(map(factorial, Counter(kids).values()))
            code[v] = (weight[v], tuple(kids))
        return code[root], aut

    if len(centroids) == 1:
        return coded(centroids[0])[1]
    a, b = centroids
    (code_a, aut_a), (code_b, aut_b) = coded(a, b), coded(b, a)
    return aut_a * aut_b * (2 if code_a == code_b else 1)


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Product of two polynomials in q, as coefficient lists from degree 0."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_add(*ps: list[int]) -> list[int]:
    out = [0] * max(map(len, ps))
    for p in ps:
        for i, a in enumerate(p):
            out[i] += a
    return out


def keel_poincare(m: int) -> list[int]:
    """The Poincaré polynomial P_m(q) of M̄_{0,m} (q of degree 2), as
    coefficients from degree 0, by Keel's recursion:
    P_3 = 1,  P_{n+1} = (1 + q)·P_n + (q/2)·Σ_{j=2}^{n−2} C(n, j)·P_{j+1}·P_{n−j+1}."""
    P = {3: [1]}
    for n in range(3, m):
        joined = poly_add([0], *(poly_mul([comb(n, j)], poly_mul(P[j + 1], P[n - j + 1]))
                                 for j in range(2, n - 1)))
        check(all(c % 2 == 0 for c in joined), f"P_{n + 1}: the sum over j is odd")
        P[n + 1] = poly_add(poly_mul([1, 1], P[n]), [0, *(c // 2 for c in joined)])
    return P[m]


def strata_poincare(m: int, trees) -> list[int]:
    """Σ_T m!/(∏ w_v!·|Aut T|)·∏_v E(M_{0, w_v + deg v})(q) over the classes T
    of weight m, E(M_{0,k}) = (q−2)(q−3)…(q−k+2): the open strata of M̄_{0,m}
    with labelled marks, one per labelled stable tree (which has no
    automorphisms), each a product of M_{0,k}, one per vertex.  Degrees are
    read off the oracles' own `adjacency`."""
    total = [0]
    for t in trees:
        labellings, rest = divmod(factorial(m), prod(factorial(w) for _, w in t.vertices) * aut_order(t))
        check(rest == 0, f"{t}: |Aut| does not divide the labellings")
        adj, stratum = adjacency(t), [labellings]
        for v, w in t.vertices:
            for i in range(2, w + len(adj[v]) - 1):
                stratum = poly_mul(stratum, [-i, 1])
        total = poly_add(total, stratum)
    return total


def leaf_strip_cover(t: WeightedTree):
    """Iterative leaf-stripping construction of the double cover data.

    Strips one leaf at a time; a leaf with odd current weight is ramified over
    its node and passes one extra mark to its neighbour.  Returns the set of
    ramified edges and the branch count of every vertex.
    """
    weights = dict(t.vertices)
    adj = {v: set(ns) for v, ns in adjacency(t).items()}
    remaining = set(t.ids)
    ramified: set[tuple[int, int]] = set()
    branch: dict[int, int] = {}
    while len(remaining) > 1:
        v = min(u for u in remaining if len(adj[u]) == 1)
        (u,) = adj[v]
        if weights[v] % 2:
            ramified.add(tuple(sorted((v, u))))
            branch[v] = weights[v] + 1
            weights[u] += 1
        else:
            branch[v] = weights[v]
        adj[u].discard(v)
        adj[v] = set()
        remaining.discard(v)
    last = next(iter(remaining))
    branch[last] = weights[last]
    return ramified, branch


def cover_connected(cover: CoverModel) -> bool:
    """Whether the cover's components form one connected curve: a walk over
    its nodes by component id, apart from the walk inside `build_cover`."""
    adj: dict[int, set[int]] = {c.id: set() for c in cover.components}
    for node in cover.nodes:
        a, b = node.components
        adj[a].add(b)
        adj[b].add(a)
    seen = {cover.components[0].id}
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == len(adj)


def fixpoint_stable_model(c: CoverModel) -> StableHyperellipticModel:
    """Stable model by contracting one component at a time, rescanning from
    the first component after every contraction until nothing changes."""
    components = {comp.id: comp.genus for comp in c.components}
    nodes = Counter(tuple(sorted(n.components)) for n in c.nodes)

    # Every component's node branches as (component, other end) pairs, built
    # once from the node multiset and then kept in step with it.
    ends_of: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for a, b in nodes.elements():
        ends_of[a].append((a, b))
        ends_of[b].append((b, a))

    changed = True
    while changed:
        changed = False
        for cid, genus in list(components.items()):
            if genus != 0:
                continue
            ends = ends_of[cid]
            if len(ends) == 2 and all(other != cid for _, other in ends):
                (_, n1), (_, n2) = ends
                for _, other in ends:
                    nodes[tuple(sorted((cid, other)))] -= 1
                nodes[tuple(sorted((n1, n2)))] += 1
                for x, y in ((n1, n2), (n2, n1)):
                    ends_of[x].remove((x, cid))
                    ends_of[x].append((x, y))
                del components[cid], ends_of[cid]
                changed = True
                break

    return StableHyperellipticModel(
        components=tuple(sorted(components.items())),
        nodes=tuple(sorted(nodes.elements())),
        g=c.g,
    )


def spliced_stable_model(c: CoverModel) -> StableHyperellipticModel:
    """Contract genus-0 components meeting the rest of the curve in 2 points,
    on any cover: the generic contraction the library ran before it read the
    model off the tree by Section 5's rule.

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


def permutation_model_code(model: StableHyperellipticModel) -> tuple:
    """Model canonical code by index bookkeeping over genus-preserving maps."""
    genera = [genus for _, genus in model.components]
    order = sorted(range(len(genera)), key=lambda i: genera[i])
    target = tuple(genera[i] for i in order)
    groups: dict[int, list[int]] = {}
    for pos, i in enumerate(order):
        groups.setdefault(genera[i], []).append(pos)
    index_of = {cid: i for i, (cid, _) in enumerate(model.components)}

    best = None
    # All relabelings sending each component to a slot of equal genus.
    group_keys = sorted(groups)
    for perms in product(*(permutations(groups[k]) for k in group_keys)):
        slot: dict[int, int] = {}
        for k, perm in zip(group_keys, perms):
            members = [i for i in range(len(genera)) if genera[i] == k]
            for i, pos in zip(members, perm):
                slot[i] = pos
        relabeled = tuple(
            sorted(
                tuple(sorted((slot[index_of[a]], slot[index_of[b]])))
                for a, b in model.nodes
            )
        )
        if best is None or relabeled < best:
            best = relabeled
    return (target, best)


def random_stable_tree(seed: int, n: int, extra: int = 0) -> WeightedTree:
    """Seeded random stable tree of even total weight on n vertices.

    Each vertex gets the least weight that makes it stable, then `extra`
    marks land on random vertices, plus one more if the total is odd.  Ids
    are shuffled so that they carry no structure.
    """
    rng = random.Random(seed)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    degree = Counter(v for e in edges for v in e)
    weights = [max(0, 3 - degree[v]) for v in range(n)]
    for _ in range(extra):
        weights[rng.randrange(n)] += 1
    if sum(weights) % 2:
        weights[rng.randrange(n)] += 1
    ids = rng.sample(range(10 * n), n)
    return tree(
        {ids[v]: w for v, w in enumerate(weights)},
        [(ids[a], ids[b]) for a, b in edges],
    )


def relabeled(t: WeightedTree, seed: int) -> WeightedTree:
    """Copy of `t` with its vertex ids randomly permuted."""
    ids = list(t.ids)
    perm = dict(zip(ids, random.Random(seed).sample(ids, len(ids))))
    return tree(
        {perm[v]: w for v, w in t.vertices},
        [(perm[a], perm[b]) for a, b in t.edges],
    )


def branch_subcover(tree_adj: dict, cover: CoverModel, v: int, u: int) -> tuple[int, int, bool]:
    """The part of `cover` over the branch at `v` through its neighbour `u`
    of the tree with adjacency `tree_adj`: its arithmetic genus, the number of
    nodes joining it to the rest of the cover, and whether it is connected."""
    base = set(walk(tree_adj, u, cut=v)[0])
    genus = {c.id: c.genus for c in cover.components if c.base_vertex in base}
    adj: dict[int, list[int]] = {cid: [] for cid in genus}
    internal = crossing = 0
    for a, b in (node.components for node in cover.nodes):
        if a in genus and b in genus:
            adj[a].append(b)
            adj[b].append(a)
            internal += 1
        else:
            crossing += a in genus or b in genus
    connected = len(walk(adj, next(iter(genus)))[0]) == len(genus)
    return arithmetic_genus(list(genus.values()), internal), crossing, connected


def check_branch_identity(t: WeightedTree) -> int:
    """Check every branch at the central vertex against the paper's tail
    rule, which `reduce` also states: a branch of weight n has a connected
    subcover of arithmetic genus (n - 1) // 2 that meets the rest of the cover
    in one node for odd n and two for even n.  Returns the number of branches
    checked, 0 when the centre is an edge."""
    central = find_central(t)
    if central.edge is not None:
        return 0
    v = central.vertex
    cover, table = build_cover(t), rooted(t)
    _, _, adj, _ = table
    for u in adj[v]:
        n = side_weight(t, (v, u), u, table)
        genus, crossing, connected = branch_subcover(adj, cover, v, u)
        assert connected, (t, u, "disconnected")
        assert genus == (n - 1) // 2, (t, u)
        assert crossing == (1 if n % 2 else 2), (t, u)
    return len(adj[v])


def reconstructed_exponents(t: WeightedTree):
    """Exponents recovered from the cover tails: 2h+1 odd weight, 2h+2 even."""
    result = find_central(t)
    if result.edge is not None:
        return None
    v = result.vertex
    cover, table = build_cover(t), rooted(t)
    _, _, adj, weight = table
    mults = [1] * weight[v]
    for u in adj[v]:
        h, _, connected = branch_subcover(adj, cover, v, u)
        assert connected, "branch subcover is disconnected"
        w = side_weight(t, (v, u), u, table)
        mults.append(2 * h + 1 if w % 2 else 2 * h + 2)
    return sorted(mults, reverse=True)


def model_shape(model: StableHyperellipticModel) -> tuple[list[int], int]:
    """Sorted component genera and node count of a stable model."""
    return sorted(genus for _, genus in model.components), len(model.nodes)


def reduced_shape(out: ReductionOutput) -> tuple[list[int], int]:
    """Sorted component genera and node count of `reduce`'s curve."""
    genera = [0, 0] if out.central_split else [out.central_genus]
    return sorted(genera + [tail.genus for tail in out.tails]), out.node_count


def reduced_curve_unstable(out: ReductionOutput) -> bool:
    """Whether `reduce`'s curve has an unstable component.  A centre that is
    not split is unstable at genus 0 with fewer than three special points: one
    per tail attachment and two per node left by an exponent-2 root.  A split
    centre is two genus-0 sheets, and each even tail and each such node meets
    both, so a sheet is unstable with fewer than three of them.  Tails have
    genus >= 1 and at least one attachment point, so they are stable."""
    if out.central_split:
        return len(out.tails) + out.extra_nodes < 3
    attached = sum(tail.attachment_points for tail in out.tails)
    return out.central_genus == 0 and attached + 2 * out.extra_nodes < 3


def partitions(total: int, top: int):
    """Every partition of `total` with no part above `top`, as a descending
    tuple, in decreasing lexicographic order.

    One list is rewritten in place: the next partition lowers the last part
    above 1 by one and refills what that part and the trailing 1s held,
    greedily, with parts no larger than the lowered one."""
    if total == 0:
        yield ()
        return
    top = min(total, top)
    if top < 1:
        return
    parts = [top] * (total // top) + [total % top] * (total % top > 0)
    while True:
        yield tuple(parts)
        freed = 0
        while parts and parts[-1] == 1:
            parts.pop()
            freed += 1
        if not parts:
            return
        k = parts[-1] - 1
        parts[-1] = k
        whole, rest = divmod(freed + 1, k)
        parts += [k] * whole
        if rest:
            parts.append(rest)


def compositions(total, max_part=None):
    """Every ordered sequence of positive integers summing to `total`, with no
    part above `max_part` when given."""
    if total == 0:
        yield ()
        return
    top = total if max_part is None else min(total, max_part)
    for first in range(1, top + 1):
        for rest in compositions(total - first, max_part):
            yield (first,) + rest


def square_partitions(max_m: int):
    """Every partition of 2g+2 <= `max_m`, with g >= 2 and no part above g,
    as a descending tuple: the stable forms with distinct roots of those
    multiplicities, up to coordinate change."""
    for m in range(6, max_m + 1, 2):
        yield from partitions(m, m // 2 - 1)


def check_exponent_square(p: tuple[int, ...]) -> None:
    """The square from the exponent side: the star with one leaf of weight n
    per part n >= 2 and a centre carrying the simple roots is stable, is
    centred at the centre, contracts back to `p`, and its cover's stable
    model has the component genera and node count of `reduce(p)`."""
    t = star_tree(p.count(1), *[n for n in p if n >= 2])
    assert validate_stable(t).stable, p
    assert find_central(t) == CentralResult(vertex=0), p
    assert contract_F_m(t).multiplicities == p, p
    assert model_shape(stable_model(build_cover(t))) == reduced_shape(reduce(ExponentVector(p))), p


def two_vertex_tree(j: int, m: int) -> WeightedTree:
    return tree({0: j, 1: m - j}, [(0, 1)])


def cyclic_garbage(work) -> tuple[int, Counter]:
    """What `work()` leaves reachable only through reference cycles: run with
    the collector off, then one collection's count and, saved by
    `DEBUG_SAVEALL`, the types of the objects it found."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        work()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        return found, Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def traced_peak(work):
    """`work()`'s result and the peak bytes `tracemalloc` saw it hold."""
    tracemalloc.start()
    try:
        result = work()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tree_from_json(text: str) -> WeightedTree:
    """A tree from JSON text: `json.loads`, then `from_dict`."""
    return WeightedTree.from_dict(json.loads(text))


def checkout_env() -> dict:
    """The environment with this checkout's package first on `PYTHONPATH`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's package."""
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=checkout_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )


def over_long_integer() -> str:
    """A JSON integer literal one digit longer than `int()` may convert from a
    string; skips the calling test on an interpreter without that limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no limit on integer string conversion")
    return "1" * (limit + 1)
