"""Weighted dual trees of stable marked genus-0 curves.

A curve is recorded by its dual tree: one vertex per component, carrying the
number of marked points on that component, and one edge per node of the curve.
Markings are unordered, so a vertex weight is the only marking data.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect
from collections import deque, namedtuple
from functools import cached_property, partial, wraps
from itertools import chain, islice, takewhile
from operator import getitem, is_not, itemgetter

DEFAULT_BOUND = 10  # the census's default cap on m; here so the CLI parser need not load it
# The largest central vertex weight (`contract_F_m`), exponent (`blowup_chain`)
# or census class count (`enumerate_stable_trees`) listed out: at most 10**7
# list entries, 80 MB of pointers.
MAX_LISTED = 10**7


class InvalidTreeError(ValueError):
    """The input does not describe a weighted tree."""


class UnstableTreeError(ValueError):
    """The operation requires a stable weighted tree."""


class InvariantError(AssertionError):
    """An internal invariant failed: a bug, never bad input."""


def check(cond: bool, msg: str) -> None:
    """Raise InvariantError unless `cond`; unlike `assert`, survives `python -O`."""
    if not cond:
        raise InvariantError(msg)


def without_collector(fn):
    """`fn` run with the cyclic collector off.  The library makes no reference
    cycles, so the collector would only rescan live data: named-tuple records
    (trees, cover components and nodes) are never untracked, so each young
    collection walks them again.  The caller's setting comes back afterwards,
    on success and on every error."""

    @wraps(fn)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()

    return paused


def is_int(x) -> bool:
    """A JSON integer: an `int` that is not a `bool`."""
    return isinstance(x, int) and not isinstance(x, bool)


def json_array(doc, field: str, error: type[ValueError] = ValueError, required=True) -> list:
    """`doc[field]`, checked to be an array; [] if absent and not `required`."""
    if not isinstance(doc, dict):
        raise error("input must be a JSON object")
    value = doc.get(field, None if required else [])
    if not isinstance(value, (list, tuple)):
        raise error(f"field {field!r} must be an array" if field in doc else f"missing field {field!r}")
    return value


CanonicalCode = tuple[int, ...]


def arithmetic_genus(genera: list[int], nodes: int) -> int:
    """p_a = sum(g) + delta - c + 1 of a connected nodal curve: its c
    components have geometric genera `genera`, and it has delta = `nodes`.
    Here, in the layer both `covers` and `reduction` load, so `reduce` need not load `covers`."""
    return sum(genera) + nodes - len(genera) + 1


def checked_make(cls, fields):
    """`_make`, and so `_replace`, through the validating constructor."""
    return cls(*fields)


def read_only(self, name, *value):
    """`__setattr__` and `__delattr__` of a record that keeps a `__dict__` for
    cached tables, which `cached_property` fills without calling either."""
    raise AttributeError(f"cannot assign to or delete {name!r}: {type(self).__name__} is immutable")


PairTable = tuple[list[list[tuple[int, int]]], list[list[tuple[int, int]]]]


def pair_table(m: int) -> PairTable:
    """The vertex and edge pairs of trees with at most m + 1 vertices and
    weights at most m, each built once: row v of the first list holds the
    vertex pairs (v, w) for w = 0..m, and row c - 1 of the second the edge
    pairs (p, c) for p < c, c = 1..m.  About 1.5 m^2 pairs in all."""
    return (
        [[(v, w) for w in range(m + 1)] for v in range(m + 1)],
        [[(p, c) for p in range(c)] for c in range(1, m + 1)],
    )


# A tree's one walk, on positions: vertex i is `vertices[i]`.  `order` lists
# the positions as peeled, leaves first and the root last; `parent` holds each
# vertex's parent (-1 at the root), `below` its subtree weight and `degree` its
# degree; `edges` are the tree's edges on positions.
Rooted = namedtuple("Rooted", "order parent below degree edges")


def peel(vertices: tuple, edges: tuple) -> Rooted | None:
    """The rooted table of a graph on distinct sorted ids whose edges are sorted
    pairs (a, b), a <= b, or None unless the graph is a tree: n - 1 edges,
    every end an id, and one FIFO peel of leaves reaching every vertex.
    Self-loops and repeated edges may be among the edges: a vertex on a loop,
    a repeated edge or a cycle never becomes a leaf, and a peeled leaf has
    exactly one edge to an unpeeled vertex, so its XOR still names that vertex.

    One pass over the edges counts degrees and XORs each vertex's neighbour
    positions together.  A leaf's XOR is then its one unpeeled neighbour, its
    parent; peeling it XORs it out of the parent's, so the table that finds
    the parents also keeps them.  Ids 0..n-1 are their own positions, read
    as they are once every end is in range (-1 would read as the last);
    other ids are mapped once, and an unknown one is caught as a `KeyError`.
    """
    n = len(vertices)
    if len(edges) != n - 1:
        return None
    if vertices[0][0] == 0 and vertices[-1][0] == n - 1:  # sorted distinct ids: exactly 0..n-1
        if edges and (edges[0][0] < 0 or max(map(itemgetter(1), edges)) >= n):  # least end, greatest end
            return None
        ends = edges
    else:
        at = {v: i for i, (v, _) in enumerate(vertices)}
        try:
            ends = [(at[a], at[b]) for a, b in edges]
        except KeyError:
            return None
    degree = [0] * n
    parent = [0] * n  # the XOR of the neighbours not yet peeled
    for a, b in ends:
        degree[a] += 1
        degree[b] += 1
        parent[a] ^= b
        parent[b] ^= a
    left = degree.copy()
    below = [*map(itemgetter(1), vertices)]
    order = [v for v in range(n) if degree[v] < 2]  # degree 0 only when n == 1
    for v in order:  # the list grows while it is read, so it is the queue
        if not left[v]:  # every neighbour peeled: the root, or in a non-tree a component's last
            parent[v] = -1
            break
        u = parent[v]
        below[u] += below[v]
        parent[u] ^= v
        left[u] -= 1
        if left[u] == 1:
            order.append(u)
    if len(order) < n:  # stopped short: a cycle, a loop or a repeated edge
        return None
    return tuple.__new__(Rooted, (order, parent, below, degree, ends))  # no per-field call


class WeightedTree(namedtuple("WeightedTree", "vertices edges")):
    """Weighted tree: vertices are (id, weight) pairs, edges unordered id pairs.

    Immutable after construction; structural validity (connected, acyclic,
    distinct ids, no loops) is enforced here, stability is not.
    """

    def __new__(cls, vertices, edges):
        # Bulk checks first; the per-item loops run only to name the first offender.
        try:
            typed = {*map(type, chain.from_iterable(vertices)),
                     *map(type, chain.from_iterable(edges))} <= {int}
        except TypeError:  # an item that is not a pair
            typed = False
        if not typed:  # name the tokens up to the first item that is no list or tuple
            # Whatever such an item holds, it is no pair: it reads as None, named by its field's shape check.
            vertices, edges = ([x if isinstance(x, (list, tuple)) else None for x in items]
                               for items in (vertices, edges))
            for x in chain.from_iterable(takewhile(partial(is_not, None), chain(vertices, edges))):
                if not is_int(x):
                    raise InvalidTreeError(f"ids and weights must be integers, got {x!r}")
        try:
            verts = tuple(sorted(map(tuple, vertices)))
            weight_of = dict(verts)
        except (TypeError, ValueError):
            raise InvalidTreeError("each vertex must be an (id, weight) pair") from None
        if not verts:
            raise InvalidTreeError("tree has no vertices")
        if len(weight_of) != len(verts):
            raise InvalidTreeError("vertex ids are not distinct")
        if min(weight_of.values()) < 0:
            raise InvalidTreeError("negative vertex weight")
        try:
            edges = tuple(sorted([(a, b) if a < b else (b, a) for a, b in edges]))
        except (TypeError, ValueError):
            raise InvalidTreeError("each edge must be an array of two vertex ids") from None
        rooted = peel(verts, edges)
        if rooted is None:  # not a tree: name the first fault
            for a, b in edges:
                if a == b:
                    raise InvalidTreeError(f"self-loop at vertex {a}")
                if a not in weight_of or b not in weight_of:
                    raise InvalidTreeError(f"edge ({a},{b}) uses unknown vertex")
            if len(set(edges)) != len(edges):
                raise InvalidTreeError("repeated edge")
            if len(edges) != len(verts) - 1:
                raise InvalidTreeError("edge count does not match a tree")
            raise InvalidTreeError("graph is disconnected")
        self = tuple.__new__(cls, (verts, edges))
        self.__dict__["_rooted"] = rooted  # the `cached_property` table, filled here
        return self

    _make = classmethod(checked_make)
    __setattr__ = __delattr__ = read_only

    @classmethod
    def _grown(cls, weights: list[int], up: list[int], pairs: PairTable) -> "WeightedTree":
        """Tree on ids 0..n-1 grown breadth first from root 0: `up[v - 1]` is
        the parent of vertex v, indexed as the edge rows of `pairs` are.

        Trusted path for trees correct by construction (the census): it skips
        the checks of `__new__` and checks only that the parents are breadth
        first: one per vertex 1..n-1, every parent precedes its child
        (`up[v - 1] < v`, so the ids form a tree) and the parents never
        decrease, starting from 0.  Then the edges (up[v - 1], v) come out in
        ascending order, already the sorted normal form of `__new__`, so they
        are not sorted.  The ids are 0..n-1, so they are the peel's positions
        as they are; the peel (`_rooted`) runs on first use, like every other
        cached table.

        The vertex pairs (v, weights[v]) and edge pairs (up[v - 1], v) are
        looked up in `pairs`, a `pair_table` shared by every tree of one
        census, so no pair is allocated per tree.

        Each half of the contract costs one C-level pass.  "Never decreasing,
        from 0" is `up == sorted(up)` with a first parent of at least 0, so
        every parent is at least 0.  "Each before its child" is the edge
        lookup itself: row v - 1 holds (p, v) for 0 <= p < v alone, so a
        parent p >= v raises `IndexError`, reported as the same breach.
        """
        n = len(weights)
        breadth_first = "grown tree: parents must be breadth first, each before its child and never decreasing"
        check(len(up) == n - 1 and up == sorted(up) and (not up or up[0] >= 0), breadth_first)
        vertex_rows, edge_rows = pairs
        check(n <= len(vertex_rows), "grown tree: more vertices than its pair table has rows")
        try:
            edges = tuple(map(getitem, edge_rows, up))
        except IndexError:
            raise InvariantError(breadth_first) from None
        return tuple.__new__(cls, (tuple(map(getitem, vertex_rows, weights)), edges))

    @cached_property
    def m(self) -> int:
        """Total weight: the number of marked points on the curve."""
        return sum(map(itemgetter(1), self.vertices))

    @cached_property
    def _rooted(self) -> Rooted:
        """The tree's one walk (`peel`), which `__new__` runs to prove the
        graph a tree and keeps, and which serves the degrees, side weights,
        cover parities and canonical code."""
        rooted = peel(self.vertices, self.edges)
        check(rooted is not None, "grown tree: the peel must prove it a tree")
        return rooted

    @cached_property
    def _stability(self) -> "StabilityReport":
        """The stability scan (`validate_stable`), kept so that one scan serves
        every layer that requires a stable tree.  The central vertex is kept
        alike, as `_centre` (see `central._central`)."""
        violations = tuple(
            (v, w, d) for (v, w), d in zip(self.vertices, self._rooted.degree) if w + d < 3
        )
        return StabilityReport(stable=not violations, violations=violations)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.vertices)

    # -- serialization ----------------------------------------------------

    @classmethod
    @without_collector
    def from_dict(cls, doc: dict) -> "WeightedTree":
        """The checked tree of a JSON document, read with the cyclic collector
        paused (`without_collector`)."""
        vertices = json_array(doc, "vertices", InvalidTreeError)
        edges = json_array(doc, "edges", InvalidTreeError, required=False)
        try:
            vertices = tuple(map(itemgetter("id", "weight"), vertices))
        except (KeyError, TypeError) as exc:
            raise InvalidTreeError("each vertex must be an object with an id and a weight") from exc
        # Edge shapes come first here, before the constructor's ids and weights;
        # an object or a string may hold two items, but is not an array.
        if not ({*map(type, edges)} <= {list, tuple} and {*map(len, edges)} <= {2}):
            raise InvalidTreeError("each edge must be an array of two vertex ids")
        tree = cls(vertices, edges)
        m = doc.get("m", tree.m)
        if not is_int(m):
            raise InvalidTreeError(f"declared m must be an integer, got {m!r}")
        if m != tree.m:
            raise InvalidTreeError(f"declared m={m} but weights sum to {tree.m}")
        return tree

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "vertices": [{"id": v, "weight": w} for v, w in self.vertices],
            "edges": [[a, b] for a, b in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_dot(self) -> str:
        # A DOT identifier holds no "-": id -3 is named n3, apart from v3 for id 3.
        name = {v: f"v{v}" if v >= 0 else f"n{-v}" for v, _ in self.vertices}
        vertices = (f'  {name[v]} [label="{v}:{w}"];' for v, w in self.vertices)
        edges = (f"  {name[a]} -- {name[b]};" for a, b in self.edges)
        return "\n".join(["graph tree {", *vertices, *edges, "}"])


def tree(weights: dict[int, int], edges=()) -> WeightedTree:
    """Convenience constructor from a weight mapping."""
    return WeightedTree(tuple(weights.items()), tuple(edges))


def path_tree(*weights: int) -> WeightedTree:
    """Path with the given vertex weights, ids 0..n-1 in order."""
    return tree(
        {i: w for i, w in enumerate(weights)},
        [(i, i + 1) for i in range(len(weights) - 1)],
    )


def star_tree(center_weight: int, *leaf_weights: int) -> WeightedTree:
    """Star with center id 0 and leaves 1..k."""
    return tree(
        {0: center_weight, **{i + 1: w for i, w in enumerate(leaf_weights)}},
        [(0, i + 1) for i in range(len(leaf_weights))],
    )


# `violations` holds a (vertex, weight, degree) triple per unstable vertex.
StabilityReport = namedtuple("StabilityReport", "stable violations")


def validate_stable(t: WeightedTree) -> StabilityReport:
    """Check weight + degree >= 3 at every vertex.

    The report is the tree's cached table `_stability`, so a tree is scanned
    once, whichever asks first: this call or a layer that requires a stable tree."""
    return t._stability


def require_stable(t: WeightedTree) -> WeightedTree:
    report = t._stability  # scanned once per tree
    if not report.stable:
        raise UnstableTreeError(
            "tree is not stable; violations at vertices "
            + ", ".join(f"{v} (weight {w}, degree {d})" for v, w, d in report.violations)
        )
    return t


def require_even(t: WeightedTree) -> int:
    """Require a stable tree of even total weight m = 2g+2; return g.

    A stable tree of even weight has m >= 4, so g >= 1.
    """
    require_stable(t)
    if t.m % 2:
        raise ValueError(f"total weight must be even, got m={t.m}")
    return (t.m - 2) // 2


# -- canonical encoding ---------------------------------------------------

def rooted_code(weight: int, below: list[CanonicalCode]) -> CanonicalCode:
    """Code of a vertex of weight `weight` over the codes of its subtrees below.

    Markers -1/-2 open and close a subtree, other entries are vertex weights.
    Subtrees are sorted as flat tuples, which orders them exactly as the
    nested (weight, children) tuples they encode.  `below` is sorted in
    place: every caller builds the list for this call.
    """
    if not below:  # most vertices are leaves: skip the sort and the splat
        return (-1, weight, -2)
    below.sort()
    return (-1, weight, *chain.from_iterable(below), -2)


def two_centre_code(a: int, below_a: list, b: int, below_b, side_b: CanonicalCode) -> CanonicalCode:
    """Code of a tree with adjacent centres of weights `a` and `b` over the codes
    below each, away from the other (a list, sorted in place, and an iterable);
    `side_b` is `rooted_code(b, below_b)`.  A code opens with (-1, its root weight),
    so only the lighter centre's candidate is built, or both on a tie, keeping the smaller."""
    if a < b:
        return rooted_code(a, [*below_a, side_b])
    at_b = rooted_code(b, [*below_b, rooted_code(a, below_a)])
    return at_b if b < a else min(at_b, rooted_code(a, [*below_a, side_b]))


def _extended_code(weight: int, below: list) -> CanonicalCode | deque:
    """`rooted_code`, but a child's code longer than the rest together is
    extended in place at both ends, as a deque: only the shorter ones are copied."""
    if len(below) == 1:  # along a path
        heavy = below[0] if type(below[0]) is deque else deque(below[0])
        heavy.extendleft((weight, -1))
        heavy.append(-2)
        return heavy
    heavy = max(below, key=len)
    rest = sum(map(len, below)) - len(heavy)
    if len(heavy) <= rest:
        return rooted_code(weight, [*map(tuple, below)])
    below.remove(heavy)
    light = sorted(map(tuple, below))
    # No code is a prefix of another: the heavy code's first `rest` tokens place it.
    i = bisect(light, tuple(islice(heavy, rest)))
    heavy = heavy if type(heavy) is deque else deque(heavy)
    heavy.extendleft(reversed((-1, weight, *chain.from_iterable(light[:i]))))
    heavy.extend(chain.from_iterable(light[i:]))
    heavy.append(-2)
    return heavy


@without_collector
def canonical_code(t: WeightedTree) -> CanonicalCode:
    """Integer sequence identifying the weighted tree up to isomorphism.

    AHU-style encoding rooted at the structural center; with two centers,
    `two_centre_code`, given the lighter one first, keeps the smaller rooted
    code; each vertex is encoded as by `rooted_code`.

    The codes are built along the tree's one leaf peel (`_rooted`): each
    peeled vertex's code goes to its parent.  The FIFO peel takes the leaves
    layer by layer, so a vertex's layer is one above its last-peeled child's.
    The root is peeled last and is a center; its last child, peeled just
    before it, is the other center exactly when the two share a layer, that
    is, when the root's other children put it in that child's layer.  Each
    token is copied O(log n) times on n vertices: once per layer in the first
    log2(n) layers (`rooted_code`), then only into a code at least twice as
    long, or once into a deque that `_extended_code` extends in place.
    It runs with the cyclic collector paused (`without_collector`).
    """
    order, parent, _, _, _ = t._rooted
    weight = [*map(itemgetter(1), t.vertices)]
    n = len(order)
    kids: list[list] = [[] for _ in order]
    height = [0] * n
    copying = n.bit_length()  # layers below this are coded by `rooted_code`
    for v in order[:-2]:  # all but the last two
        h = height[v]
        u = parent[v]
        kids[u].append((rooted_code if h < copying else _extended_code)(weight[v], kids[v]))
        height[u] = 1 + h  # one above its last-peeled child
    c = order[-1]
    if n > 1:
        a = order[-2]  # the root's last child; the root's height does not count it yet
        if height[a] == height[c]:  # two centers
            (wa, below_a), (wb, below_b) = sorted(
                ((weight[v], [*map(tuple, kids[v])]) for v in (a, c)), key=itemgetter(0))
            return two_centre_code(wa, below_a, wb, below_b, rooted_code(wb, below_b))
        build = rooted_code if height[a] < copying else _extended_code
        kids[c].append(build(weight[a], kids[a]))
        return tuple(build(weight[c], kids[c]))
    return rooted_code(weight[c], kids[c])
