"""Exhaustive enumeration of stable weighted-tree classes of a given total weight.

The census is built from the paper's central-vertex lemma: a stable tree has
either a unique vertex whose branches all weigh less than m/2, or a unique
edge splitting the weight (m/2, m/2).  So a class is a centre weight plus a
multiset of rooted stable tails lighter than m/2, or an unordered pair of
tails of weight m/2.  Both are one rooted form, a root weight over child
tails: the pair is the first tail's root with the second tail hung below it.
Tails are drawn from one table in a fixed order, so each class is built
exactly once: there is no stability filter and no dedup pass.

The multisets of tails come from one forest table, the one Otter's count of
trees folds, tail by tail: `_central_classes` states when a tail is folded and
`_fold` how, so each multiset is built once and the rows share their tuples.
A class holds at most two half-weight tails, so they are paired directly.

Each tail's rooted code and height are computed once, when it joins the
table.  A class's canonical code is then a short walk from its root toward
the tree's centre, stepping into the deepest child tail while that lowers the
eccentricity; no tree is walked or peeled for its code.  At two centres, the
walk hands the deep child's code to `trees.two_centre_code`, which picks the code.

Each tree is grown from one queue of tail indices, breadth first, so it meets
the contract that the trusted `WeightedTree._grown` states and checks, and it
is not validated again.  A tree's (id, weight) and (parent, child) pairs come
from one table per census, `pair_table(m)`, about 1.5 m^2 pairs, so the trees
share them and no tree allocates a pair of its own.

The stratum counts come from `strata.count_strata`, which labels each shape
of tree once.

The test suite checks the census against an independent Pruefer-sequence
oracle, checks every code against `canonical_code`, and pins every tree to
the checked constructor.
"""

from __future__ import annotations

from collections import namedtuple

from .strata import count_strata
from .trees import (
    DEFAULT_BOUND, MAX_LISTED, CanonicalCode, PairTable, WeightedTree, checked_make, is_int, pair_table,
    rooted_code, two_centre_code, without_collector,
)


class Census(namedtuple("Census", "m classes stratum_counts")):
    """All stable weighted-tree classes of total weight m, in code order:
    `classes` holds (code, tree) pairs, `stratum_counts` (label, count) pairs."""

    __slots__ = ()
    # `len` is the class count, so the stock `_make`'s length check misfires.
    _make = classmethod(checked_make)

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def trees(self) -> tuple[WeightedTree, ...]:
        return tuple(t for _, t in self.classes)

    @property
    def codes(self) -> tuple[CanonicalCode, ...]:
        return tuple(code for code, _ in self.classes)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "count": len(self.classes),
            "classes": [t.to_dict() for t in self.trees],
            "stratum_counts": dict(self.stratum_counts),
        }


# -- the census, built outward from the central vertex --------------------

Tail = tuple[int, tuple[int, ...]]  # root weight, child tails as table indices
MAX_M = 20  # the largest m listed: 8,044,399 classes, and more than `MAX_LISTED` at m = 21


def _fold(forests: list[list[tuple[int, ...]]], i: int, w: int) -> None:
    """Add tail i, of weight w, to the forest table: row t gains tail i over
    every multiset in row t - w.  Rows are taken in rising order, so row t - w
    already holds the multisets with i in them, and a multiset with k copies of
    i is built once, from the one with k - 1.  A module function, not a
    closure, so a census leaves no reference cycle behind."""
    for t in range(w, len(forests)):
        forests[t] += [(i, *rest) for rest in forests[t - w]]


def _central_classes(m: int) -> list[tuple[CanonicalCode, WeightedTree]]:
    """Every stable class of weight m with its code, built once around its
    central vertex or edge.

    A tail is a rooted stable tree hanging off one edge: a root weight `a` and a
    multiset of lighter tails, with a + children + 1 >= 3 (the +1 is the edge
    up).  `tails` lists them by weight, and a multiset of tails is a
    non-increasing tuple of indices into it, so each multiset appears once.
    `forests[t]` lists the multisets of the folded tails that weigh t.  The
    weight-w tails are built from a root weight `a` over a multiset in row
    w - a, and folded right after, if light: 2w < m.
    A class is one more root of that form: a centre weight c over a multiset
    in row m - c, or, across a half-weight edge, the root of half-weight
    tail i over tail j >= i and the tails of i.
    """
    tails: list[Tail] = []
    code: list[CanonicalCode] = []  # code[i] encodes tails[i] rooted at its root
    height: list[int] = []  # height[i] is the depth of tails[i] below its root
    # forests[t]: the multisets of the folded tails weighing t
    forests: list[list[tuple[int, ...]]] = [[()], *([] for _ in range(m))]

    for w in range(2, m // 2 + 1):
        start = len(tails)  # index of the first weight-w tail
        for a in range(w + 1):
            for kids in forests[w - a]:
                if a + len(kids) + 1 >= 3:
                    tails.append((a, kids))
                    code.append(rooted_code(a, [code[k] for k in kids]))
                    height.append(max((height[k] + 1 for k in kids), default=0))
        if 2 * w < m:  # light tails fold; half-weight ones never do
            for i in range(start, len(tails)):
                _fold(forests, i, w)

    def centre_code(a: int, kids: tuple[int, ...]) -> CanonicalCode:
        """Code of the tree rooted at a vertex of weight `a` over child tails
        `kids`: walk into the deepest child while the eccentricity drops,
        carrying the part left behind as one more branch, `up`."""
        up: list[CanonicalCode] = []
        up_depth = 0  # depth of `up` seen from the current vertex
        while kids:
            hs = list(map(height.__getitem__, kids))
            top = max(hs)
            j = hs.index(top)  # the first deepest child
            hs[j] = up_depth - 1  # now max(hs) + 1 is the depth of what is left behind
            d1, d2 = top + 1, max(hs) + 1
            if d1 <= d2:  # the current vertex is the one centre
                break
            b, below = tails[kids[j]]
            left = [*map(code.__getitem__, kids), *up]
            side = left.pop(j)  # the deep child's code
            if d1 == d2 + 1:  # two centres, the current vertex and the deep child
                return two_centre_code(a, left, b, map(code.__getitem__, below), side)
            up, up_depth = [rooted_code(a, left)], d2 + 1
            a, kids = b, below
        return rooted_code(a, [*map(code.__getitem__, kids), *up])

    roots = [(c, kids) for c in range(m + 1) for kids in forests[m - c] if c + len(kids) >= 3]
    if m % 2 == 0:  # half-weight classes
        half = range(start, len(tails))  # the last weight's tails: m/2
        roots += [(tails[i][0], (j, *tails[i][1])) for i in half for j in half if i <= j]
    pairs = pair_table(m)  # every class's vertex and edge pairs, built once
    return [(centre_code(a, kids), _build(a, kids, tails, pairs)) for a, kids in roots]


def _build(a: int, kids: tuple[int, ...], tails: list[Tail], pairs: PairTable) -> WeightedTree:
    """The root of weight `a` as id 0, then its child tails breadth first, ids
    in build order.  A half-weight class hangs its second tail first, so the
    half-weight edge is (0, 1).  Its pairs come from the census's `pairs`."""
    weights = [a]
    up = [0] * len(kids)  # up[v - 1] is vertex v's parent
    queue = list(kids)  # tail indices: vertex j + 1 is queue[j]
    for v, i in enumerate(queue, 1):  # the list grows while it is read
        b, below = tails[i]
        weights.append(b)
        if below:  # most vertices are leaves: skip the empty extends
            up += [v] * len(below)
            queue += below
    return WeightedTree._grown(weights, up, pairs)


def _make_census(m: int, classes) -> Census:
    """Census from (code, stable tree) pairs with distinct codes, in code order."""
    # Keyed: bare pairs would sort the same, but each comparison would scan
    # the two codes twice, once for equality and once for order.
    ordered = tuple(sorted(classes, key=lambda pair: pair[0]))
    if m % 2 == 0:
        stratum_counts = count_strata([t for _, t in ordered], (m - 2) // 2)
    else:
        stratum_counts = ()
    return Census(m=m, classes=ordered, stratum_counts=stratum_counts)


@without_collector
def enumerate_stable_trees(m: int, bound: int = DEFAULT_BOUND) -> Census:
    """Census of all stable weighted-tree classes of total weight m.

    It runs with the cyclic collector paused (`trees.without_collector`): its
    `WeightedTree` records are named tuples, which the collector never
    untracks, and it makes no reference cycles.  The caller's setting comes
    back afterwards, on success and on every error.
    """
    for name, x in (("m", m), ("bound", bound)):
        if not is_int(x):
            raise ValueError(f"{name} must be an integer, got {x!r}")
    if not 3 <= m <= bound:
        raise ValueError(f"m must satisfy 3 <= m <= {bound}, got {m}")
    if m > MAX_M:  # refused before any forest row is built
        raise ValueError(f"m = {m} exceeds {MAX_M}: more than {MAX_LISTED} classes to list")
    return _make_census(m, _central_classes(m))
