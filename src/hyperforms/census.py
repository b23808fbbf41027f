"""Exhaustive enumeration of stable weighted-tree classes of a given total weight.

The census is built from the paper's central-vertex lemma: a stable tree has
either a unique vertex whose branches all weigh less than m/2, or a unique
edge splitting the weight (m/2, m/2).  So a class is a centre weight over a
multiset of rooted stable tails lighter than m/2, or an unordered pair of
half-weight tails: the first tail's root with the second hung below it.
Each class is built exactly once: there is no stability filter and no dedup.

The multisets come from one forest table, the one Otter's count of trees
folds tail by tail (`_fold`), so each is built once and the rows share their
tuples.  Each tail's rooted code and height are computed once, when it joins
the table.

`_central_classes` reads each class root straight off its forest row, then
the half-weight pairs, and codes and grows the class in one loop body.  The
code is a short walk from the root toward the tree's centre, into the deepest
child tail while that lowers the eccentricity (`trees.two_centre_code` picks
it at two centres), so no tree is walked or peeled for its code.  The tree is
grown breadth first from one queue of tail indices, which meets the contract
of the trusted `WeightedTree._grown`; its (id, weight) and (parent, child)
pairs come from one `pair_table(m)` per census, shared by all its trees.

`strata.count_strata` counts the trees by vertex count.  The test suite checks
the census against an independent Pruefer-sequence oracle, every code against
`canonical_code`, and every tree against the checked constructor.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .strata import count_strata
from .trees import (
    DEFAULT_BOUND, MAX_LISTED, CanonicalCode, WeightedTree, checked_make, is_int, pair_table,
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

    A tail is a rooted stable tree hanging off one edge: a root weight `a` over a
    multiset of lighter tails.  `tails` lists them by weight; a multiset is a
    non-increasing tuple of indices into it, so each appears once.  `forests[t]`
    lists the multisets of the folded tails that weigh t.  The weight-w tails
    are built from a root weight `a` over a multiset in row w - a, and folded
    after them all, if light: 2w < m.  So each is stable, a + children + 1 >= 3
    (+1 for the edge up), with no test: a = w >= 2, row 1 is empty, and rows
    w - a >= 2 hold multisets of one tail or more, two at a = 0, each lighter than w.
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
                tails.append((a, kids))
                code.append(rooted_code(a, [code[k] for k in kids]))
                height.append(max((height[k] + 1 for k in kids), default=0))
        if 2 * w < m:  # light tails fold; half-weight ones never do
            for i in range(start, len(tails)):
                _fold(forests, i, w)

    height_of, code_of = height.__getitem__, code.__getitem__

    def centre_code(a: int, kids: tuple[int, ...]) -> CanonicalCode:
        """Code of the tree rooted at a vertex of weight `a` over child tails
        `kids`: walk into the deepest child while the eccentricity drops,
        carrying the part left behind as one more branch, `up`."""
        up: list[CanonicalCode] = []
        up_depth = 0  # depth of `up` seen from the current vertex
        while kids:
            hs = list(map(height_of, kids))
            top = max(hs)
            j = hs.index(top)  # the first deepest child
            hs[j] = up_depth - 1  # now max(hs) + 1 is the depth of what is left behind
            d1, d2 = top + 1, max(hs) + 1
            if d1 <= d2:  # the current vertex is the one centre
                break
            b, below = tails[kids[j]]
            left = [*map(code_of, kids), *up]
            side = left.pop(j)  # the deep child's code
            if d1 == d2 + 1:  # two centres, the current vertex and the deep child
                return two_centre_code(a, left, b, map(code_of, below), side)
            up, up_depth = [rooted_code(a, left)], d2 + 1
            a, kids = b, below
        return rooted_code(a, [*map(code_of, kids), *up])

    rows = [(c, forests[m - c]) for c in range(m + 1)]  # unfiltered: each tail < m/2, so c + len(kids) >= 3
    if m % 2 == 0:  # tail i's root over tail j >= i and the tails of i
        half = range(start, len(tails))  # the last weight's tails: m/2
        rows += [(tails[i][0], [(j, *tails[i][1]) for j in half[i - start:]]) for i in half]
    pairs = pair_table(m)  # every class's vertex and edge pairs, built once
    grown = WeightedTree._grown
    classes = []
    # Ids in build order: the root 0, then the tails breadth first, so a
    # half-weight class hangs its second tail first, on the edge (0, 1).
    for a, row in rows:
        for kids in row:
            weights = [a]
            up = [0] * len(kids)  # up[v - 1] is vertex v's parent
            queue = list(kids)  # tail indices: vertex j + 1 is queue[j]
            for v, i in enumerate(queue, 1):  # the list grows while it is read
                b, below = tails[i]
                weights.append(b)
                if below:  # most vertices are leaves: skip the empty extends
                    up += [v] * len(below)
                    queue += below
            classes.append((centre_code(a, kids), grown(weights, up, pairs)))
    return classes


def _make_census(m: int, classes: list) -> Census:
    """Census from a list of (code, stable tree) pairs with distinct codes,
    which it sorts in place into code order."""
    # Keyed: bare pairs would sort the same, but each comparison would scan
    # the two codes twice, once for equality and once for order.
    classes.sort(key=itemgetter(0))
    counts = count_strata(list(map(itemgetter(1), classes)), (m - 2) // 2) if m % 2 == 0 else ()
    return Census(m=m, classes=tuple(classes), stratum_counts=counts)


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
