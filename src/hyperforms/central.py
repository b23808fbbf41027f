"""Central vertex of a stable weighted tree and branch contraction.

Off the half-weight edge, a stable tree has a unique vertex all of whose
complementary subtrees weigh less than m/2; contracting every branch to a
point of that central component yields a stable binary form.  When an edge
splits the weight evenly the whole tree maps to the semistable point.  On
trees of even weight 2g+2 this contraction is the map f_g to binary forms.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, repeat
from operator import eq, ge

from .forms import BinaryFormClass
from .trees import MAX_LISTED, WeightedTree, check, checked_make, require_even, require_stable


class CentralResult(namedtuple("CentralResult", "vertex edge")):
    """Either a central vertex or the unique half-weight (semistable) edge."""

    __slots__ = ()

    def __new__(cls, vertex: int | None = None, edge: tuple[int, int] | None = None):
        if (vertex is None) == (edge is None):
            raise ValueError("exactly one of vertex/edge must be set")
        return tuple.__new__(cls, (vertex, edge))

    _make = classmethod(checked_make)

    def to_dict(self) -> dict:
        if self.edge is not None:
            return {"kind": "semistable_edge", "edge": list(self.edge)}
        return {"kind": "central_vertex", "vertex": self.vertex}


def _central(t: WeightedTree) -> tuple[CentralResult, tuple[int, ...], int]:
    """`find_central`, with the side weights at the central vertex that its
    check computed and the vertex's own weight, read at its position: Section
    3's witness that it is central (no sides and weight 0 for the half-weight edge).

    Kept with the tree's cached tables, as `_centre`, beside the stability
    report: `find_central`, `contract_F_m` and `f_g_exponents` scan a tree
    once between them."""
    kept = t.__dict__.get("_centre")
    if kept is not None:
        return kept
    require_stable(t)
    m = t.m
    _, parent, below, _, _ = t._rooted
    # 2 * w >= m, for integers, is w >= m - m // 2.
    heavy = compress(range(len(below)), map(ge, below, repeat(m - m // 2)))
    i = min(heavy, key=below.__getitem__)  # a position; ids only from here on
    v = t.vertices[i][0]
    if 2 * below[i] == m:
        kept = CentralResult(edge=tuple(sorted((t.vertices[parent[i]][0], v)))), (), 0
    else:
        # A child's side weighs its subtree; the parent's, which the root lacks, the rest.
        sides = [*compress(below, map(eq, parent, repeat(i)))]
        if parent[i] >= 0:
            sides.append(m - below[i])
        sides.sort()
        check(all(2 * w < m for w in sides), "central vertex has a side weighing at least m/2")
        kept = CentralResult(vertex=v), tuple(sides), t.vertices[i][1]
    t.__dict__["_centre"] = kept
    return kept


def find_central(t: WeightedTree) -> CentralResult:
    """Locate the central vertex, or the half-weight edge, in one scan.

    Rooted anywhere, the vertices whose subtree weighs at least m/2 form a
    chain down from the root, so the lightest of them, `v`, is its end.  If
    `v`'s subtree weighs exactly m/2, the edge above `v` is the half-weight
    edge; otherwise every side at `v` weighs less than m/2 and `v` is central.
    """
    return _central(t)[0]


def contract_F_m(t: WeightedTree) -> BinaryFormClass:
    """Contract all branches at the central vertex to a binary form class.

    Each complementary subtree becomes one root with multiplicity its weight;
    each marked point on the central component becomes a simple root.  A tree
    with a half-weight edge maps to the semistable point.
    """
    result, sides, simple = _central(t)
    if result.edge is not None:
        return BinaryFormClass(semistable_point=True)
    if simple > MAX_LISTED:  # refused before `(1,) * simple` is built
        raise ValueError(f"central vertex weight {simple} exceeds {MAX_LISTED}: "
                         "too many simple roots to list")
    form = BinaryFormClass(sides + (1,) * simple)
    check(form.degree == t.m, "contracted form degree differs from m")
    return form


def f_g_exponents(t: WeightedTree) -> BinaryFormClass:
    """`contract_F_m` on a tree of even weight 2g+2: the curve's binary-form class.

    The exponent of a contracted branch is its subtree weight; equivalently
    2h+1 for a tail of genus h attached at one point, 2h+2 at two points.
    """
    require_even(t)
    return contract_F_m(t)
