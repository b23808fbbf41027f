"""Central vertex of a stable weighted tree and branch contraction.

Off the half-weight edge, a stable tree has a unique vertex all of whose
complementary subtrees weigh less than m/2; contracting every branch to a
point of that central component yields a stable binary form.  When an edge
splits the weight evenly the whole tree maps to the semistable point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forms import BinaryFormClass
from .trees import (
    InvariantError,
    WeightedTree,
    check,
    complementary_subtree_weights,
    require_stable,
)


@dataclass(frozen=True)
class CentralResult:
    """Either a central vertex or the unique half-weight (semistable) edge."""

    vertex: int | None = None
    edge: tuple[int, int] | None = None

    def __post_init__(self):
        if (self.vertex is None) == (self.edge is None):
            raise ValueError("exactly one of vertex/edge must be set")

    @property
    def is_semistable_edge(self) -> bool:
        return self.edge is not None

    def to_dict(self) -> dict:
        if self.edge is not None:
            return {"kind": "semistable_edge", "edge": list(self.edge)}
        return {"kind": "central_vertex", "vertex": self.vertex}


def half_weight_edge(t: WeightedTree) -> tuple[int, int] | None:
    """The edge splitting the total weight as (m/2, m/2), if any."""
    m = t.m
    if m % 2:
        return None
    for a, b in t.edges:
        if 2 * t.side_weight((a, b), toward=a) == m:
            return (a, b)
    return None


def is_central(t: WeightedTree, v: int) -> bool:
    """Direct test of the definition: every complementary subtree < m/2."""
    return all(2 * w < t.m for w in complementary_subtree_weights(t, v))


def find_central(t: WeightedTree) -> CentralResult:
    """Locate the central vertex by walking toward the heavy side.

    Starting anywhere, step across the unique edge whose far side weighs more
    than m/2; the maximal complementary weight strictly decreases, so the walk
    terminates at the central vertex without revisiting anything.
    """
    require_stable(t)
    edge = half_weight_edge(t)
    if edge is not None:
        return CentralResult(edge=edge)
    m = t.m
    v = t.ids[0]
    prev = None
    for _ in range(len(t.ids)):
        heavy = [
            u for u in t.neighbors(v) if 2 * t.side_weight((v, u), toward=u) > m
        ]
        if not heavy:
            return CentralResult(vertex=v)
        check(len(heavy) == 1, "more than one heavy side at a vertex")
        (nxt,) = heavy
        check(nxt != prev, "walk revisited a vertex")
        prev, v = v, nxt
    raise InvariantError("central-vertex walk did not terminate")


def contract_F_m(t: WeightedTree) -> BinaryFormClass:
    """Contract all branches at the central vertex to a binary form class.

    Each complementary subtree becomes one root with multiplicity its weight;
    each marked point on the central component becomes a simple root.  A tree
    with a half-weight edge maps to the semistable point.
    """
    result = find_central(t)
    if result.is_semistable_edge:
        return BinaryFormClass.semistable()
    v = result.vertex
    mults = complementary_subtree_weights(t, v) + [1] * t.weight(v)
    form = BinaryFormClass.from_multiplicities(mults)
    check(form.degree == t.m, "contracted form degree differs from m")
    return form
