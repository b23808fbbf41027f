"""Boundary strata of the stable hyperelliptic moduli and their images in forms.

Two-vertex trees are the divisorial strata: smaller weight j odd gives
delta_i, j even xi_i, with i = (j-1)//2, and j = g+1 lands on the semistable
point.  Deeper strata (three or more vertices) only get their codimension.
A stratum is read off the tree's shape; the map itself is `central.f_g_exponents`.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import compress
from operator import itemgetter

from .trees import WeightedTree, check, is_int, require_even

INTERIOR = "interior"
DELTA = "delta"
XI = "xi"
DEEPER = "deeper"
SEMISTABLE_IMAGE = "semistable_image"


class StratumLabel(namedtuple("StratumLabel", "kind index codimension underlying",
                              defaults=(None, None, None))):
    """A stratum kind; `index` is i for delta/xi, `codimension` the edge count of
    a deeper stratum, `underlying` the divisor whose image is the semistable point."""

    __slots__ = ()

    def to_dict(self) -> dict:
        doc = {name: value for name, value in self._asdict().items() if value is not None}
        if self.underlying is not None:
            doc["underlying"] = self.underlying.to_dict()
        return doc

    def __str__(self) -> str:
        if self.kind == DELTA:
            return f"delta_{self.index}"
        if self.kind == XI:
            return f"xi_{self.index}"
        if self.kind == DEEPER:
            return f"deeper_codim_{self.codimension}"
        if self.kind == SEMISTABLE_IMAGE:
            return f"semistable({self.underlying})"
        return self.kind


def classify_stratum(t: WeightedTree) -> StratumLabel:
    """Boundary stratum of the stable tree inside the hyperelliptic moduli."""
    return _label(_shape(t), require_even(t))


def _shape(t: WeightedTree) -> tuple[int, int | None]:
    """Vertex count and, with two vertices, the smaller weight: all that a
    stable tree's stratum depends on."""
    vs = t.vertices
    return len(vs), (min(vs[0][1], vs[1][1]) if len(vs) == 2 else None)


def _label(shape: tuple[int, int | None], g: int) -> StratumLabel:
    """Stratum of a stable tree of weight 2g+2 with this `_shape`."""
    n, j = shape
    if n == 1:
        return StratumLabel(INTERIOR)
    if n > 2:
        return StratumLabel(DEEPER, codimension=n - 1)  # the edge count of a tree
    # Unordered marks identify weight splits (j, m-j) and (m-j, j), and each
    # end of a stable edge carries at least two marks.
    check(2 <= j <= g + 1, f"two-vertex split of {2 * g + 2} has smaller weight {j}")
    label = StratumLabel(DELTA if j % 2 else XI, index=(j - 1) // 2)
    if j == g + 1:
        return StratumLabel(SEMISTABLE_IMAGE, underlying=label)
    return label


def count_strata(trees: list[WeightedTree], g: int) -> tuple[tuple[str, int], ...]:
    """(label, count) pairs of stable trees of weight 2g+2, in label order.
    Trees are counted by vertex count in one C-level pass and each count is
    labelled once, but for the few two-vertex trees: their labels need their
    smaller weights, so they are labelled one by one."""
    sizes = list(map(len, map(itemgetter(0), trees)))  # item 0 is a tree's vertices
    counts = Counter()
    for n, k in Counter(sizes).items():
        if n != 2:
            counts[str(_label((n, None), g))] += k
    for t in compress(trees, map((2).__eq__, sizes)):
        counts[str(_label(_shape(t), g))] += 1
    return tuple(sorted(counts.items()))


def image_dimension(label: StratumLabel, g: int) -> int | None:
    """Dimension of the image of the stratum under the map to binary forms,
    or None where the paper gives no closed form: a deeper stratum, or g < 2."""
    if not is_int(g):
        raise ValueError(f"g must be an integer, got {g!r}")
    if g < 2 or label.kind == DEEPER:
        return None
    if label.kind == INTERIOR:
        return 2 * g - 1
    if label.kind == SEMISTABLE_IMAGE:
        return 0
    if label.kind == DELTA:
        return 2 * g - 2 * label.index - 1
    return 2 * g - 2 * label.index - 2  # xi_i
