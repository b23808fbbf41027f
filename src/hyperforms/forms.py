"""Binary-form classes recorded by root multiplicities, with GIT classification.

A form of degree m is kept only up to coordinate change, so the invariant data
is the multiset of root multiplicities; all strictly semistable forms of even
degree are collapsed to one distinguished semistable-point value.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .trees import checked_make, is_int


class GitClass(enum.Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly_semistable"
    UNSTABLE = "unstable"


class BinaryFormClass(namedtuple("BinaryFormClass", "multiplicities semistable_point")):
    """Multiset of root multiplicities, or the distinguished semistable point.

    Roots carry no coordinates: two classes compare equal iff their
    multiplicity multisets agree (the stratum-level notion of equality).
    """

    __slots__ = ()

    def __new__(cls, multiplicities=(), semistable_point: bool = False):
        if not isinstance(semistable_point, bool):
            raise ValueError(f"semistable_point must be a boolean, got {semistable_point!r}")
        mults = tuple(multiplicities)
        # A bulk check first, as `WeightedTree` does; the loop runs only to name the offender.
        if not set(map(type, mults)) <= {int}:
            for n in mults:
                if not is_int(n):
                    raise ValueError(f"multiplicities must be integers, got {n!r}")
        mults = tuple(sorted(mults, reverse=True))
        if semistable_point:
            if mults:
                raise ValueError("the semistable point carries no roots")
        else:
            if not mults:
                raise ValueError("a form needs at least one root")
            if mults[-1] <= 0:  # the least, sorted last
                raise ValueError("multiplicities must be positive")
        return tuple.__new__(cls, (mults, semistable_point))

    _make = classmethod(checked_make)

    @property
    def degree(self) -> int:
        return sum(self.multiplicities)

    def to_dict(self) -> dict:
        if self.semistable_point:
            return {"semistable_point": True}
        return {"multiplicities": list(self.multiplicities)}


def classify(f: BinaryFormClass) -> GitClass:
    """GIT class by maximal root multiplicity versus half the degree.

    The semistable-point value classifies strictly semistable by convention.
    """
    if f.semistable_point:
        return GitClass.STRICTLY_SEMISTABLE
    m = f.degree
    top = max(f.multiplicities)
    if 2 * top < m:
        return GitClass.STABLE
    if 2 * top == m:
        return GitClass.STRICTLY_SEMISTABLE
    return GitClass.UNSTABLE


def moduli_dimension(m: int) -> int:
    """Dimension of the moduli of semistable degree-m forms: m - 3."""
    if not is_int(m):
        raise ValueError(f"degree must be an integer, got {m!r}")
    if m < 3:
        raise ValueError(f"degree must be >= 3, got {m}")
    return m - 3
