"""Local stable reduction of hyperelliptic equations y^2 = prod (x - x_i)^n_i.

Each root of exponent n >= 3 blows down to a tail with affine equation
y^2 = z^n - 1, attached at one point when n is odd and two when n is even;
exponent 2 leaves only a node, exponent 1 an ordinary branch point.  The
central component keeps one branch point per odd exponent.
"""

from __future__ import annotations

from collections import namedtuple

from .trees import MAX_LISTED, arithmetic_genus, check, checked_make, is_int, json_array


class ExponentVector(namedtuple("ExponentVector", "exponents at_infinity")):
    """Exponents of the distinct finite roots plus the multiplicity at infinity."""

    __slots__ = ()

    def __new__(cls, exponents, at_infinity: int = 0):
        exps = tuple(exponents)
        for n in exps:
            if not is_int(n):
                raise ValueError(f"exponents must be integers, got {n!r}")
        if not is_int(at_infinity):
            raise ValueError(f"field 'at_infinity' must be an integer, got {at_infinity!r}")
        if not exps:
            raise ValueError("need at least one finite root")
        if any(n < 1 for n in exps):
            raise ValueError("finite-root exponents must be positive")
        if at_infinity < 0:
            raise ValueError("multiplicity at infinity must be non-negative")
        self = tuple.__new__(cls, (exps, at_infinity))
        total = self.total
        if total % 2 or total < 6:
            raise ValueError(
                f"exponents must sum to 2g+2 with g >= 2, got sum {total}"
            )
        return self

    _make = classmethod(checked_make)

    @property
    def total(self) -> int:
        return sum(self.exponents) + self.at_infinity

    @property
    def g(self) -> int:
        return (self.total - 2) // 2

    def all_multiplicities(self) -> tuple[int, ...]:
        """Finite exponents plus infinity, treated uniformly as roots."""
        mults = self.exponents
        if self.at_infinity:
            mults = mults + (self.at_infinity,)
        return mults

    @classmethod
    def from_dict(cls, doc: dict) -> "ExponentVector":
        return cls(tuple(json_array(doc, "exponents")), doc.get("at_infinity", 0))


# A blown-down root; `source_index` is its position in all_multiplicities().
Tail = namedtuple("Tail", "source_index exponent genus attachment_points equation")


class ReductionOutput(namedtuple("ReductionOutput", "central_branch_points central_genus "
                                 "central_split tails extra_nodes g git_unstable_input")):
    """`central_split`: no branch points left, so two disjoint genus-0 sheets;
    `extra_nodes`: nodes left by contracted exponent-2 tails."""

    __slots__ = ()

    @property
    def node_count(self) -> int:
        return sum(t.attachment_points for t in self.tails) + self.extra_nodes

    @property
    def arithmetic_genus(self) -> int:
        central = [0, 0] if self.central_split else [self.central_genus]
        return arithmetic_genus(central + [t.genus for t in self.tails], self.node_count)

    def to_dict(self) -> dict:
        return {
            "g": self.g,
            "central": {
                "branch_points": self.central_branch_points,
                "genus": self.central_genus,
                "split": self.central_split,
            },
            "tails": [t._asdict() for t in self.tails],  # the field names are the keys
            "extra_nodes": self.extra_nodes,
            "arithmetic_genus": self.arithmetic_genus,
            "git_unstable_input": self.git_unstable_input,
        }


def reduce(e: ExponentVector) -> ReductionOutput:
    """Closed-form local stable reduction of the hyperelliptic equation.

    Exponents above 2g are rejected (no central component remains); exponents
    in (g+1, 2g] describe GIT-unstable forms and are computed but flagged.  One
    branch point per odd exponent: an even count, as `ExponentVector`'s total is.
    """
    g = e.g
    mults = e.all_multiplicities()
    top = max(mults)
    if top > 2 * g:
        raise ValueError(
            f"exponent {top} exceeds 2g = {2 * g}; no central component exists"
        )

    branch_points = sum(n % 2 for n in mults)
    tails = tuple(
        Tail(source_index=idx, exponent=n, genus=(n - 1) // 2,
             attachment_points=2 - n % 2, equation=f"y^2 = z^{n} - 1")
        for idx, n in enumerate(mults) if n >= 3
    )

    split = branch_points == 0
    central_genus = 0 if split else branch_points // 2 - 1
    out = ReductionOutput(
        central_branch_points=branch_points,
        central_genus=central_genus,
        central_split=split,
        tails=tails,
        extra_nodes=mults.count(2),
        g=g,
        git_unstable_input=top > g + 1,
    )
    check(out.arithmetic_genus == g, "stable reduction changed the genus")
    return out


class BlowupChain(namedtuple("BlowupChain", "n multiplicities")):
    """Multiplicities of the exceptional chain from repeated blow-up at a root."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"n": self.n, "multiplicities": list(self.multiplicities)}


def blowup_chain(n: int) -> BlowupChain:
    """Exceptional multiplicities before the first normalized base change.

    n = 2i gives (2, 4, ..., 2i); n = 2i+1 gives (2, 4, ..., 2i, 2i+1, 4i+2).
    """
    if not is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > MAX_LISTED:  # refused before the chain is built
        raise ValueError(f"n = {n} exceeds {MAX_LISTED}: the chain is too long to list")
    i = n // 2
    chain = [2 * j for j in range(1, i + 1)]
    if n % 2:
        chain += [2 * i + 1, 4 * i + 2]
    return BlowupChain(n, tuple(chain))
