"""Exact combinatorics of stable hyperelliptic curves and binary forms.

Stable marked genus-0 curves are handled as weighted dual trees; the package
computes their central components, admissible double covers, stable models,
local stable reductions of hyperelliptic equations, and the boundary-stratum
behaviour of the map to semistable binary forms.  All arithmetic is exact.
"""

from .census import Census, enumerate_stable_trees
from .central import CentralResult, contract_F_m, find_central, half_weight_edge
from .covers import (
    CoverModel,
    StableHyperellipticModel,
    branch_count,
    build_cover,
    edge_is_ramified,
    stable_model,
)
from .forms import BinaryFormClass, GitClass, classify, moduli_dimension
from .reduction import (
    BlowupChain,
    ExponentVector,
    ReductionOutput,
    blowup_chain,
    reduce,
)
from .strata import StratumLabel, classify_stratum, f_g_exponents, image_dimension
from .trees import (
    CanonicalCode,
    InvalidTreeError,
    InvariantError,
    StabilityReport,
    UnstableTreeError,
    WeightedTree,
    canonical_code,
    complementary_subtree_weights,
    isomorphic,
    path_tree,
    star_tree,
    tree,
    validate_stable,
)

__version__ = "0.1.0"
