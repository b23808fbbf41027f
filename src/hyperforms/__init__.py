"""Exact combinatorics of stable hyperelliptic curves and binary forms.

Stable marked genus-0 curves are handled as weighted dual trees; the package
computes their central components, admissible double covers, stable models,
local stable reductions of hyperelliptic equations, and the boundary-stratum
behaviour of the map to semistable binary forms.  All arithmetic is exact.
"""

from importlib import import_module

# Each public name's defining submodule, imported on the name's first access (PEP 562).
_MODULE = {name: module for module, names in {
    "census": "Census enumerate_stable_trees",
    "central": "CentralResult contract_F_m f_g_exponents find_central",
    "covers": "CoverModel StableHyperellipticModel build_cover stable_model",
    "forms": "BinaryFormClass GitClass classify moduli_dimension",
    "reduction": "BlowupChain ExponentVector ReductionOutput blowup_chain reduce",
    "strata": "StratumLabel classify_stratum image_dimension",
    "trees": "CanonicalCode InvalidTreeError InvariantError StabilityReport UnstableTreeError "
             "WeightedTree canonical_code path_tree star_tree tree validate_stable",
}.items() for name in names.split()}
__all__ = sorted(_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module("." + _MODULE[name], __name__), name))


def __dir__():
    return sorted({*globals(), *__all__})
