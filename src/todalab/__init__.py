"""todalab: exact combinatorics and numerics of Toda-lattice blow-ups.

The package computes blow-up counts from Weyl-group sign dynamics, the
blow-up polynomial p(q) and its finite-Chevalley-group factorization,
blow-up graphs, Wronskian Schur tau functions with real-root experiments,
affine sign dynamics for the untwisted affine types, and a numerical
verification layer for the type-A flow.

``import todalab`` loads no submodule: each public name below is imported
from its home module on first access, and so is each submodule (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "rootdata": ("LieType", "CompactDual", "cartan_matrix", "extended_cartan",
                 "langlands_dual", "tau_multiplicities", "two_rho_height",
                 "compact_dual_info", "positive_roots"),
    "exact": ("UniPoly",),
    "weyl": ("WeylGroup",),
    "signflow": ("parse_signs", "format_signs", "reflect_sign", "eta", "eta_table"),
    "blowup_poly": ("FactoredForm", "p_epsilon", "closed_form_p", "chevalley_order",
                    "brute_force_so_order", "poincare_polynomial_k"),
    "todagraph": ("build_graph", "components", "to_dot", "graph_to_dict", "matching_report"),
    "schurtau": ("PolyRing", "ExactPoly", "ring_for", "hk", "tau_functions",
                 "minimal_degrees", "hirota_residual", "nu_degrees",
                 "real_root_count_experiment"),
    "affine": ("AffineWeylGroup", "p_series", "rational_guess"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    """A public name from its home module, or a submodule, imported on first access."""
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise  # a submodule that exists but misses a dependency
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
