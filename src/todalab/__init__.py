"""todalab: exact combinatorics and numerics of Toda-lattice blow-ups.

The package computes blow-up counts from Weyl-group sign dynamics, the
blow-up polynomial p(q) and its finite-Chevalley-group factorization,
blow-up graphs, Wronskian Schur tau functions with real-root experiments,
affine sign dynamics for the untwisted affine types, and a numerical
verification layer for the type-A flow.
"""

import importlib

from .rootdata import (
    LieType,
    CompactDual,
    RootSystem,
    cartan_matrix,
    extended_cartan,
    langlands_dual,
    inverse_cartan,
    tau_multiplicities,
    dual_root_counts,
    two_rho_height,
    compact_dual_info,
    positive_roots,
)
from .exact import UniPoly
from .weyl import WeylGroup, WeylElement
from .signflow import parse_signs, format_signs, reflect_sign, act_word, eta, eta_table
from .blowup_poly import (
    FactoredForm,
    p_epsilon,
    closed_form_p,
    chevalley_order,
    brute_force_so_order,
    poincare_polynomial_k,
)
from .todagraph import build_graph, components, to_dot, graph_to_dict, matching_report
from .schurtau import (
    PolyRing,
    ExactPoly,
    ring_for,
    hk,
    schur_wronskian,
    tau_functions,
    minimal_degree,
    minimal_degrees,
    tangent_cone,
    hirota_residual,
    nu_degrees,
    nu_check,
    sturm_real_roots,
    real_root_count_experiment,
)
from .affine import AffineWeylGroup, p_series, rational_guess

__version__ = "0.1.0"


def __getattr__(name):
    """Import ``numtoda`` (and with it numpy and scipy) on first access only."""
    if name == "numtoda":
        return importlib.import_module(f"{__name__}.numtoda")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
