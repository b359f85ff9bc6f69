"""Exact-arithmetic toolkit for systems of matroids on a shared ground set.

Everything is computed over exact rationals or integers: chromatic
numbers (ordinary, list, fractional, weighted), homological
connectivity, expansion numbers, domination bounds, the polytopes
P/Q/R with their gauges and blow-up ratios, and weighted matroidal and
hypergraph matching/cover numbers.
"""

from .core import (
    Complex,
    Hypergraph,
    contract,
    independence_complex,
    induced,
    line_graph,
    matching_complex,
    min_nonfaces,
)
from .coloring import (
    Coloring,
    ListColorFailure,
    ab_check,
    chi,
    chi_list,
    chi_list_number,
    chi_matroid,
    chi_star,
    matdim_exact,
    matdim_upper,
    matroid_list_color,
)
from .constructions import (
    Instance,
    assoc_matroids,
    canned,
    projective_plane,
    q_k,
    truncated_projective_plane,
)
from .extval import INF, XRat
from .lp import LPProblem, LPResult, solve
from .matroid import (
    DualMatroid,
    ExplicitMatroid,
    GenPartitionMatroid,
    GraphicMatroid,
    Matroid,
    MatroidSystem,
    UniformMatroid,
    check_matroid_axioms,
    max_common_independent,
)
from .meshulam import (
    FrugalSequence,
    delete_contract_certificate,
    gamma_e_graph,
    gamma_e_hyper,
)
from .polytopes import (
    PolytopeRef,
    hyper_numbers,
    matroidal_numbers,
    member,
    psi,
    ratio,
    vertices,
)
from .topology import (
    HomologyProfile,
    eta_h,
    expansions,
    reduced_homology,
    topological_hall_check,
)
from .verify import VerificationRecord, run_suite

__version__ = "0.1.0"

__all__ = [
    "Complex",
    "Coloring",
    "DualMatroid",
    "ExplicitMatroid",
    "FrugalSequence",
    "GenPartitionMatroid",
    "GraphicMatroid",
    "HomologyProfile",
    "Hypergraph",
    "INF",
    "Instance",
    "LPProblem",
    "LPResult",
    "ListColorFailure",
    "Matroid",
    "MatroidSystem",
    "PolytopeRef",
    "UniformMatroid",
    "VerificationRecord",
    "XRat",
    "ab_check",
    "assoc_matroids",
    "canned",
    "check_matroid_axioms",
    "chi",
    "chi_list",
    "chi_list_number",
    "chi_matroid",
    "chi_star",
    "contract",
    "delete_contract_certificate",
    "eta_h",
    "expansions",
    "gamma_e_graph",
    "gamma_e_hyper",
    "hyper_numbers",
    "independence_complex",
    "induced",
    "line_graph",
    "matching_complex",
    "matdim_exact",
    "matdim_upper",
    "matroid_list_color",
    "matroidal_numbers",
    "max_common_independent",
    "member",
    "min_nonfaces",
    "projective_plane",
    "psi",
    "q_k",
    "ratio",
    "reduced_homology",
    "run_suite",
    "solve",
    "topological_hall_check",
    "truncated_projective_plane",
    "vertices",
]
