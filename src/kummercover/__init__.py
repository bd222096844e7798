"""Exact invariants of cyclic Kummer covers of the projective line.

Subpackages cover exact integer linear algebra, free-group words and
automorphisms, validated curve data, Schreier kernel generators, Stallings
graph folding, braid liftability and the character decomposition of the
first homology.
"""

from .braid import abelianized_braid, braid_automorphism, lifts_to_kernel
from .cover import (CurveParams, CurveValidationError, alpha, alpha_mod_n,
                    branch_count, genus, open_rank, ramification, validate)
from .exactlin import (ExactLinError, IntMatrix, SnfResult, egcd, smith_full,
                       smith_row, structured_smith, unimodular_inverse)
from .folding import (GraphError, StallingsGraph, coset_graph, export_dot,
                      fold, free_basis, graph_from_words, membership_graph,
                      product_graph, pullback_check, rank)
from .freegroup import (FormalSum, FreeAutomorphism, Word, WordError,
                        fox_derivative, lift_unimodular, parse_word)
from .homology import (AlexanderMatrix, HomologyDecomposition,
                       OracleDisagreement, RankInstability, alexander_matrix,
                       chevalley_weil, homology_decomposition,
                       multiplicity_closed_form, multiplicity_rank_oracle)
from .schreier import (KernelGenerators, TransversalError,
                       kernel_generators_integral, kernel_generators_mod_n,
                       transversal_reduce, y_basis)

__version__ = "0.1.0"

__all__ = [
    "CurveParams", "CurveValidationError", "ExactLinError", "IntMatrix",
    "SnfResult", "Word", "WordError", "FormalSum", "FreeAutomorphism",
    "StallingsGraph", "GraphError", "KernelGenerators", "TransversalError",
    "AlexanderMatrix", "HomologyDecomposition",
    "OracleDisagreement", "RankInstability",
    "validate", "ramification", "alpha", "alpha_mod_n", "genus",
    "branch_count", "open_rank",
    "egcd", "smith_row", "smith_full", "unimodular_inverse",
    "structured_smith",
    "parse_word", "fox_derivative", "lift_unimodular",
    "y_basis", "kernel_generators_mod_n", "kernel_generators_integral",
    "transversal_reduce",
    "graph_from_words", "coset_graph", "fold", "rank", "membership_graph", "product_graph",
    "free_basis", "pullback_check", "export_dot",
    "alexander_matrix",
    "multiplicity_closed_form", "multiplicity_rank_oracle", "chevalley_weil",
    "homology_decomposition",
    "braid_automorphism", "abelianized_braid", "lifts_to_kernel",
]
