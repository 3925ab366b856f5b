"""Continuous analogues of multiple zeta values.

Numeric evaluation of the iterated tail integrals zeta(k_1,...,k_r) over
[m_1,oo) x ... x [m_r,oo), exact symbolic reduction to a depth-graded basis,
the shuffle word algebra, weighted sum formulas, and candidate pole
enumeration, with every exact identity cross-checked numerically.
"""

from .compositions import (
    Composition,
    ShiftedCMZV,
    admissible_compositions,
    composition_from_word,
    compositions_of,
    convergence_bound,
    in_convergence_domain,
    is_admissible,
    is_admissible_word,
    word_from_composition,
)
from .errors import (
    CapacityError,
    CmzvError,
    DivergenceError,
    DomainError,
    RewriteError,
    WordEncodingError,
)
from .etaspace import (
    VElement,
    composition_weight,
    eta,
    eta_power,
    eval_at,
    sum_formula_lhs_terms,
    sum_formula_rhs,
    telescoping_sides,
)
from .poles import Hyperplane, depth1_value, perm_min_sequence, pole_hyperplanes
from .quad import (
    NumericResult,
    default_tolerance,
    eval_numeric,
    eval_unit_cube_ones,
    integrate_semi_infinite,
)
from .reduce import (
    GenTerm,
    SymbolicConstant,
    absorb_shifts,
    basis_ids,
    depth2_closed_form,
    depth_embedding,
    ibp_step,
    integrate_tail,
    partial_fractions,
    reduce_to_basis,
)
from .shuffle import FormalWordSum, ZImage, shuffle, shuffle_sum, z_map
from .verify import CheckResult, run_suite, verify_identity

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CheckResult",
    "CmzvError",
    "Composition",
    "DivergenceError",
    "DomainError",
    "FormalWordSum",
    "GenTerm",
    "Hyperplane",
    "NumericResult",
    "RewriteError",
    "ShiftedCMZV",
    "SymbolicConstant",
    "VElement",
    "WordEncodingError",
    "ZImage",
    "absorb_shifts",
    "admissible_compositions",
    "basis_ids",
    "composition_from_word",
    "composition_weight",
    "compositions_of",
    "convergence_bound",
    "default_tolerance",
    "depth1_value",
    "depth2_closed_form",
    "depth_embedding",
    "eta",
    "eta_power",
    "eval_at",
    "eval_numeric",
    "eval_unit_cube_ones",
    "ibp_step",
    "in_convergence_domain",
    "integrate_semi_infinite",
    "integrate_tail",
    "is_admissible",
    "is_admissible_word",
    "partial_fractions",
    "perm_min_sequence",
    "pole_hyperplanes",
    "reduce_to_basis",
    "run_suite",
    "shuffle",
    "shuffle_sum",
    "sum_formula_lhs_terms",
    "sum_formula_rhs",
    "telescoping_sides",
    "verify_identity",
    "word_from_composition",
    "z_map",
]
