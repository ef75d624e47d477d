"""Exact-arithmetic workbench for vector lattices and orthogonally
additive operators between them."""

from .spaces import (
    Coordinate, SimpleFunction, FinSupport, EventuallyConstant,
    PiecewiseLinear, LogTwo, Element,
    coord, simple, fin, ec, pl, zero, one, normalize,
    add, sub, scale, sup, inf, pos_part, neg_part, absolute, leq,
    is_disjoint, format_element, eval_at, ln2_enclosure,
)
from .lateral import (
    Decomposition, FragmentEnumeration, PlievGrid,
    is_fragment, lateral_sup, lateral_inf,
    enumerate_fragments, fragment_iter, enumerate_decompositions, pliev_grid,
)
from .operators import (
    Operator, Kernel, LinearEC, MatchTable, LateralMeet, AlternatingSeries,
    OpSum, OpScaled, ZeroOp, PiecewisePoly,
    poly, diagonal_kernel, match_table, apply, negate,
    verify_oao, verify_positive, verify_disjointness_preserving,
    lateral_bound_scan, example_operator,
)
from .oplattice import (
    LatticePoint, OpLattice, join_at, meet_at, pos_part_at, neg_part_at,
    modulus_at, dp_fast, meyer_pair,
)
from .reports import Budget, CheckReport
from .checks import run_check, run_all, search_truncated_joins, REGISTRY

__version__ = "0.1.0"
