"""Exact computation with rank functions of matrix powers.

Conversions between Jordan partitions and rank functions, solvers for
rank function equations, the dominance order and its solution-set
geometry (components, dimensions, linear capacity), and an exact rational
matrix engine for replaying everything on literal matrices.
"""

from .core import (
    InvalidPartition,
    InvalidRankFunction,
    MatrixClass,
    Partition,
    RankFunction,
    class_rank,
    conjugate,
    dominates,
    is_valid_rank_function,
    nontrivial_blocks,
    partition_count,
    partition_to_rank,
    partitions_of,
    rank_to_class,
    rank_to_partition,
)
from .equations import (
    BudgetExceeded,
    ConvexTable,
    EquationSpec,
    FnTable,
    InvalidTable,
    SolutionTuple,
    check_solution,
    search_general,
    solve_nilpotent,
    solve_with_stable_ranks,
    structure_check_identity,
)
from .geometry import (
    Component,
    DominatingTuple,
    RankMatrix,
    SolSet,
    component_dimension,
    components_capacity,
    dominating_tuple,
    enumerate_sol,
    hasse_dot,
    irreducible_components,
    is_irreducible,
    maximal_elements,
    orbit_capacity,
    orbit_dimension,
    rank_matrix,
    rm_leq,
    sol_capacity,
)

# The exact-matrix oracle is imported on first use of one of its names
# (PEP 562), so a process that never replays a matrix does not load it.
_ORACLE_NAMES = (
    "ExactMatrix", "direct_sum", "exact_rank", "jordan_matrix",
    "matrix_rank_function", "random_conjugate", "verify_class_ranks",
)

__all__ = [
    "InvalidPartition", "InvalidRankFunction", "MatrixClass", "Partition",
    "RankFunction", "class_rank", "conjugate", "dominates",
    "is_valid_rank_function", "nontrivial_blocks", "partition_count",
    "partition_to_rank", "partitions_of", "rank_to_class", "rank_to_partition",
    "BudgetExceeded", "ConvexTable", "EquationSpec", "FnTable", "InvalidTable",
    "SolutionTuple", "check_solution", "search_general", "solve_nilpotent",
    "solve_with_stable_ranks", "structure_check_identity",
    "Component", "DominatingTuple", "RankMatrix", "SolSet",
    "component_dimension", "components_capacity", "dominating_tuple",
    "enumerate_sol", "hasse_dot", "irreducible_components", "is_irreducible",
    "maximal_elements", "orbit_capacity", "orbit_dimension", "rank_matrix",
    "rm_leq", "sol_capacity",
    *_ORACLE_NAMES,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
