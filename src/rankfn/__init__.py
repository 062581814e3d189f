"""Exact computation with rank functions of matrix powers.

Conversions between Jordan partitions and rank functions, solvers for
rank function equations, the dominance order and its solution-set
geometry (components, dimensions, linear capacity), and an exact integer
matrix engine for replaying everything on literal, conjugated matrices.
"""

from . import core, equations, geometry
from .core import *
from .equations import *
from .geometry import *

# The exact-matrix oracle is imported on first use of one of its names
# (PEP 562), so a process that never replays a matrix does not load it.
# The list is written out because reading oracle.__all__ would import it.
_ORACLE_NAMES = (
    "ExactMatrix", "exact_rank", "jordan_matrix",
    "matrix_rank_function", "random_conjugate", "verify_class_ranks",
)

__all__ = [*core.__all__, *equations.__all__, *geometry.__all__, *_ORACLE_NAMES]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
