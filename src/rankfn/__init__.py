"""Exact computation with rank functions of matrix powers.

Conversions between Jordan partitions and rank functions, solvers for
rank function equations, the dominance order and its solution-set
geometry (components, dimensions, linear capacity).  The exact integer
matrix engine that replays everything on literal, conjugated matrices
lives in `rankfn.oracle`.
"""

from . import core, equations, geometry
from .core import *
from .equations import *
from .geometry import *

__all__ = [*core.__all__, *equations.__all__, *geometry.__all__]

__version__ = "0.1.0"
