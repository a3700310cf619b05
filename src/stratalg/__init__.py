"""Conditional analysis on finite atom spaces.

Vectors, convex sets, convex functions and sequences whose entries vary
measurably over finitely many weighted atoms, with the stratified linear
algebra, separation, duality and extraction machinery that makes every
almost-everywhere statement an exact per-atom computation.
"""

from . import core, errors, functions, linalg, sequences, sets
from .core import *
from .errors import *
from .functions import *
from .linalg import *
from .sequences import *
from .sets import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *errors.__all__, *linalg.__all__, *sets.__all__, *functions.__all__,
           *sequences.__all__, "__version__"]
