"""Default numeric tolerances, shared across the package.

All comparisons between floating point quantities go through these
constants unless a caller overrides them per call.  Equality of scalars
and vector entries is absolute but scaled by the magnitude of the
operands, so integer-valued data compares exactly.

A per-atom tolerance is ``TOL * row_scale(...)``: the constant times the
largest finite magnitude among the atom's own entries, floored at 1.
Above 1 the tolerance grows with the data, as a relative one would; the
floor keeps it absolute for data of magnitude below 1, so entries near
zero still get a nonzero tolerance.
"""

import math

import numpy as np

# Scaled absolute tolerance for equality of floats.
EQ_TOL = 1e-12

# Residual threshold deciding linear independence: a candidate row is
# accepted when its residual norm exceeds RANK_TOL * max(1, row norm).
RANK_TOL = 1e-9

# Distance tolerance for quadratic (nearest point) subproblems.
QP_TOL = 1e-7

# Margin below which a strict inequality is considered violated,
# scaled by the magnitude of the operands.
STRICT_TOL = 1e-9

# Dimensionless band around argmin's uniqueness-box threshold, as a
# fraction of it: a width from hot-started face LPs that lies this close
# to its threshold is solved again cold, and the cold width decides.
BOX_BAND = 0.01

# Activity threshold for max-affine pieces relative to the attained value.
ACTIVE_TOL = 1e-9

# Feasibility slack allowed on linear equality constraints fed to the
# per-scenario LP/QP subproblems.
FEAS_TOL = 1e-9


def row_scale(*arrays) -> np.ndarray:
    """One magnitude scale per atom, atom axis first: ``max(1, max |finite
    entry|)`` over row ``k`` of every array.

    The floor is 1: an atom whose entries are all smaller in magnitude, or
    that has none, gets the scale 1, so a tolerance built on the scale is
    never below its constant.  Row ``k`` reads atom ``k``'s entries only,
    so a tolerance built on it keeps each atom to its own data.  Arrays
    with ``K = 0`` atoms give a ``(0,)`` scale.
    """
    rows = np.concatenate(
        [np.reshape(a, (len(a), math.prod(np.shape(a)[1:]))) for a in arrays], axis=1)
    finite = np.where(np.isfinite(rows), rows, 0.0)
    return np.maximum(1.0, np.abs(finite).max(axis=1, initial=0.0))
