"""Default numeric tolerances, shared across the package.

All comparisons between floating point quantities go through these
constants unless a caller overrides them per call.  Equality of scalars
and vector entries is absolute but scaled by the magnitude of the
operands, so integer-valued data compares exactly.
"""

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

# Activity threshold for max-affine pieces relative to the attained value.
ACTIVE_TOL = 1e-9

# Feasibility slack allowed on linear equality constraints fed to the
# per-scenario LP/QP subproblems.
FEAS_TOL = 1e-9


def row_scale(*arrays) -> np.ndarray:
    """One magnitude scale per atom, atom axis first: ``max(1, max |finite
    entry|)`` over row ``k`` of every array.

    Row ``k`` reads atom ``k``'s entries only, so a tolerance built on it
    keeps each atom to its own data.
    """
    rows = np.concatenate([np.reshape(a, (len(a), -1)) for a in arrays], axis=1)
    finite = np.where(np.isfinite(rows), rows, 0.0)
    return np.maximum(1.0, np.abs(finite).max(axis=1, initial=0.0))
