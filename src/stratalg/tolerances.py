"""The package's one table of numeric thresholds.

Every threshold is a name below; no other module writes a float literal
between 0 and 1, and every name is read (``test_space_contract`` pins
both).  Thresholds of one value and one kind of comparison share a name.
Each comment states the decision and the scale: ``x row_scale`` of the
named data (``row_scale`` below), ``x max(1, |x|)`` of a quantity formed
at the site, absolute (unit vectors, grid step units, raw magnitudes) or
dimensionless.  Public ops take a per-call override where they say so.
"""

import math

import numpy as np

# Equality slack, x row_scale of the operands (eq_set, sequence bounds,
# the f* = f*** test, the margin LP's target); absolute in the dual-cone
# scan's tie between unit normals.
EQ_TOL = 1e-12
# Vanishing row: a residual no longer is dependent, x max(1, row norm)
# (rank), x max(1, max|row|) (sign fix), x row_scale (affine hulls);
# absolute on normals, images and rays.
RANK_TOL = 1e-9
# A nearest-point distance that counts as zero: absolute in separation,
# x row_scale in extensions and subgradient bounds, x max(1, |x_i|) in
# argmin's box.
QP_TOL = 1e-7
# Strict margin a value must exceed: x row_scale (support values, growth
# floors), x max(1, |v*|) (argmin's face); absolute on unit-box LPs and on
# ri margins.
STRICT_TOL = 1e-9
# Dimensionless band, a fraction of argmin's box threshold: a hot width
# this close to it is solved again cold.
BOX_BAND = 0.01
# A max-affine piece is active within it of the max, x (1 + |max|).
ACTIVE_TOL = 1e-9
# Feasibility slack, x row_scale (sets, QP equality rows, minorant and
# gradient tests), x max |g|^2 over the atom's generators (the QP's dual
# test, no floor), x max(1, |hi|, |lo|) (a grid's extent); absolute in grid
# step and slope units and on offsets and points that must vanish.
FEAS_TOL = 1e-9
# HiGHS's primal and dual feasibility tolerance, absolute.
LP_FEAS_TOL = 1e-10
# linprog's post-solve check, sqrt(tol) * 10 at tol=1e-9, absolute.
LP_CHECK_TOL = np.sqrt(1e-9) * 10
# Dimensionless, cone_spans: the largest certificate mass (the scan's LPs
# then accept no z with |z|_inf above 2e-4), and the reach / sqrt(n) that
# bounds each distance from a unit vector.
SPAN_MASS = 1e-4 / LP_FEAS_TOL
SPAN_REACH = 0.5
# Absolute: a QP coefficient below -DROP_TOL stops the step toward the
# round's solution, and its column is dropped.
DROP_TOL = 1e-11
# Absolute tie: a smaller QP coefficient is zero, and a nearest_pair
# distance must beat the best by more.
TIE_TOL = 1e-15
# Absolute length floor: recession generators must exceed it, and probe
# norms are raised to it.
NORM_FLOOR = 1e-12
# Absolute: a recession witness must move its coordinate by more.
DESCENT_TOL = 1e-7


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
