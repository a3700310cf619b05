"""Conditional convex functions and their calculus.

Two function carriers are provided: max-affine functions (a finite
maximum of affine pieces, optionally restricted to a polyhedral domain
and ``+inf`` outside) and grid functions (extended-real node values on a
shared rectangular lattice, ``+inf`` stored explicitly).  On a finite
atom space every operation reduces to classical computations per atom:
conjugates are discrete Legendre transforms or epigraph LPs,
subdifferentials are convex hulls of active slopes, minimization is an
epigraph LP, and inf-convolution is a min-plus convolution over lattice
splittings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._solvers import simplex_min_norm, solve_lp, vrep_block
from .core import (
    CondExtScalar,
    CondScalar,
    CondVector,
    MeasurableSet,
    MeasureSpace,
    _check_space,
    ext_add,
)
from .errors import (
    PreconditionError,
    ShapeError,
    SolverError,
    SpaceMismatchError,
    UnboundedError,
)
from .sets import ConvexSetRep, membership, ri_membership
from .tolerances import ACTIVE_TOL, EQ_TOL, FEAS_TOL, QP_TOL, STRICT_TOL, eq_scale

__all__ = [
    "MaxAffineFn",
    "Grid",
    "GridFn",
    "SubdifferentialRep",
    "ArgminResult",
    "InfConvResult",
    "FenchelMoreauReport",
    "InfConvChecks",
    "conjugate",
    "fenchel_moreau_check",
    "subdifferential",
    "bounded_subgradient",
    "directional_derivative",
    "differentiability_check",
    "argmin",
    "inf_convolution",
    "infconv_checks",
    "sublinear_support",
]


@dataclass(frozen=True)
class MaxAffineFn:
    """``f(x) = max_j <x, slope_j> + offset_j`` on a polyhedral domain.

    Outside the domain (when one is given) the value is ``+inf``.
    """

    space: MeasureSpace
    dim: int
    pieces: tuple[tuple[CondVector, CondScalar], ...]
    domain: Optional[ConvexSetRep] = None

    def __post_init__(self):
        if not self.pieces:
            raise ShapeError("a max-affine function needs at least one piece")
        for y, z in self.pieces:
            if y.space != self.space or z.space != self.space:
                raise SpaceMismatchError("pieces live on different spaces")
            if y.dim != self.dim:
                raise ShapeError("piece slopes must share the dimension")
        if self.domain is not None and (
            self.domain.space != self.space or self.domain.dim != self.dim
        ):
            raise ShapeError("domain must match the function's space and dimension")

    @classmethod
    def from_pieces(
        cls,
        pieces: Sequence[tuple[CondVector, CondScalar]],
        domain: Optional[ConvexSetRep] = None,
    ) -> "MaxAffineFn":
        """Build a function, reading space and dimension off the pieces."""
        pieces = tuple(pieces)
        if not pieces:
            raise ShapeError("a max-affine function needs at least one piece")
        y0 = pieces[0][0]
        return cls(space=y0.space, dim=y0.dim, pieces=pieces, domain=domain)

    @property
    def npieces(self) -> int:
        return len(self.pieces)

    def piece_values(self, x: CondVector) -> np.ndarray:
        """Per-atom value of every affine piece: shape (natoms, npieces)."""
        _check_space(self, x)
        out = np.empty((self.space.natoms, self.npieces))
        for j, (y, z) in enumerate(self.pieces):
            out[:, j] = np.einsum("kd,kd->k", x.values, y.values) + z.values
        return out

    def slopes_at(self, k: int) -> np.ndarray:
        return np.array([y.values[k] for y, _ in self.pieces])

    def eval(self, x: CondVector) -> CondExtScalar:
        vals = self.piece_values(x).max(axis=1)
        if self.domain is not None:
            inside = membership(x, self.domain)
            vals = np.where(inside.mask, vals, np.inf)
        return CondExtScalar(self.space, vals)

    def active_at(self, x: CondVector, active_tol: float = ACTIVE_TOL) -> np.ndarray:
        """Boolean (natoms, npieces) mask of pieces attaining the max."""
        vals = self.piece_values(x)
        best = vals.max(axis=1, keepdims=True)
        return vals >= best - active_tol * (1.0 + np.abs(best))


@dataclass(frozen=True)
class Grid:
    """A rectangular lattice, one (min, max, step) triple per dimension."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    steps: tuple[float, ...]

    def __init__(self, mins, maxs, steps):
        mins = tuple(float(v) for v in np.atleast_1d(mins))
        maxs = tuple(float(v) for v in np.atleast_1d(maxs))
        steps = tuple(float(v) for v in np.atleast_1d(steps))
        if not (len(mins) == len(maxs) == len(steps)):
            raise ShapeError("grid axes must agree in length")
        if len(mins) not in (1, 2):
            raise ShapeError("grids support one or two dimensions")
        for lo, hi, st in zip(mins, maxs, steps):
            if st <= 0 or hi < lo:
                raise ShapeError("grid axes need positive step and max >= min")
            n = round((hi - lo) / st) + 1
            if abs(lo + (n - 1) * st - hi) > 1e-9 * max(1.0, abs(hi), abs(lo)):
                raise ShapeError("grid extent must be a whole number of steps")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)
        object.__setattr__(self, "steps", steps)

    @property
    def ndim(self) -> int:
        return len(self.mins)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(
            round((hi - lo) / st) + 1
            for lo, hi, st in zip(self.mins, self.maxs, self.steps)
        )

    def axis(self, i: int) -> np.ndarray:
        n = self.shape[i]
        return self.mins[i] + self.steps[i] * np.arange(n)

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (nnodes, ndim), row-major order."""
        axes = [self.axis(i) for i in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def origin_offsets(self) -> tuple[int, ...]:
        """Per-axis index of the origin node; raises when 0 is off-grid."""
        offs = []
        for lo, st, n in zip(self.mins, self.steps, self.shape):
            q = -lo / st
            qi = round(q)
            if abs(q - qi) > 1e-9 or not 0 <= qi < n:
                raise ShapeError("grid must contain the origin as a node")
            offs.append(int(qi))
        return tuple(offs)


@dataclass(frozen=True)
class GridFn:
    """Extended-real node values on a shared lattice, per atom.

    Values may be ``+-inf`` but never NaN; ``+inf`` marks nodes outside
    the effective domain.  Atoms whose values are identically ``+inf``
    carry no proper function and are rejected by the transforms.
    """

    space: MeasureSpace
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        want = (self.space.natoms,) + self.grid.shape
        if v.shape != want:
            raise ShapeError(f"grid values must have shape {want}")
        if np.any(np.isnan(v)):
            raise ShapeError("grid values cannot contain NaN")
        object.__setattr__(self, "values", v)

    @property
    def proper_set(self) -> MeasurableSet:
        flat = self.values.reshape(self.space.natoms, -1)
        return MeasurableSet(self.space, np.isfinite(flat).any(axis=1))

    def eval(self, x: CondVector) -> CondExtScalar:
        """Multilinear interpolation; ``+inf`` wins over ``-inf`` in a cell."""
        _check_space(self, x)
        if x.dim != self.grid.ndim:
            raise ShapeError("point dimension does not match the grid")
        K = self.space.natoms
        out = np.empty(K)
        oob = np.zeros(K, dtype=bool)
        for k in range(K):
            idx = []
            frac = []
            for i in range(self.grid.ndim):
                lo, st = self.grid.mins[i], self.grid.steps[i]
                n = self.grid.shape[i]
                t = (x.values[k, i] - lo) / st
                if t < -1e-9 or t > n - 1 + 1e-9:
                    oob[k] = True
                    break
                t = min(max(t, 0.0), float(n - 1))
                i0 = min(int(np.floor(t)), n - 2) if n > 1 else 0
                idx.append(i0)
                frac.append(t - i0)
            if oob[k]:
                continue
            corners = []
            weights = []
            for corner in range(2 ** self.grid.ndim):
                sel = []
                w = 1.0
                for i in range(self.grid.ndim):
                    hi = (corner >> i) & 1
                    if self.grid.shape[i] == 1:
                        sel.append(0)
                        w *= 1.0 if hi == 0 else 0.0
                    else:
                        sel.append(idx[i] + hi)
                        w *= frac[i] if hi else (1.0 - frac[i])
                corners.append(self.values[(k, *sel)])
                weights.append(w)
            corners = np.array(corners)
            weights = np.array(weights)
            live = weights > 0.0
            if np.any(np.isposinf(corners[live])):
                out[k] = np.inf
            elif np.any(np.isneginf(corners[live])):
                out[k] = -np.inf
            else:
                out[k] = float(weights[live] @ corners[live])
        if oob.any():
            raise PreconditionError("evaluation point off the grid", oob)
        return CondExtScalar(self.space, out)


def _legendre_1d(xs: np.ndarray, vals: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Discrete transform: ``g(y) = max_i xs_i * y - vals_i``."""
    terms = xs[:, None] * ys[None, :] - vals[:, None]
    return terms.max(axis=0)


def _conjugate_grid_atom(grid: Grid, vals: np.ndarray, dual: Grid) -> np.ndarray:
    if grid.ndim == 1:
        return _legendre_1d(grid.axis(0), vals, dual.axis(0))
    # two passes of one-dimensional transforms
    x1, x2 = grid.axis(0), grid.axis(1)
    y1, y2 = dual.axis(0), dual.axis(1)
    inner = np.empty((len(x1), len(y2)))
    for i in range(len(x1)):
        inner[i] = _legendre_1d(x2, vals[i], y2)
    out = np.empty((len(y1), len(y2)))
    for j in range(len(y2)):
        out[:, j] = _legendre_1d(x1, -inner[:, j], y1)
    return out


def conjugate(f, dual_grid: Grid) -> GridFn:
    """Convex conjugate sampled on a caller-supplied dual grid.

    For a grid function this is the discrete Legendre transform over the
    stored nodes (values beyond the carrier are truncated, never
    clamped: dual nodes only see the finite carrier, and that truncation
    is part of the contract).  For a max-affine function each dual node
    value is an exact per-atom epigraph LP, with ``+inf`` reported where
    that LP is unbounded; atoms where a node LP fails raise one
    ``SolverError`` after every atom is solved.
    """
    if isinstance(f, GridFn):
        bad = ~f.proper_set.mask
        if bad.any():
            raise PreconditionError("conjugate needs a proper function", bad)
        K = f.space.natoms
        out = np.empty((K,) + dual_grid.shape)
        for k in range(K):
            out[k] = _conjugate_grid_atom(f.grid, f.values[k], dual_grid)
        return GridFn(f.space, dual_grid, out)
    if isinstance(f, MaxAffineFn):
        return _conjugate_max_affine(f, dual_grid)
    raise ShapeError("conjugate expects a GridFn or MaxAffineFn")


def _conjugate_max_affine(f: MaxAffineFn, dual_grid: Grid) -> GridFn:
    if dual_grid.ndim != f.dim:
        raise ShapeError("dual grid dimension must match the function")
    K = f.space.natoms
    nodes = dual_grid.nodes()
    out = np.empty((K,) + dual_grid.shape)
    d = f.dim
    for k in range(K):
        vsets = [] if f.domain is None else [f.domain.generators_at(k)]
        lp = _epigraph_lp(f.slopes_at(k), np.array([z.values[k] for _, z in f.pieces]), vsets, d)
        out[k] = np.reshape([_conj_node_lp(y, lp) for y in nodes], dual_grid.shape)
    # every atom is solved before raising, so the error mask is complete
    failed = np.isnan(out.reshape(K, -1)).any(axis=1)
    if failed.any():
        raise SolverError("conjugate LP failed on a dual grid node", failed)
    return GridFn(f.space, dual_grid, out)


def _epigraph_lp(yrows, zoff, vsets, d: int) -> dict:
    """Constraints of the epigraph LP of ``max_j <y_j, x> + z_j``.

    Variables are ``[x (d), s]`` and then each V-set's ``vrep_block``
    columns; the rows are ``yrows x - s <= -zoff``, then per V-set
    ``x - cols w = 0`` and its ``sum lam = 1`` row.  ``x`` and ``s`` are
    free.  Returned as ``solve_lp`` keywords; callers add the objective.
    """
    blocks = [vrep_block(*vs, d) for vs in vsets]
    nvar = d + 1 + sum(cols.shape[1] for cols, _, _ in blocks)
    A_ub = np.zeros((len(yrows), nvar))
    A_ub[:, :d] = yrows
    A_ub[:, d] = -1.0
    bounds = [(None, None)] * (d + 1)
    eq_rows, col = [], d + 1
    for cols, simplex_row, block_bounds in blocks:
        n = cols.shape[1]
        eq = np.zeros((d + 1, nvar))
        eq[:d, :d] = np.eye(d)
        eq[:d, col: col + n] = -cols
        eq[d, col: col + n] = simplex_row
        eq_rows.append(eq)
        bounds += block_bounds
        col += n
    b_eq = np.tile(np.append(np.zeros(d), 1.0), len(blocks))
    return {"A_ub": A_ub, "b_ub": -zoff, "A_eq": np.vstack(eq_rows) if blocks else None,
            "b_eq": b_eq if blocks else None, "bounds": bounds}


def _conj_node_lp(y: np.ndarray, lp: dict) -> float:
    """``sup <x,y> - f(x)`` over the epigraph LP ``lp`` of ``f``, by LP;
    ``inf`` if unbounded, ``nan`` if the LP fails."""
    c = np.zeros(len(lp["bounds"]))
    c[: len(y)] = -y
    c[len(y)] = 1.0
    res = solve_lp(c, **lp)
    if res.status == 3:
        return np.inf
    if res.status != 0:
        return np.nan
    return float(-res.fun)


def _lower_envelope_1d(xs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Lower convex envelope of 1-d node data, sampled at the nodes.

    ``+inf`` nodes stay ``+inf`` outside the finite range and are filled
    by the hull inside it.
    """
    fin = np.isfinite(vals)
    out = np.full_like(vals, np.inf)
    if not fin.any():
        return out
    pts = [(xs[i], vals[i]) for i in np.flatnonzero(fin)]
    hull: list[tuple[float, float]] = []
    for x, v in pts:
        hull.append((x, v))
        while len(hull) >= 3:
            (x0, v0), (x1, v1), (x2, v2) = hull[-3:]
            # drop the middle point when it lies on or above the chord
            if (v1 - v0) * (x2 - x1) >= (v2 - v1) * (x1 - x0):
                hull.pop(-2)
            else:
                break
    hx = np.array([h[0] for h in hull])
    hv = np.array([h[1] for h in hull])
    lo, hi = np.flatnonzero(fin)[0], np.flatnonzero(fin)[-1]
    inside = np.arange(len(xs))
    inside = inside[(inside >= lo) & (inside <= hi)]
    out[inside] = np.interp(xs[inside], hx, hv)
    return out


@dataclass(frozen=True)
class FenchelMoreauReport:
    """Biconjugation audit of a grid function.

    ``biconjugate`` is ``f**`` pulled back to the primal grid through
    the dual grid; ``envelope`` is an independently computed lower
    convex envelope of the node data.  ``max_deviation`` is their worst
    node-wise distance per atom (``inf`` when finiteness disagrees),
    ``minorant_ok`` are the atoms with ``f >= f**`` up to tolerance and
    ``idempotent_ok`` those where ``f*`` and ``f***`` agree at every
    dual node.
    """

    conjugate: GridFn
    biconjugate: GridFn
    envelope: GridFn
    max_deviation: CondExtScalar
    minorant_ok: MeasurableSet
    idempotent_ok: MeasurableSet


def default_dual_grid(f: GridFn, nodes: int = 0) -> Grid:
    """Symmetric dual grid wide enough and fine enough for ``f``.

    The half-width covers every finite slope of the node data plus one.
    Unless ``nodes`` overrides it, the dual step targets
    ``primal_step / width`` so that pulling a conjugate back through this
    grid stays within twice the primal step of the exact envelope (the
    biconjugation error is at most dual step times domain width).
    """
    if f.grid.ndim != 1:
        raise ShapeError("default dual grids are derived for 1-d functions")
    xs = f.grid.axis(0)
    slope = 1.0
    for k in range(f.space.natoms):
        v = f.values[k]
        fin = np.flatnonzero(np.isfinite(v))
        for a, b in zip(fin[:-1], fin[1:]):
            slope = max(slope, abs((v[b] - v[a]) / (xs[b] - xs[a])))
    bound = float(np.ceil(slope)) + 1.0
    if nodes:
        n = nodes
    else:
        width = max(1.0, f.grid.maxs[0] - f.grid.mins[0])
        target = f.grid.steps[0] / width
        n = 2 * int(np.ceil(bound / target)) + 1
        n = min(n, 40001)
    step = 2.0 * bound / (n - 1)
    return Grid((-bound,), (bound,), (step,))


def fenchel_moreau_check(
    f: GridFn, dual_grid: Optional[Grid] = None, tol: float = 1e-9
) -> FenchelMoreauReport:
    """Compare ``f**`` with the lower convex envelope of the node data.

    One-dimensional grids only (the envelope oracle is a lower hull).
    Values must be finite or ``+inf``.
    """
    if f.grid.ndim != 1:
        raise ShapeError("the biconjugation audit supports 1-d grids")
    if np.any(np.isneginf(f.values)):
        raise PreconditionError(
            "the audit needs values in (-inf, +inf]",
            np.isneginf(f.values).any(axis=1),
        )
    if dual_grid is None:
        dual_grid = default_dual_grid(f)
    fstar = conjugate(f, dual_grid)
    fss = conjugate(fstar, f.grid)
    fsss = conjugate(fss, dual_grid)
    K = f.space.natoms
    xs = f.grid.axis(0)
    env = np.empty_like(f.values)
    for k in range(K):
        env[k] = _lower_envelope_1d(xs, f.values[k])
    envfn = GridFn(f.space, f.grid, env)

    dev = np.empty(K)
    minor = np.zeros(K, dtype=bool)
    idem = np.zeros(K, dtype=bool)
    for k in range(K):
        a, b = fss.values[k], env[k]
        both = np.isfinite(a) & np.isfinite(b)
        agree = np.isfinite(a) == np.isfinite(b)
        dev[k] = float(np.max(np.abs(a[both] - b[both]))) if both.any() else 0.0
        if not agree.all():
            dev[k] = np.inf
        fvk = f.values[k]
        fin = np.isfinite(fvk)
        scale = eq_scale(fvk[fin]) if fin.any() else 1.0
        minor[k] = bool(np.all(a[fin] <= fvk[fin] + tol * scale))
        s1, s3 = fstar.values[k], fsss.values[k]
        sb = np.isfinite(s1) & np.isfinite(s3)
        sscale = eq_scale(s1[sb]) if sb.any() else 1.0
        idem[k] = bool(
            np.all((np.isfinite(s1) == np.isfinite(s3)))
            and (not sb.any() or np.max(np.abs(s1[sb] - s3[sb])) <= EQ_TOL * sscale)
        )
    return FenchelMoreauReport(
        conjugate=fstar,
        biconjugate=fss,
        envelope=envfn,
        max_deviation=CondExtScalar(f.space, dev),
        minorant_ok=MeasurableSet(f.space, minor),
        idempotent_ok=MeasurableSet(f.space, idem),
    )


@dataclass(frozen=True)
class SubdifferentialRep:
    """Subdifferential of a max-affine function at a point.

    Per atom it is the convex hull of the active piece slopes; the
    ``representative`` is the minimal-norm element of that hull.
    """

    point: CondVector
    active: np.ndarray
    representative: CondVector
    slopes: tuple[CondVector, ...]

    def generator_rows(self, k: int) -> np.ndarray:
        rows = np.array([y.values[k] for y in self.slopes])
        return rows[self.active[k]]


def subdifferential(
    f: MaxAffineFn, x0: CondVector, active_tol: float = ACTIVE_TOL
) -> SubdifferentialRep:
    """Active slopes and the minimal-norm subgradient at ``x0``.

    ``x0`` must sit in the relative interior of the domain on every atom
    so that no domain normal cone enters the subdifferential.
    """
    _check_space(f, x0)
    if f.domain is not None:
        ok = ri_membership(x0, f.domain, mode="relative")
        if not ok.is_full:
            raise PreconditionError(
                "point must be relatively interior to the domain", ~ok.mask
            )
    active = f.active_at(x0, active_tol)
    K = f.space.natoms
    rep = np.empty((K, f.dim))
    for k in range(K):
        rows = f.slopes_at(k)[active[k]]
        rep[k] = simplex_min_norm(rows).point
    return SubdifferentialRep(
        point=x0,
        active=active,
        representative=CondVector(f.space, rep),
        slopes=tuple(y for y, _ in f.pieces),
    )


def bounded_subgradient(
    f: MaxAffineFn,
    x0: CondVector,
    v: CondScalar,
    tol: float = QP_TOL,
    probes: int = 64,
    seed: int = 7,
) -> CondVector:
    """A subgradient at ``x0`` no longer than the growth constant ``v``.

    The growth bound ``f(x0 + x) >= f(x0) - v |x|`` is audited on seeded
    probe directions at several radii; then the minimal-norm subgradient
    is returned, and the growth bound forces its norm below ``v``.
    """
    _check_space(f, x0)
    _check_space(f, v)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((probes, f.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    f0 = f.eval(x0).values
    bad = np.zeros(f.space.natoms, dtype=bool)
    for u in dirs:
        for radius in (1.0, 1e3, 1e6):
            shift = CondVector.constant(f.space, radius * u)
            fv = f.eval(x0 + shift).values
            floor = f0 - v.values * radius
            scale = np.maximum(1.0, np.abs(floor))
            bad |= fv < floor - STRICT_TOL * scale
    if bad.any():
        raise PreconditionError("growth bound fails on probe directions", bad)
    rep = subdifferential(f, x0).representative
    norms = rep.norm().values
    over = norms > v.values + tol * np.maximum(1.0, np.abs(v.values))
    if over.any():
        raise PreconditionError(
            "growth bound fails in the slope geometry", over
        )
    return rep


def directional_derivative(
    f: MaxAffineFn, x0: CondVector, x: CondVector, strict_tol: float = STRICT_TOL
) -> CondExtScalar:
    """One-sided derivative ``lim t->0+ (f(x0 + t x) - f(x0)) / t``.

    Exact for max-affine functions: the maximum of ``<x, slope>`` over
    the active pieces, or ``+inf`` when every positive step along ``x``
    leaves the domain.
    """
    _check_space(f, x0)
    _check_space(f, x)
    f0 = f.eval(x0)
    if not f0.finite_set.is_full:
        raise PreconditionError("x0 must lie in the domain", ~f0.finite_set.mask)
    active = f.active_at(x0)
    K = f.space.natoms
    out = np.empty(K)
    for k in range(K):
        rows = f.slopes_at(k)[active[k]]
        out[k] = float(np.max(rows @ x.values[k]))
    if f.domain is not None:
        feas = _feasible_direction_mask(f.domain, x0, x, strict_tol)
        out = np.where(feas, out, np.inf)
    return CondExtScalar(f.space, out)


def _feasible_direction_mask(
    dom: ConvexSetRep, x0: CondVector, x: CondVector, strict_tol: float
) -> np.ndarray:
    """Atoms where some positive step along ``x`` stays in the domain."""
    K = dom.space.natoms
    out = np.zeros(K, dtype=bool)
    for k in range(K):
        cols, simplex_row, bounds = vrep_block(*dom.generators_at(k), dom.dim)
        # variables: the coefficients, then the step size; maximize the step
        c = np.zeros(cols.shape[1] + 1)
        c[-1] = -1.0
        A_eq = np.vstack([np.column_stack([cols, -x.values[k]]), np.append(simplex_row, 0.0)])
        b_eq = np.append(x0.values[k], 1.0)
        res = solve_lp(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds + [(0, 1.0)])
        out[k] = res.status == 0 and -res.fun > strict_tol
    return out


def differentiability_check(
    f: MaxAffineFn, x0: CondVector, grad_tol: float = 1e-9
) -> tuple[MeasurableSet, CondVector]:
    """Atoms where ``f`` is differentiable at ``x0``, with the gradient.

    Differentiability holds exactly where the subdifferential collapses
    to a single slope; with a domain present the point must also be
    interior there.  The gradient rows are zero off the returned set.
    """
    _check_space(f, x0)
    active = f.active_at(x0)
    K = f.space.natoms
    ok = np.zeros(K, dtype=bool)
    grad = np.zeros((K, f.dim))
    for k in range(K):
        rows = f.slopes_at(k)[active[k]]
        scale = max(1.0, float(np.max(np.abs(rows))))
        spread = float(np.max(np.abs(rows - rows[0]))) if len(rows) else 0.0
        if spread <= grad_tol * scale:
            ok[k] = True
            grad[k] = rows[0]
    if f.domain is not None:
        interior = ri_membership(x0, f.domain, mode="interior").mask
        grad[~interior] = 0.0
        ok &= interior
    return MeasurableSet(f.space, ok), CondVector(f.space, grad)


@dataclass(frozen=True)
class ArgminResult:
    """Minimizer of a max-affine function over a conditional convex set.

    ``value`` is ``+inf`` on atoms where the feasible set is empty (the
    minimizer row is a filler there); ``unique_set`` holds the atoms
    whose optimal face is a single point.
    """

    minimizer: CondVector
    value: CondExtScalar
    unique_set: MeasurableSet


def argmin(
    f: MaxAffineFn,
    c: ConvexSetRep,
    tol: float = QP_TOL,
) -> ArgminResult:
    """Per-atom epigraph LP minimization of ``f`` over ``c``.

    Requires bounded sublevel sets: no recession direction of the
    feasible set may keep every piece non-increasing.  Violations raise
    with the offending atoms and a certificate ray.  Atoms whose LP is
    unbounded (``UnboundedError``) or fails (``SolverError``) are raised
    only after every atom is solved, so the mask names all of them.
    """
    _check_space(f, c)
    if f.dim != c.dim:
        raise ShapeError("function and set dimensions differ")
    space = f.space
    K = space.natoms

    descent = _descent_recession(f, c)
    if descent is not None:
        atoms, witness = descent
        raise UnboundedError(
            "objective is unbounded below on part of the space", atoms, witness
        )

    d = f.dim

    def solve(k: int):
        vsets = [c.generators_at(k)] + ([] if f.domain is None else [f.domain.generators_at(k)])
        zoff = np.array([z.values[k] for _, z in f.pieces])
        lp = _epigraph_lp(f.slopes_at(k), zoff, vsets, d)
        nvar = len(lp["bounds"])
        c_obj = np.zeros(nvar)
        c_obj[d] = 1.0
        res = solve_lp(c_obj, **lp)
        if res.status == 2:
            return 2, c.points[0].values[k], np.inf, False
        if res.status != 0:
            return res.status, None, None, False
        xstar = res.x[:d]
        vstar = float(res.fun)
        # uniqueness: bounding box of the optimal face
        scale = max(1.0, abs(vstar))
        face = dict(lp, A_ub=np.vstack([lp["A_ub"], c_obj[None, :]]),
                    b_ub=np.concatenate([lp["b_ub"], [vstar + STRICT_TOL * scale]]))
        unique = True
        for axis in range(d):
            lohi = []
            for sign in (1.0, -1.0):
                cc = np.zeros(nvar)
                cc[axis] = sign
                r2 = solve_lp(cc, **face)
                if r2.status != 0:
                    lohi = None
                    break
                lohi.append(float(r2.fun * sign))
            if lohi is None or abs(lohi[0] - lohi[1]) > tol * max(1.0, abs(xstar[axis])):
                unique = False
                break
        return 0, xstar, vstar, unique

    # every atom is solved before raising, so the error masks are complete
    out = [solve(k) for k in range(K)]
    status = np.array([o[0] for o in out])
    if (status == 3).any():
        raise UnboundedError(
            "objective is unbounded below on part of the space",
            status == 3,
            CondVector.zero(space, f.dim),
        )
    failed = (status != 0) & (status != 2)
    if failed.any():
        raise SolverError(
            f"argmin LP failed with status {sorted(set(status[failed].tolist()))}", failed
        )
    return ArgminResult(
        minimizer=CondVector(space, np.array([o[1] for o in out])),
        value=CondExtScalar(space, np.array([o[2] for o in out])),
        unique_set=MeasurableSet(space, np.array([o[3] for o in out], dtype=bool)),
    )


def _descent_recession(f: MaxAffineFn, c: ConvexSetRep):
    """Per-atom certificate ray along which every piece is non-increasing.

    The ray is taken from the recession cone of the feasible set, which
    is ``rec(c)`` intersected with ``rec(domain)`` when ``f`` has one.
    Returns ``None`` when sublevel sets are bounded everywhere, else a
    boolean atom mask plus a glued witness direction.
    """
    space = f.space
    K = space.natoms

    def cone(rep: ConvexSetRep, k: int) -> np.ndarray:
        gens = np.vstack([rep.rays_at(k), rep.lines_at(k), -rep.lines_at(k)])
        return gens[np.linalg.norm(gens, axis=1) > 1e-12]

    witness = np.zeros((K, f.dim))
    bad = np.zeros(K, dtype=bool)
    for k in range(K):
        gens = cone(c, k)
        dom = cone(f.domain, k) if f.domain is not None else None
        if not len(gens) or (dom is not None and not len(dom)):
            continue
        yrows = f.slopes_at(k)
        n = len(gens)
        # w = gens^T u, u in [0,1]^n, every piece slope non-increasing;
        # with a domain also w = dom^T v, v >= 0, so w is in both cones
        A_ub = yrows @ gens.T  # rows: <w, slope_j> <= 0
        bounds = [(0.0, 1.0)] * n
        A_eq = b_eq = None
        if dom is not None:
            A_ub = np.hstack([A_ub, np.zeros((len(yrows), len(dom)))])
            A_eq = np.hstack([gens.T, -dom.T])
            b_eq = np.zeros(f.dim)
            bounds += [(0.0, None)] * len(dom)
        for axis in range(f.dim):
            for sign in (1.0, -1.0):
                cc = np.zeros(len(bounds))
                cc[:n] = -sign * gens[:, axis]
                res = solve_lp(
                    cc,
                    A_ub=A_ub,
                    b_ub=np.zeros(len(yrows)),
                    A_eq=A_eq,
                    b_eq=b_eq,
                    bounds=bounds,
                )
                if res.status != 0:
                    continue
                w = gens.T @ res.x[:n]
                if sign * w[axis] > 1e-7:
                    bad[k] = True
                    witness[k] = w / max(1.0, np.linalg.norm(w))
                    break
            if bad[k]:
                break
    if bad.any():
        return bad, CondVector(space, witness)
    return None


@dataclass(frozen=True)
class InfConvResult:
    """Min-plus convolution of grid functions over lattice splittings.

    ``value`` holds the convolved node data.  ``split_indices[i]`` maps
    each result node (per atom) to the node index of part ``i`` of the
    minimizing splitting; ``parts_at`` turns them into vectors.
    ``input_convexity_defect`` and ``output_convexity_defect`` report
    the worst midpoint-convexity violation seen on the node data.
    """

    value: GridFn
    split_indices: tuple[np.ndarray, ...]
    input_convexity_defect: CondScalar
    output_convexity_defect: CondScalar

    def parts_at(self, node_index: int) -> list[CondVector]:
        g = self.value
        xs = g.grid.nodes()
        out = []
        for idx in self.split_indices:
            rows = xs[idx[:, node_index]]
            out.append(CondVector(g.space, rows))
        return out


def _midpoint_defect_1d(vals: np.ndarray) -> float:
    worst = 0.0
    for i in range(1, len(vals) - 1):
        a, b, c = vals[i - 1], vals[i], vals[i + 1]
        if np.isfinite(a) and np.isfinite(b) and np.isfinite(c):
            worst = max(worst, 2.0 * b - a - c)
    return worst


def inf_convolution(fs: Sequence[GridFn]) -> InfConvResult:
    """Exact min-plus convolution of grid functions on a shared lattice.

    All inputs must share the grid, which must contain the origin as a
    node so that node sums land back on the lattice.  Splittings falling
    off the stored carrier are not considered (finite-carrier
    truncation).  For two functions the minimization over splittings is
    exhaustive; longer families fold associatively and the recorded
    splitting indices are unwound through the fold.
    """
    if not fs:
        raise ShapeError("inf_convolution needs at least one function")
    g0 = fs[0]
    if g0.grid.ndim != 1:
        raise ShapeError("inf-convolution is implemented for 1-d grids")
    for f in fs[1:]:
        if f.grid != g0.grid:
            raise ShapeError("inf-convolution needs a shared grid")
        if f.space != g0.space:
            raise SpaceMismatchError("functions live on different spaces")
    (q,) = g0.grid.origin_offsets()
    K = g0.space.natoms
    n = g0.grid.shape[0]

    acc = g0.values.copy()
    # stage_arg[s][k, j] = index into the accumulated function at stage s
    stage_args: list[np.ndarray] = []
    for f in fs[1:]:
        nxt = np.full((K, n), np.inf)
        args = np.zeros((K, n), dtype=np.int64)
        for k in range(K):
            table = np.full((n, n), np.inf)
            for i in range(n):
                # acc at node i pairs with f at node j, landing at i + j - q
                j0 = max(0, 0 - (i - q))
                lo = i + j0 - q
                hi = min(n, i + n - q)
                if lo >= hi:
                    continue
                js = np.arange(lo - i + q, hi - i + q)
                table[i, lo:hi] = ext_add(
                    np.full(js.size, acc[k, i]), f.values[k, js]
                )
            nxt[k] = table.min(axis=0)
            args[k] = table.argmin(axis=0)
        stage_args.append(args)
        acc = nxt

    # unwind the fold into per-function node indices
    nfn = len(fs)
    splits = [np.zeros((K, n), dtype=np.int64) for _ in range(nfn)]
    for k in range(K):
        for node in range(n):
            target = node
            for s in range(len(stage_args) - 1, -1, -1):
                i = int(stage_args[s][k, target])
                splits[s + 1][k, node] = target - i + q
                target = i
            splits[0][k, node] = target

    in_defect = np.zeros(K)
    out_defect = np.zeros(K)
    for k in range(K):
        in_defect[k] = max(_midpoint_defect_1d(f.values[k]) for f in fs)
        out_defect[k] = _midpoint_defect_1d(acc[k])

    return InfConvResult(
        value=GridFn(g0.space, g0.grid, acc),
        split_indices=tuple(splits),
        input_convexity_defect=CondScalar(g0.space, in_defect),
        output_convexity_defect=CondScalar(g0.space, out_defect),
    )


@dataclass(frozen=True)
class InfConvChecks:
    """Structural audits of an inf-convolution.

    ``additivity_defect``: worst per-atom gap between the conjugate of
    the convolution and the sum of the input conjugates over dual nodes
    where both sides are finite.  ``subdiff_ok``: atoms where, at every
    node with an attained finite splitting, the discrete slope interval
    of the convolution contains the intersection of the parts' intervals
    up to one slope step.  ``interior_ok``: atoms where interior domain
    nodes of the first part propagate to interior result nodes.
    """

    additivity_defect: CondScalar
    subdiff_ok: MeasurableSet
    interior_ok: MeasurableSet


def _slope_interval(vals: np.ndarray, xs: np.ndarray, i: int) -> tuple[float, float]:
    lo, hi = -np.inf, np.inf
    if i > 0 and np.isfinite(vals[i - 1]):
        lo = (vals[i] - vals[i - 1]) / (xs[i] - xs[i - 1])
    if i + 1 < len(vals) and np.isfinite(vals[i + 1]):
        hi = (vals[i + 1] - vals[i]) / (xs[i + 1] - xs[i])
    return lo, hi


def infconv_checks(
    fs: Sequence[GridFn],
    conv: Optional[InfConvResult] = None,
    dual_grid: Optional[Grid] = None,
) -> InfConvChecks:
    """Audit conjugate additivity, subgradient intersection and interior
    propagation for an inf-convolution of 1-d grid functions."""
    if conv is None:
        conv = inf_convolution(fs)
    g = conv.value
    if dual_grid is None:
        dual_grid = default_dual_grid(fs[0])
    K = g.space.natoms
    xs = g.grid.axis(0)

    gstar = conjugate(g, dual_grid)
    fstars = [conjugate(f, dual_grid) for f in fs]
    addl = np.zeros(K)
    for k in range(K):
        total = fstars[0].values[k].copy()
        for fs_j in fstars[1:]:
            total = ext_add(total, fs_j.values[k])
        a = gstar.values[k]
        both = np.isfinite(a) & np.isfinite(total)
        addl[k] = float(np.max(np.abs(a[both] - total[both]))) if both.any() else 0.0

    sub_ok = np.ones(K, dtype=bool)
    int_ok = np.ones(K, dtype=bool)
    for k in range(K):
        gv = g.values[k]
        for node in range(len(xs)):
            if not np.isfinite(gv[node]):
                continue
            parts = [int(conv.split_indices[j][k, node]) for j in range(len(fs))]
            attained = all(np.isfinite(fs[j].values[k][parts[j]]) for j in range(len(fs)))
            if not attained:
                continue
            # one slope step of slack around the discretized intervals
            slack = _local_curvature(gv, xs, node)
            glo, ghi = _slope_interval(gv, xs, node)
            ilo, ihi = -np.inf, np.inf
            for j in range(len(fs)):
                lo, hi = _slope_interval(fs[j].values[k], xs, parts[j])
                slack = max(slack, _local_curvature(fs[j].values[k], xs, parts[j]))
                ilo, ihi = max(ilo, lo), min(ihi, hi)
            if ilo <= ihi:  # nonempty intersection must fit inside
                if np.isfinite(ilo) and ilo < glo - slack - 1e-9:
                    sub_ok[k] = False
                if np.isfinite(ihi) and ihi > ghi + slack + 1e-9:
                    sub_ok[k] = False
            p0 = parts[0]
            first = fs[0].values[k]
            inner_dom = (
                0 < p0 < len(xs) - 1
                and np.isfinite(first[p0 - 1])
                and np.isfinite(first[p0 + 1])
            )
            if inner_dom and 0 < node < len(xs) - 1:
                if not (np.isfinite(gv[node - 1]) and np.isfinite(gv[node + 1])):
                    int_ok[k] = False
    return InfConvChecks(
        additivity_defect=CondScalar(g.space, addl),
        subdiff_ok=MeasurableSet(g.space, sub_ok),
        interior_ok=MeasurableSet(g.space, int_ok),
    )


def _local_curvature(vals: np.ndarray, xs: np.ndarray, i: int) -> float:
    """Gap between adjacent discrete slopes at node ``i`` (0 at edges)."""
    lo, hi = _slope_interval(vals, xs, i)
    if np.isfinite(lo) and np.isfinite(hi):
        return max(0.0, hi - lo)
    return 0.0


def sublinear_support(f: MaxAffineFn) -> tuple[CondVector, ...]:
    """Generators of the support-set representation of a sublinear ``f``.

    Requires all offsets to vanish; then ``f(0) = 0`` and the slopes
    generate the subdifferential at 0, whose support function is ``f``.
    """
    bad = np.zeros(f.space.natoms, dtype=bool)
    for _, z in f.pieces:
        bad |= np.abs(z.values) > FEAS_TOL
    if bad.any():
        raise PreconditionError("sublinear functions need zero offsets", bad)
    return tuple(y for y, _ in f.pieces)
