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

from ._solvers import LPModel, expect, min_norm_point, per_atom, solve_lp, vrep_block
from .core import (
    CondExtScalar,
    CondScalar,
    CondVector,
    MeasurableSet,
    MeasureSpace,
    _check_space,
    _freeze,
    _stack,
    _strata,
    ext_add,
)
from .errors import ShapeError, UnboundedError, _require
from .linalg import _dot
from .sets import ConvexSetRep, membership, ri_membership
from .tolerances import (ACTIVE_TOL, BOX_BAND, DESCENT_TOL, EQ_TOL, FEAS_TOL, NORM_FLOOR,
                         QP_TOL, STRICT_TOL, row_scale)

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
    "default_dual_grid",
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

_GROWTH_PROBES = 64  # seeded directions of bounded_subgradient's growth audit
_U = 2.0 ** -53  # unit roundoff of float64
_BLOCK = 2**16  # nodes, windows or padded terms per block of the fold


@dataclass(frozen=True, eq=False)
class MaxAffineFn:
    """``f(x) = max_j <x, slopes[j]> + offsets[j]`` on a polyhedral domain.

    The pieces are stored stacked and read-only: ``slopes`` is
    ``(K, J, dim)`` and ``offsets`` is ``(K, J)``, atom axis first.
    Outside the domain (when one is given) the value is ``+inf``.
    """

    space: MeasureSpace
    slopes: np.ndarray
    offsets: np.ndarray
    domain: Optional[ConvexSetRep] = None

    def __post_init__(self):
        slopes = np.array(self.slopes, dtype=float, order="C")
        offsets = np.array(self.offsets, dtype=float, order="C")
        if slopes.ndim != 3 or slopes.shape[0] != self.space.natoms or (
                offsets.shape != slopes.shape[:2]):
            raise ShapeError("pieces must form (natoms, npieces, dim) slopes "
                             "and (natoms, npieces) offsets")
        if not slopes.shape[1]:
            raise ShapeError("a max-affine function needs at least one piece")
        if not (np.isfinite(slopes).all() and np.isfinite(offsets).all()):
            raise ShapeError("pieces must have finite entries")
        object.__setattr__(self, "slopes", _freeze(slopes))
        object.__setattr__(self, "offsets", _freeze(offsets))
        if self.domain is not None:
            _check_space(self, self.domain)
            if self.domain.dim != self.dim:
                raise ShapeError("domain must match the function's dimension")

    @classmethod
    def from_pieces(
        cls,
        pieces: Sequence[tuple[CondVector, CondScalar]],
        domain: Optional[ConvexSetRep] = None,
    ) -> "MaxAffineFn":
        """Build a function from ``(slope, offset)`` pairs, reading space
        and dimension off the first."""
        pieces = tuple(pieces)
        if not pieces:
            raise ShapeError("a max-affine function needs at least one piece")
        space, dim = pieces[0][0].space, pieces[0][0].dim
        slopes = _stack([y for y, _ in pieces], space, (dim,))
        offsets = _stack([z for _, z in pieces], space)
        return cls(space, slopes, offsets, domain)

    @property
    def dim(self) -> int:
        return self.slopes.shape[2]

    @property
    def npieces(self) -> int:
        return self.slopes.shape[1]

    def piece_values(self, x: CondVector) -> np.ndarray:
        """Per-atom value of every affine piece: shape (natoms, npieces)."""
        _check_space(self, x)
        return np.einsum("kd,kjd->kj", x.values, self.slopes) + self.offsets

    def eval(self, x: CondVector) -> CondExtScalar:
        # read at the first maximal piece: a contiguous max would pick the
        # sign of a 0.0/-0.0 tie by numpy's SIMD dispatch
        pv = self.piece_values(x)
        vals = pv[np.arange(len(pv)), pv.argmax(axis=1)]
        if self.domain is not None:
            inside = membership(x, self.domain)
            vals = np.where(inside.mask, vals, np.inf)
        return CondExtScalar(self.space, vals)

    def active_at(self, x: CondVector) -> np.ndarray:
        """Boolean (natoms, npieces) mask of pieces within ``ACTIVE_TOL`` of the max."""
        vals = self.piece_values(x)
        best = vals.max(axis=1, keepdims=True)
        return vals >= best - ACTIVE_TOL * (1.0 + np.abs(best))


_MAX_NODES = 2 ** 24
_TOO_MANY_NODES = f"a grid holds at most 2**24 = {_MAX_NODES} nodes"


@dataclass(frozen=True)
class Grid:
    """A rectangular lattice, one finite (min, max, step) triple per
    dimension, of at most 2**24 nodes in all."""

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
        if not np.isfinite(mins + maxs + steps).all():
            raise ShapeError("grid axes must be finite")
        nodes = 1
        for lo, hi, st in zip(mins, maxs, steps):
            if st <= 0 or hi < lo:
                raise ShapeError("grid axes need positive step and max >= min")
            span = (hi - lo) / st
            if not span < _MAX_NODES:  # checked before round() meets an overflow
                raise ShapeError(_TOO_MANY_NODES)
            n = round(span) + 1
            if abs(lo + (n - 1) * st - hi) > FEAS_TOL * max(1.0, abs(hi), abs(lo)):
                raise ShapeError("grid extent must be a whole number of steps")
            nodes *= n
        if nodes > _MAX_NODES:
            raise ShapeError(_TOO_MANY_NODES)
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
            if abs(q - qi) > FEAS_TOL or not 0 <= qi < n:
                raise ShapeError("grid must contain the origin as a node")
            offs.append(int(qi))
        return tuple(offs)


@dataclass(frozen=True, eq=False)
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
        v = np.array(self.values, dtype=float)
        want = (self.space.natoms,) + self.grid.shape
        if v.shape != want:
            raise ShapeError(f"grid values must have shape {want}")
        if np.any(np.isnan(v)):
            raise ShapeError("grid values cannot contain NaN")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def proper_set(self) -> MeasurableSet:
        flat = self.values.reshape(self.space.natoms, -1)
        return MeasurableSet(self.space, np.isfinite(flat).any(axis=1))

    def eval(self, x: CondVector) -> CondExtScalar:
        """Multilinear interpolation; ``+inf`` wins over ``-inf`` in a cell.

        One pass over all atoms and cell corners; a corner of weight 0
        enters the dot product as ``-0.0 * 0.0``, leaving its bits as they are."""
        _check_space(self, x)
        g = self.grid
        if x.dim != g.ndim:
            raise ShapeError("point dimension does not match the grid")
        n = np.array(g.shape)
        t = (x.values - g.mins) / g.steps
        off = (t < -FEAS_TOL) | (t > n - 1 + FEAS_TOL)
        _require({"evaluation point off the grid": off.any(axis=1)})
        t = np.minimum(np.maximum(t, 0.0), n - 1)
        i0 = np.maximum(np.minimum(np.floor(t).astype(np.int64), n - 2), 0)
        frac = (t - i0)[:, None]
        hi = (np.arange(2 ** g.ndim)[:, None] >> np.arange(g.ndim)) & 1  # (corner, axis)
        w = np.where(n == 1, 1.0 - hi, np.where(hi == 1, frac, 1.0 - frac)).prod(axis=2)
        idx = i0[:, None] + hi * (n > 1)
        v = self.values[(np.arange(len(t))[:, None], *np.moveaxis(idx, 2, 0))]
        live = w > 0.0
        dot = _dot(np.where(live, w, -0.0), np.where(live & np.isfinite(v), v, 0.0))
        inf = [(live & np.isposinf(v)).any(axis=1), (live & np.isneginf(v)).any(axis=1)]
        return CondExtScalar(self.space, np.select(inf, [np.inf, -np.inf], dot))


def _lower_hulls(x: np.ndarray, v: np.ndarray, first: np.ndarray, last: np.ndarray):
    """Lower-hull vertex mask and successor of the node chains in ``x, v``.

    The chains are consecutive runs of the flat arrays, ``first`` and
    ``last`` marking their ends.  Every round deletes, in all chains at
    once, each tested node that lies on or above the chord of its two
    neighbours; the first round tests every node and each later one the
    survivors next to a deleted run, so a round costs what it changes.
    (Rounds can still number up to a chain's length, as when one low node
    sits next to a long convex chain above it.)  Chain ends are never
    deleted.  Returns ``(vertex, nxt)``: ``nxt`` of a
    vertex is the next vertex of its chain, ``-1`` at a chain's end.
    """
    def above(p, i, q):  # node i lies on or above the chord of nodes p and q
        return (v[i] - v[p]) * (x[q] - x[i]) >= (v[q] - v[i]) * (x[i] - x[p])

    idx = np.arange(len(x))
    prev, nxt = idx - 1, idx + 1
    prev[first], nxt[last] = -1, -1
    vertex = np.ones(len(x), dtype=bool)
    inner = ~first[1:-1] & ~last[1:-1]
    gone = idx[1:-1][inner & above(slice(None, -2), slice(1, -1), slice(2, None))]
    while gone.size:
        vertex[gone] = False
        # the deleted nodes fall into runs between two survivors, in list
        # order: a chain's first and last node always survive
        lft = prev[gone[vertex[prev[gone]]]]
        rgt = nxt[gone[vertex[nxt[gone]]]]
        nxt[lft], prev[rgt] = rgt, lft
        work = np.stack([lft, rgt], axis=1).ravel()
        work = work[np.r_[True, work[1:] != work[:-1]] & (prev[work] >= 0) & (nxt[work] >= 0)]
        gone = work[above(prev[work], work, nxt[work])]
    return vertex, nxt


def _chains(fin: np.ndarray):
    """The chains of a ``(rows, n)`` mask: the nodes where ``fin`` holds,
    row-major, as ``(row, col, first, last)``, each node's row and column
    and whether it is the first or the last node of its row."""
    row, col = np.nonzero(fin)
    return row, col, np.diff(row, prepend=-1) != 0, np.diff(row, append=-1) != 0


def _windows(xs: np.ndarray, V: np.ndarray, ys: np.ndarray, fin: np.ndarray):
    """The nodes ``_legendre`` keeps and the window of them it folds for
    each dual node, over the rows with a node in ``fin``.

    Returns ``(live, kx, kv, wa, wb)``: the row indices, the kept nodes'
    ``x`` and ``v`` in row and node order, and ``(rows, m)`` arrays such
    that ``kx[wa:wb]`` is the window of a row and a dual node.
    """
    m = len(ys)
    row, col, first, last = _chains(fin)
    x, v = xs[col], V[row, col]
    starts = np.flatnonzero(first)
    size = np.diff(np.append(starts, len(row)))
    live = row[starts]
    L = len(live)

    # the guard T of every row, and every node's gap above its hull edge
    W = np.maximum.reduceat(np.abs(v), starts)
    T = 4.0 * _U * (np.abs(xs).max() * np.abs(ys).max() + W) * (1.0 + 2.0**-20) + 2.0**-1072
    gamma = 2.0**-46 * W
    vertex, nxt = _lower_hulls(x, v, first, last)
    vflat = np.flatnonzero(vertex)
    a = vflat[np.cumsum(vertex) - 1]  # the vertex at or left of each node
    edge = vflat[nxt[vflat] >= 0]
    slope = np.zeros(len(x))
    slope[edge] = (v[nxt[edge]] - v[edge]) / (x[nxt[edge]] - x[edge])
    gap = v - (v[a] + slope[a] * (x - x[a]))
    gap[vertex] = 0.0
    keep = vertex | (gap <= np.repeat(T + gamma, size))
    D = gamma - np.minimum(np.minimum.reduceat(gap, starts), 0.0)
    A = (T + D) / np.diff(xs).min(initial=np.inf) * (1.0 + 2.0**-20)

    # for each y_j, the hull vertices from the first after the longest
    # prefix of edges surely left of y_j to the last before the longest
    # suffix surely right of it.  Edge k is surely left of y_j from
    # j = left[k] on and surely right of it before j = right[k]; a running
    # max (min from the right) over each row makes those prefixes
    # (suffixes), and running counts over all rows, each row counting its
    # first vertex in its column 0, turn them into vertex positions
    er = np.searchsorted(starts, edge, side="right") - 1
    off = er * (m + 1)
    s, c = slope[edge], 2.0**-44
    left = np.searchsorted(ys - c * np.abs(ys), s + (A[er] + c * np.abs(s)), side="right")
    right = np.searchsorted(ys + c * np.abs(ys), s - (A[er] + c * np.abs(s)), side="left")
    firsts = np.arange(L) * (m + 1)
    bounds = []
    for key in (np.maximum.accumulate(left + off), np.minimum.accumulate((right + off)[::-1])[::-1]):
        count = np.bincount(np.concatenate([firsts, key]), minlength=L * (m + 1))
        bounds.append(np.cumsum(count).reshape(L, m + 1)[:, :m])
    rank = np.cumsum(keep)[vflat]  # kept nodes up to each vertex
    wa = rank[bounds[0] - 1] - 1  # the window, as positions in the kept nodes
    wb = rank[bounds[1] - 1]
    return live, x[keep], v[keep], wa, wb


def _legendre(xs: np.ndarray, V: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Discrete transform of every row: ``out[r, j] = max_i xs_i * ys_j - V[r, i]``.

    The result has the bits of the dense fold of all ``n * m`` terms
    ``t_i = fl(fl(xs_i * ys_j) - V[r, i])`` in node order: of the nodes
    attaining the largest term the last one gives the bits, as
    ``np.maximum``, which returns its second operand on a tie, folds them.
    So a tie of ``0.0`` and ``-0.0`` resolves by position, never by SIMD
    dispatch.  Only the terms that rounding could make the largest are
    evaluated.  ``xs`` and ``ys`` increase and ``V`` holds no NaN; a row
    with a ``-inf`` node is ``+inf`` everywhere and a row without a finite
    node ``-inf``, as their dense folds are.

    Why the pruning keeps the bits.  Fix a row and a dual node ``y``; let
    ``e_i = x_i y - v_i`` be the exact terms over the finite nodes and
    ``u = 2**-53``.

    1. ``|t_i - e_i| <= u |x_i y| + u |fl(x_i y) - v_i| + 2**-1074
       <= (2u + u**2)(X Y + W) + 2**-1074``, with ``X = max |xs|``,
       ``Y = max |ys|`` and ``W`` the row's largest finite ``|v_i|`` (the
       product underflows by at most ``2**-1075``; a subnormal difference
       is exact).  The guard ``T = 4u (X Y + W)(1 + 2**-20) + 2**-1072``
       exceeds twice that, so ``e_k - e_i > T`` implies ``t_k > t_i``.
       If every pruned node ``i`` has a kept node ``k`` with
       ``e_k - e_i > T``, every node attaining the largest term is kept,
       and the kept nodes folded in node order give the same last one.
    2. Let ``h`` interpolate the chain of vertices from ``_lower_hulls``
       (for the proof any chain from the row's first to its last finite
       node will do; the lower hull only makes the kept sets small) and
       ``g_i = v_i - h(x_i)``.  A node between vertices ``a`` and ``b``
       has ``e_i = (1 - l) e_a + l e_b - g_i <= max(e_a, e_b) - g_i``.
       The computed gap is within ``gamma = 2**-46 W`` of ``g_i`` (a few
       roundings of quantities of size at most ``2 W``), so a node whose
       computed gap exceeds ``T + gamma`` is dominated by ``T`` by a
       vertex beside it, and is not eligible.  ``D``, ``gamma`` minus the
       least computed gap (or ``gamma``), bounds ``-g_i`` from above.
    3. On hull edge ``k`` the function ``E(x) = x y - h(x)`` has slope
       ``y - s_k``.  Let ``p`` be a vertex such that every edge left of
       it has ``y - s_k > A = (T + D) / Delta``, with ``Delta`` the least
       spacing of ``xs``.  A node ``i`` left of ``p`` is at least
       ``Delta`` away, so ``e_p - e_i = E(x_p) - E(x_i) + g_i >
       Delta A - D = T``; the same holds to the right.  The test of an
       edge compares its computed slope with slack ``2**-44 (|s_k| +
       |y|)`` and ``A`` carries a factor ``1 + 2**-20``; both exceed the
       few roundings in ``s_k``, ``A`` and the comparison.

    So for ``y_j`` the fold keeps the eligible nodes from the first
    vertex after the longest prefix of edges surely left of ``y_j`` to
    the last vertex before the longest suffix of edges surely right of
    it.  Both vertices exist, and between them lies the exact maximum.
    """
    neg = V.min(axis=1) == -np.inf
    out = np.where(neg, np.inf, -np.inf)[:, None].repeat(len(ys), axis=1)
    # rows go in blocks of about _BLOCK nodes and _BLOCK windows, which
    # bounds every temporary
    rows = max(1, _BLOCK // max(V.shape[1], len(ys)))
    for r in range(0, len(V), rows):
        fin = np.isfinite(V[r:r + rows])
        fin[neg[r:r + rows]] = False
        if fin.any():
            live, *windows = _windows(xs, V[r:r + rows], ys, fin)
            out[r + live] = _fold(*windows, ys)
    return out


def _fold(kx: np.ndarray, kv: np.ndarray, wa: np.ndarray, wb: np.ndarray, ys: np.ndarray):
    """Fold every window of ``_windows`` in node order, the last node
    attaining the maximum giving the bits.

    A one-node window is its first term; a longer one is padded to the
    next power of two by repeating its last node, and windows of one
    padded length fold in blocks of about ``_BLOCK`` terms along the
    first axis.
    """
    res = kx[wa] * ys - kv[wa]
    wide = np.flatnonzero(wb - wa > 1)
    wide_cls = np.frexp(wb.flat[wide] - wa.flat[wide] - 1)[1]
    for e, at in _strata(wide_cls):
        sel = wide[at]
        j = np.arange(1 << int(e))[:, None]
        step = max(1, _BLOCK >> int(e))
        for i in range(0, len(sel), step):
            ws = sel[i:i + step]
            pos = np.minimum(wa.flat[ws] + j, wb.flat[ws] - 1)
            t = kx[pos] * ys[ws % len(ys)] - kv[pos]
            res.flat[ws] = t[((t == t.max(axis=0)) * j).max(axis=0), np.arange(len(ws))]
    return res


def conjugate(f, dual_grid: Grid) -> GridFn:
    """Convex conjugate sampled on a caller-supplied dual grid.

    For a grid function this is the discrete Legendre transform over the
    stored nodes (values beyond the carrier are truncated, never
    clamped: dual nodes only see the finite carrier, and that truncation
    is part of the contract).  For a max-affine function each dual node
    value is an exact per-atom epigraph LP, with ``+inf`` reported where
    that LP is unbounded; atoms where a node LP fails otherwise raise one
    ``SolverError`` through ``per_atom`` after every atom is solved.
    """
    if isinstance(f, GridFn):
        _require({"conjugate needs a proper function": ~f.proper_set.mask})
        if dual_grid.ndim != f.grid.ndim:
            raise ShapeError("dual grid dimension must match the function")
        K = f.space.natoms
        if f.grid.ndim == 1:
            out = _legendre(f.grid.axis(0), f.values, dual_grid.axis(0))
        else:
            # two passes of one-dimensional transforms, all atoms stacked
            (n1, n2), (m1, m2) = f.grid.shape, dual_grid.shape
            inner = _legendre(f.grid.axis(1), f.values.reshape(K * n1, n2), dual_grid.axis(1))
            inner = inner.reshape(K, n1, m2).transpose(0, 2, 1).reshape(K * m2, n1)
            out = _legendre(f.grid.axis(0), -inner, dual_grid.axis(0))
            out = out.reshape(K, m2, m1).transpose(0, 2, 1)
        return GridFn(f.space, dual_grid, out)
    if isinstance(f, MaxAffineFn):
        return _conjugate_max_affine(f, dual_grid)
    raise ShapeError("conjugate expects a GridFn or MaxAffineFn")


def _conjugate_max_affine(f: MaxAffineFn, dual_grid: Grid) -> GridFn:
    if dual_grid.ndim != f.dim:
        raise ShapeError("dual grid dimension must match the function")
    K = f.space.natoms
    nodes = dual_grid.nodes()
    lp = LPModel(*_epigraph_lp(f.slopes, f.offsets, [] if f.domain is None else [f.domain]))
    out = np.reshape(per_atom(np.ones(K, dtype=bool),
                              lambda k: [_conj_node_lp(y, lp, k) for y in nodes], "conjugate"),
                     (K,) + dual_grid.shape)
    return GridFn(f.space, dual_grid, out)


def _epigraph_lp(yrows, zoff, vsets: list) -> tuple:
    """``LPModel`` stacks of the epigraph LP of ``max_j <y_j, x> + z_j``
    over the sets ``vsets``, from the ``(K, J, d)`` and ``(K, J)`` pieces.

    Variables are ``[x (d), s]`` and then each V-set's ``vrep_block``
    columns; the rows are ``yrows x - s <= -zoff``, then per V-set
    ``x - cols w = 0`` and its ``sum lam = 1`` row.  ``x`` and ``s`` are
    free.  Callers solve their objectives over the model of the stacks.
    """
    K, J, d = yrows.shape
    blocks = [vrep_block(s.points, s.rays, s.lines) for s in vsets]
    nvar = d + 1 + sum(cols.shape[2] for cols, _, _ in blocks)
    A_ub = np.zeros((K, J, nvar))
    A_ub[:, :, :d] = yrows
    A_ub[:, :, d] = -1.0
    A_eq = np.zeros((K, (d + 1) * len(blocks), nvar))
    boxes, col = [np.tile([-np.inf, np.inf], (d + 1, 1))], d + 1
    for i, (cols, simplex_row, box) in enumerate(blocks):
        n, row = cols.shape[2], i * (d + 1)
        A_eq[:, row: row + d, :d] = np.eye(d)
        A_eq[:, row: row + d, col: col + n] = -cols
        A_eq[:, row + d, col: col + n] = simplex_row
        boxes.append(box)
        col += n
    b_eq = np.tile(np.append(np.zeros(d), 1.0), (K, len(blocks)))
    return A_ub, -zoff, A_eq, b_eq, np.broadcast_to(np.vstack(boxes), (K, nvar, 2))


def _conj_node_lp(y: np.ndarray, lp: LPModel, k: int) -> float:
    """``sup <x,y> - f(x)`` over atom ``k``'s epigraph LP in ``lp``, by
    LP; ``inf`` if unbounded."""
    c = np.zeros(lp.n)
    c[: len(y)] = -y
    c[len(y)] = 1.0
    res = expect(solve_lp(lp, k, c), "unbounded")
    return np.inf if res.status == 3 else float(-res.fun)


def _lower_envelopes(xs: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Lower convex envelope of every row of node data over ``xs``, from
    the chains of its finite nodes: ``+inf`` outside a row's first and
    last finite node, the lower hull interpolated between them."""
    row, col, first, last = _chains(np.isfinite(V))
    x, v = xs[col], V[row, col]
    vertex, _ = _lower_hulls(x, v, first, last)
    out = np.full(V.shape, np.inf)
    # a chain's first node is a vertex, so cutting the vertices there leaves
    # an empty piece in front and then the hull of each chain
    vflat = np.flatnonzero(vertex)
    for hull in np.split(vflat, np.flatnonzero(first[vflat]))[1:]:
        lo, hi = col[hull[0]], col[hull[-1]] + 1
        out[row[hull[0]], lo:hi] = np.interp(xs[lo:hi], x[hull], v[hull])
    return out


@dataclass(frozen=True)
class FenchelMoreauReport:
    """Biconjugation audit of a grid function.

    ``biconjugate`` is ``f**`` pulled back to the primal grid through
    the dual grid; ``envelope`` is the lower convex envelope of the node
    data: the lower hull of each row's finite nodes, from
    ``_lower_hulls``, interpolated between them.  The transforms use
    that routine too, but their bits hold for any chain of nodes (step 2
    of ``_legendre``'s proof), so a wrong hull moves the envelope alone
    and shows as a deviation.  ``max_deviation`` is their worst
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


def _row_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, ``max |a - b|`` over nodes where both are finite (0 if none)."""
    both = np.isfinite(a) & np.isfinite(b)
    return np.abs(np.where(both, a, 0.0) - np.where(both, b, 0.0)).max(axis=1)


def default_dual_grid(f: GridFn) -> Grid:
    """Symmetric dual grid wide enough and fine enough for ``f``.

    The half-width covers every finite slope of the node data plus one.
    The dual step targets ``primal_step / width`` so that pulling a
    conjugate back through this grid stays within twice the primal step of
    the exact envelope (the biconjugation error is at most dual step times
    domain width).  A grid of more than 40 001 nodes raises
    ``ShapeError``: pass one to ``fenchel_moreau_check`` or
    ``infconv_checks``.
    """
    if f.grid.ndim != 1:
        raise ShapeError("default dual grids are derived for 1-d functions")
    row, col, _, last = _chains(np.isfinite(f.values))
    x, v, i = f.grid.axis(0)[col], f.values[row, col], np.flatnonzero(~last)
    slopes = np.abs((v[i + 1] - v[i]) / (x[i + 1] - x[i]))  # i + 1 is next in i's row
    slope = max(1.0, float(slopes.max())) if slopes.size else 1.0
    bound = float(np.ceil(slope)) + 1.0
    width = max(1.0, f.grid.maxs[0] - f.grid.mins[0])
    n = 2 * int(np.ceil(bound / (f.grid.steps[0] / width))) + 1
    if n > 40001:
        raise ShapeError(f"the default dual grid needs {n} nodes to keep its "
                         "error bound, more than 40001; pass a dual grid")
    step = 2.0 * bound / (n - 1)
    return Grid((-bound,), (bound,), (step,))


def fenchel_moreau_check(f: GridFn, dual_grid: Optional[Grid] = None) -> FenchelMoreauReport:
    """Compare ``f**`` with the lower convex envelope of the node data.

    One-dimensional grids only (the envelope is a lower hull).  Values
    must be finite or ``+inf``, with a finite node on every atom.
    """
    if f.grid.ndim != 1:
        raise ShapeError("the biconjugation audit supports 1-d grids")
    _require({"the audit needs values in (-inf, +inf]": np.isneginf(f.values).any(axis=1),
              "conjugate needs a proper function": ~f.proper_set.mask})
    if dual_grid is None:
        dual_grid = default_dual_grid(f)
    fstar = conjugate(f, dual_grid)
    fss = conjugate(fstar, f.grid)
    fsss = conjugate(fss, dual_grid)
    env = _lower_envelopes(f.grid.axis(0), f.values)

    a, fv = fss.values, f.values
    same = np.all(np.isfinite(a) == np.isfinite(env), axis=1)
    dev = np.where(same, _row_gap(a, env), np.inf)
    # at a +inf node of f the bound is +inf and always holds
    minor = np.all(a <= fv + FEAS_TOL * row_scale(fv)[:, None], axis=1)
    s1, s3 = fstar.values, fsss.values
    sb = np.isfinite(s1) & np.isfinite(s3)
    idem = np.all(np.isfinite(s1) == np.isfinite(s3), axis=1) & (
        _row_gap(s1, s3) <= EQ_TOL * row_scale(np.where(sb, s1, 0.0)))
    return FenchelMoreauReport(
        conjugate=fstar,
        biconjugate=fss,
        envelope=GridFn(f.space, f.grid, env),
        max_deviation=CondExtScalar(f.space, dev),
        minorant_ok=MeasurableSet(f.space, minor),
        idempotent_ok=MeasurableSet(f.space, idem),
    )


@dataclass(frozen=True, eq=False)
class SubdifferentialRep:
    """Subdifferential of a max-affine function at a point.

    Per atom it is the convex hull of the active piece slopes; the
    ``representative`` is the minimal-norm element of that hull.
    ``slopes`` is the function's ``(K, J, dim)`` slope array.
    """

    point: CondVector
    active: np.ndarray
    representative: CondVector
    slopes: np.ndarray

    def generator_rows(self, k: int) -> np.ndarray:
        return self.slopes[k][self.active[k]]


def _interior_at(f: MaxAffineFn, x0: CondVector, mode: str) -> np.ndarray:
    """Atoms where ``x0`` is interior, or relatively interior for ``mode =
    "relative"``, to ``f``'s domain; every atom when ``f`` has no domain."""
    if f.domain is None:
        return np.ones(f.space.natoms, dtype=bool)
    return ri_membership(x0, f.domain, mode=mode).mask


def _min_norm_subgradient(f: MaxAffineFn, active: np.ndarray) -> CondVector:
    """The minimal-norm element of the hull of each atom's ``active``
    slopes: one stacked QP per active count."""
    rep = np.empty((f.space.natoms, f.dim))
    for c, grp in _strata(active.sum(axis=1)):
        pieces = np.nonzero(active[grp])[1].reshape(len(grp), c)
        rep[grp] = min_norm_point(f.slopes[grp[:, None], pieces]).point
    return CondVector(f.space, rep)


def subdifferential(f: MaxAffineFn, x0: CondVector) -> SubdifferentialRep:
    """Active slopes and the minimal-norm subgradient at ``x0``.

    ``x0`` must sit in the relative interior of the domain on every atom
    so that no domain normal cone enters the subdifferential.
    """
    _check_space(f, x0)
    _require({"point must be relatively interior to the domain":
                  ~_interior_at(f, x0, "relative")})
    active = f.active_at(x0)
    return SubdifferentialRep(point=x0, active=active,
                              representative=_min_norm_subgradient(f, active), slopes=f.slopes)


def _probe_directions(seed: int, count: int, dim: int) -> np.ndarray:
    """``count`` seeded unit directions of ``R^dim``, one a row: normal draws
    divided by their norm, floored at ``NORM_FLOOR``."""
    rows = np.random.default_rng(seed).standard_normal((count, dim))
    return rows / np.maximum(NORM_FLOOR, np.linalg.norm(rows, axis=1, keepdims=True))


def bounded_subgradient(
    f: MaxAffineFn,
    x0: CondVector,
    v: CondScalar,
    seed: int = 7,
) -> CondVector:
    """The minimal-norm subgradient at ``x0``, which the growth bound
    ``f(x0 + x) >= f(x0) - v |x|`` forces no longer than ``v``.

    Four checks run on every atom, and one ``PreconditionError`` names
    the atoms that fail any, worded by the first that fails: (1) ``x0``
    lies in the domain, (2) relatively interior to it; (3) the growth
    bound holds on ``_GROWTH_PROBES`` seeded probe directions at several
    radii; (4) the subgradient is no longer than ``v``.
    """
    _check_space(f, x0)
    _check_space(f, v)
    dirs = _probe_directions(seed, _GROWTH_PROBES, f.dim)
    f0 = f.eval(x0)
    bad = np.zeros(f.space.natoms, dtype=bool)
    for u in dirs:
        for radius in (1.0, 1e3, 1e6):
            shift = CondVector.constant(f.space, radius * u)
            fv = f.eval(x0 + shift).values
            floor = f0.values - v.values * radius
            bad |= fv < floor - STRICT_TOL * row_scale(floor)
    rep = _min_norm_subgradient(f, f.active_at(x0))
    _require({"x0 must lie in the domain": ~f0.finite_set.mask,
              "point must be relatively interior to the domain": ~_interior_at(f, x0, "relative"),
              "growth bound fails on probe directions": bad,
              "growth bound fails in the slope geometry":
                  rep.norm().values > v.values + QP_TOL * row_scale(v.values)})
    return rep


def directional_derivative(f: MaxAffineFn, x0: CondVector, x: CondVector) -> CondExtScalar:
    """One-sided derivative ``lim t->0+ (f(x0 + t x) - f(x0)) / t``.

    Exact for max-affine functions: the maximum of ``<x, slope>`` over
    the active pieces, or ``+inf`` when every positive step along ``x``
    leaves the domain (no step longer than ``STRICT_TOL`` stays in it).
    A step LP that fails raises ``SolverError`` through ``per_atom``.

    The loop over atoms stays on purpose: row ``k`` is the BLAS product
    ``slopes[k][active[k]] @ x[k]``, shaped by the atom's count of active
    pieces, and of 20 000 seeded rows a stacked per-item ``matmul`` gave
    other bits in 552, a per-row-dot ``matmul`` in 8 886, ``einsum`` in
    8 315 and multiply-then-sum in 10 119.
    """
    _check_space(f, x0)
    _check_space(f, x)
    _require({"x0 must lie in the domain": ~f.eval(x0).finite_set.mask})
    active = f.active_at(x0)
    K = f.space.natoms
    out = np.empty(K)
    for k in range(K):
        out[k] = float(np.max(f.slopes[k][active[k]] @ x.values[k]))
    if f.domain is not None:
        feas = _feasible_direction_mask(f.domain, x0, x)
        out = np.where(feas, out, np.inf)
    return CondExtScalar(f.space, out)


def _feasible_direction_mask(dom: ConvexSetRep, x0: CondVector, x: CondVector) -> np.ndarray:
    """Atoms where a step longer than ``STRICT_TOL`` along ``x`` stays in
    the domain; an infeasible step LP means none does."""
    cols, simplex_row, box = vrep_block(dom.points, dom.rays, dom.lines)
    K, d, n = cols.shape
    # variables: the coefficients, then the step size; maximize the step
    A_eq = np.zeros((K, d + 1, n + 1))
    A_eq[:, :d] = np.concatenate([cols, -x.values[:, :, None]], axis=2)
    A_eq[:, d, :n] = simplex_row
    b_eq = np.concatenate([x0.values, np.ones((K, 1))], axis=1)
    box = np.broadcast_to(np.vstack([box, [0.0, 1.0]]), (K, n + 1, 2))
    model = LPModel(np.zeros((K, 0, n + 1)), np.zeros((K, 0)), A_eq, b_eq, box)
    c = np.zeros(n + 1)
    c[-1] = -1.0

    def solve(k):
        res = expect(solve_lp(model, k, c), "infeasible")
        return res.status == 0 and -res.fun > STRICT_TOL

    return np.array(per_atom(np.ones(K, dtype=bool), solve, "step"), dtype=bool)


def differentiability_check(f: MaxAffineFn, x0: CondVector) -> tuple[MeasurableSet, CondVector]:
    """Atoms where ``f`` is differentiable at ``x0``, with the gradient.

    Differentiability holds exactly where the subdifferential collapses
    to a single slope (up to ``FEAS_TOL``, scaled); with a domain present
    the point must also be interior there.  The gradient rows are zero off
    the returned set.
    """
    _check_space(f, x0)
    active = f.active_at(x0)
    on = active[:, :, None]
    # the first active slope, and the largest entry and spread of the active ones
    first = f.slopes[np.arange(f.space.natoms), active.argmax(axis=1)]
    spread = np.where(on, np.abs(f.slopes - first[:, None]), 0.0).max(axis=(1, 2))
    ok = spread <= FEAS_TOL * row_scale(np.where(on, f.slopes, 0.0))
    ok &= _interior_at(f, x0, "interior")
    grad = np.where(ok[:, None], first, 0.0)
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
    unbounded (``UnboundedError``) are raised only after every atom is
    solved, so the mask names all of them; an LP that fails otherwise
    raises ``SolverError`` through ``per_atom`` in the same way.

    The minimizer is unique on an atom when every axis of the bounding box
    of its near-optimal face (``f <= v* + STRICT_TOL * max(1, |v*|)``) is
    at most ``tol * max(1, |xstar[axis]|)`` wide.  The epigraph LP runs
    cold, and the box's 2·d LPs run hot from its basis; a hot LP that is
    not optimal is solved again cold, and so is the axis pair of a width
    within ``BOX_BAND`` of its threshold, so every fault and every verdict
    near its threshold is a cold solve's.
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
    lp = LPModel(*_epigraph_lp(f.slopes, f.offsets, [c] + ([] if f.domain is None else [f.domain])))
    c_obj = np.zeros(lp.n)
    c_obj[d] = 1.0

    def solve(k: int):
        res = expect(solve_lp(lp, k, c_obj), "infeasible", "unbounded")
        if res.status != 0:
            # empty feasible set: value +inf; unbounded below: -inf, raised below
            return c.points[k, 0], np.inf if res.status == 2 else -np.inf, False
        xstar = res.x[:d]
        vstar = float(res.fun)
        # uniqueness: bounding box of the optimal face, the epigraph model
        # cut by the row that reads this atom's optimum.  Only the box LPs'
        # values are read, so they run hot from the optimum's basis; a hot
        # LP that is not optimal, or a width within BOX_BAND of its
        # threshold, is solved again cold, and the cold answer decides
        face = lp.cut(k, c_obj, vstar + STRICT_TOL * max(1.0, abs(vstar)))

        def width(axis: int, hot: bool) -> float:
            lohi = []
            for sign in (1.0, -1.0):
                cc = np.zeros(lp.n)
                cc[axis] = sign
                r2 = solve_lp(face, 0, cc, hot=hot)
                if hot and r2.status:
                    r2 = solve_lp(face, 0, cc)
                if expect(r2, "unbounded").status == 3:  # an unbounded optimal face
                    return np.inf
                lohi.append(float(r2.fun * sign))
            return abs(lohi[0] - lohi[1])

        for axis in range(d):
            limit = tol * max(1.0, abs(xstar[axis]))
            w = width(axis, hot=True)
            if abs(w - limit) <= BOX_BAND * limit:
                w = width(axis, hot=False)
            if w > limit:
                return xstar, vstar, False
        return xstar, vstar, True

    out = per_atom(np.ones(K, dtype=bool), solve, "argmin")
    value = np.array([o[1] for o in out])
    if (value == -np.inf).any():
        raise UnboundedError("objective is unbounded below on part of the space",
                             value == -np.inf, CondVector.zero(space, f.dim))
    return ArgminResult(
        minimizer=CondVector(space, np.array([o[0] for o in out])),
        value=CondExtScalar(space, value),
        unique_set=MeasurableSet(space, np.array([o[2] for o in out], dtype=bool)),
    )


def _descent_recession(f: MaxAffineFn, c: ConvexSetRep):
    """Per-atom certificate ray along which every piece is non-increasing.

    The ray is taken from the recession cone of the feasible set, which
    is ``rec(c)`` intersected with ``rec(domain)`` when ``f`` has one.
    Returns ``None`` when sublevel sets are bounded everywhere, else a
    boolean atom mask plus a glued witness direction.
    """
    def cone(rep: ConvexSetRep, k: int) -> np.ndarray:
        gens = np.vstack([rep.rays[k], rep.lines[k], -rep.lines[k]])
        return gens[np.linalg.norm(gens, axis=1) > NORM_FLOOR]

    def solve(k):
        # a one-atom stack: the cone filter keeps another row count per atom
        gens = cone(c, k)
        dom = cone(f.domain, k) if f.domain is not None else np.zeros((0, f.dim))
        if not len(gens) or (f.domain is not None and not len(dom)):
            return None
        yrows = f.slopes[k]
        n, m = len(gens), len(dom)
        # w = gens^T u, u in [0,1]^n, every piece slope non-increasing;
        # with a domain also w = dom^T v, v >= 0, so w is in both cones
        A_ub = np.pad(yrows @ gens.T, ((0, 0), (0, m)))[None]  # rows: <w, slope_j> <= 0
        A_eq = np.concatenate([gens.T, -dom.T], axis=1)[None] if m else np.zeros((1, 0, n))
        box = np.array([[0.0, 1.0]] * n + [[0.0, np.inf]] * m)[None]
        model = LPModel(A_ub, np.zeros((1, len(yrows))), A_eq, np.zeros(A_eq.shape[:2]), box)
        for axis in range(f.dim):
            for sign in (1.0, -1.0):
                cc = np.zeros(n + m)
                cc[:n] = -sign * gens[:, axis]
                w = gens.T @ expect(solve_lp(model, 0, cc)).x[:n]
                if sign * w[axis] > DESCENT_TOL:
                    return w / max(1.0, np.linalg.norm(w))
        return None

    found = per_atom(np.ones(f.space.natoms, dtype=bool), solve, "recession")
    bad = np.array([w is not None for w in found])
    if not bad.any():
        return None
    return bad, CondVector(f.space, np.array([np.zeros(f.dim) if w is None else w for w in found]))


@dataclass(frozen=True, eq=False)
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
        """The parts of result node ``node_index``'s minimizing splitting;
        an atom whose result is ``+inf`` there has none, and the call
        raises ``PreconditionError`` naming every such atom."""
        g, xs = self.value, self.value.grid.nodes()
        _require({"the convolution is +inf at this node, so it has no splitting":
                      g.values[:, node_index] == np.inf})
        return [CondVector(g.space, xs[idx[:, node_index]]) for idx in self.split_indices]


def _midpoint_defect(V: np.ndarray) -> np.ndarray:
    """Per row, the worst ``2 b - a - c`` over consecutive finite node
    triples ``(a, b, c)``, and ``0.0`` when none is positive."""
    fin = np.isfinite(V)
    live = fin[:, :-2] & fin[:, 1:-1] & fin[:, 2:]
    d = np.multiply(2.0, V[:, 1:-1], out=np.zeros(live.shape), where=live)
    np.subtract(d, V[:, :-2], out=d, where=live)
    np.subtract(d, V[:, 2:], out=d, where=live)
    worst = d.max(axis=1, initial=0.0)
    return np.where(worst > 0.0, worst, 0.0)


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
    if any(f.grid != g0.grid for f in fs):
        raise ShapeError("inf-convolution needs a shared grid")
    (q,) = g0.grid.origin_offsets()
    K = g0.space.natoms
    n = g0.grid.shape[0]
    V = _stack(fs, g0.space, (n,))

    acc = V[:, 0].copy()
    # stage_args[s][k, t] = node of the accumulated function at stage s
    # in the best splitting of result node t
    stage_args: list[np.ndarray] = []
    for j in range(1, len(fs)):
        nxt = np.full((K, n), np.inf)
        args = np.zeros((K, n), dtype=np.int64)
        for i in range(n):
            # acc at node i pairs with f at node j, landing at i + j - q
            lo, hi = max(0, i - q), min(n, i + n - q)
            if lo >= hi:
                continue
            cand = ext_add(acc[:, i, None], V[:, j, lo - i + q: hi - i + q])
            # strict improvement only: the first minimizing node is kept
            args[:, lo:hi][cand < nxt[:, lo:hi]] = i
            np.minimum(nxt[:, lo:hi], cand, out=nxt[:, lo:hi])
        stage_args.append(args)
        acc = nxt

    # unwind the fold into per-function node indices
    rows = np.arange(K)[:, None]
    target = np.tile(np.arange(n), (K, 1))
    splits = []
    for args in reversed(stage_args):
        i = args[rows, target]
        splits.append(target - i + q)
        target = i
    splits.append(target)

    in_defect = np.max([_midpoint_defect(f.values) for f in fs], axis=0)
    return InfConvResult(
        value=GridFn(g0.space, g0.grid, acc),
        split_indices=tuple(reversed(splits)),
        input_convexity_defect=CondScalar(g0.space, in_defect),
        output_convexity_defect=CondScalar(g0.space, _midpoint_defect(acc)),
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


def _slope_intervals(V: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discrete left and right slopes at every node of every row, ``-inf``
    and ``+inf`` where that neighbour is off the grid or not finite, and
    the local curvature: the gap between the two slopes where both are
    finite, floored at 0 (0 otherwise)."""
    fin = np.isfinite(V)
    both = fin[:, :-1] & fin[:, 1:]
    d = np.subtract(V[:, 1:], V[:, :-1], out=np.zeros(both.shape), where=both)
    np.divide(d, xs[1:] - xs[:-1], out=d, where=both)
    lo = np.pad(np.where(both, d, -np.inf), ((0, 0), (1, 0)), constant_values=-np.inf)
    hi = np.pad(np.where(both, d, np.inf), ((0, 0), (0, 1)), constant_values=np.inf)
    kinked = np.isfinite(lo) & np.isfinite(hi)
    gap = np.subtract(hi, lo, out=np.zeros(lo.shape), where=kinked)
    return lo, hi, np.where(gap > 0.0, gap, 0.0)


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
    if len(fs) != len(conv.split_indices):
        raise ShapeError("the convolution was built from another number of parts")
    for f in fs:
        _check_space(f, g)
        if f.grid != g.grid:
            raise ShapeError("the parts and the convolution need a shared grid")
    if dual_grid is None:
        dual_grid = default_dual_grid(fs[0])
    xs = g.grid.axis(0)

    gstar = conjugate(g, dual_grid)
    fstars = [conjugate(f, dual_grid) for f in fs]
    total = fstars[0].values
    for fs_j in fstars[1:]:
        total = ext_add(total, fs_j.values)
    addl = _row_gap(gstar.values, total)

    rows = np.arange(g.space.natoms)[:, None]
    gv = g.values
    glo, ghi, slack = _slope_intervals(gv, xs)
    # nodes with a finite value and an attained finite splitting; split
    # indices at +inf result nodes may point off the grid and are clipped
    fing = np.isfinite(gv)
    live = fing.copy()
    parts = [np.clip(idx, 0, len(xs) - 1) for idx in conv.split_indices]
    ilo, ihi = -np.inf, np.inf
    for f, idx in zip(fs, parts):
        lo, hi, curv = (a[rows, idx] for a in _slope_intervals(f.values, xs))
        live &= np.isfinite(f.values[rows, idx])
        slack = np.maximum(slack, curv)
        ilo, ihi = np.maximum(ilo, lo), np.minimum(ihi, hi)
    # one slope step of slack around the discretized intervals; a
    # nonempty intersection of the parts' intervals must fit inside
    outside = (np.isfinite(ilo) & (ilo < glo - slack - FEAS_TOL)) | (
        np.isfinite(ihi) & (ihi > ghi + slack + FEAS_TOL)
    )
    sub_ok = ~np.any(live & (ilo <= ihi) & outside, axis=1)

    # at interior result nodes, interior domain nodes of the first part
    # must land on interior domain nodes
    fin0 = np.pad(np.isfinite(fs[0].values), ((0, 0), (1, 1)))
    inner_dom = (live & fin0[rows, parts[0]] & fin0[rows, parts[0] + 2])[:, 1:-1]
    int_ok = ~np.any(inner_dom & ~(fing[:, :-2] & fing[:, 2:]), axis=1)
    return InfConvChecks(
        additivity_defect=CondScalar(g.space, addl),
        subdiff_ok=MeasurableSet(g.space, sub_ok),
        interior_ok=MeasurableSet(g.space, int_ok),
    )


def sublinear_support(f: MaxAffineFn) -> tuple[CondVector, ...]:
    """Generators of the support-set representation of a sublinear ``f``.

    Requires all offsets to vanish; then ``f(0) = 0`` and the slopes
    generate the subdifferential at 0, whose support function is ``f``.
    """
    _require({"sublinear functions need zero offsets":
                  (np.abs(f.offsets) > FEAS_TOL).any(axis=1)})
    return tuple(CondVector(f.space, f.slopes[:, j]) for j in range(f.npieces))
