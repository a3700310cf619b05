"""Conditional convex sets in generator (V-) representation.

A set is stored per atom as ``conv(points) + cone(rays) + span(lines)``.
Each generator family is one read-only ``(K, n, d)`` array, atom axis
first, so ``rep.points[k]`` is atom ``k``'s point rows as a view and a
check over the whole family is one array expression.  Gluing acts
row-wise, so the same representation object can describe different
polyhedra on different atoms (rows may vanish on some atoms).
Stable and sigma hulls of a finite family coincide here and are carried
as per-atom finite point sets, flagged ``discrete``; they support
membership and nearest-point queries but no interior-type queries.

Set-level quantifiers never appear: every query that could fail on part
of the space returns the atoms where it fails instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._solvers import (
    dual_cone_model,
    min_norm_point,
    nonzero_in_dual_cone,
    per_atom,
    positivity_margin,
)
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
from .errors import PreconditionError, ShapeError, _require
from .linalg import _canonical_signs, _dot, _grow_frames
from .tolerances import EQ_TOL, FEAS_TOL, QP_TOL, RANK_TOL, STRICT_TOL, row_scale

__all__ = [
    "ConvexSetRep",
    "CondHalfspace",
    "SeparationResult",
    "hull",
    "membership",
    "nearest_pair",
    "ri_membership",
    "separate",
    "hahn_banach_extend",
    "bounded_test",
]

_HULL_KINDS = ("stable", "sigma", "convex", "cone", "affine", "linear")


@dataclass(frozen=True, eq=False)
class ConvexSetRep:
    """Per-atom ``conv(points) + cone(rays) + span(lines)``.

    Each family is given as a sequence of ``CondVector`` (or as a
    ``(K, n, dim)`` array) and stored as a read-only C-contiguous
    ``(K, n, dim)`` array; an empty family is ``(K, 0, dim)``.  The point
    family is never empty, which keeps the represented set nonempty on
    every atom.  ``discrete`` marks stable/sigma hulls whose per-atom
    value set is just the finite set of point rows.
    """

    space: MeasureSpace
    dim: int
    points: np.ndarray
    rays: np.ndarray = ()
    lines: np.ndarray = ()
    discrete: bool = False

    def __post_init__(self):
        object.__setattr__(self, "points", self._family(self.points))
        if not self.points.shape[1]:
            raise ShapeError("a set representation needs at least one point")
        object.__setattr__(self, "rays", self._family(self.rays))
        object.__setattr__(self, "lines", self._family(self.lines))
        if self.discrete and (self.rays.shape[1] or self.lines.shape[1]):
            raise ShapeError("discrete representations carry points only")

    def _family(self, family) -> np.ndarray:
        K = self.space.natoms
        if not isinstance(family, np.ndarray):
            family = _stack(family, self.space, (self.dim,))
        if family.ndim != 3 or family.shape[::2] != (K, self.dim):
            raise ShapeError("generator rows must form a (natoms, n, dim) array")
        if not np.isfinite(family).all():
            raise ShapeError("generators must have finite entries")
        return _freeze(np.array(family, dtype=float, order="C"))

    def generators_at(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The point, ray and line rows of atom ``k``, as views."""
        return self.points[k], self.rays[k], self.lines[k]

    def affine_dims(self, rank_tol: float = RANK_TOL) -> np.ndarray:
        """Per-atom dimension of the affine hull, a ``(K,)`` integer array."""
        return _direction_frames(self.points, self.rays, self.lines, rank_tol)[1]

    def translate(self, x: CondVector) -> "ConvexSetRep":
        _check_space(self, x)
        return replace(self, points=self.points + x.values[:, None, :])


@dataclass(frozen=True)
class CondHalfspace:
    """Closed conditional halfspace ``{x : <x, normal> >= offset}``.

    The halfspace constrains only the atoms of its ``support`` set,
    where the normal must not vanish; elsewhere membership is vacuous
    and the bounding hyperplane is empty.  ``support`` defaults to the
    whole space.  Both membership tests allow ``FEAS_TOL`` (scaled).
    """

    normal: CondVector
    offset: CondScalar
    support: Optional[MeasurableSet] = None

    def __post_init__(self):
        _check_space(self.normal, self.offset)
        if self.support is None:
            object.__setattr__(self, "support", self.normal.space.full_set())
        _check_space(self.normal, self.support)
        vanishing = self.support.mask & (
            np.linalg.norm(self.normal.values, axis=1) <= RANK_TOL
        )
        if vanishing.any():
            raise PreconditionError("normal vanishes on the support", vanishing)

    def _gap(self, x: CondVector) -> tuple[np.ndarray, np.ndarray]:
        _check_space(self.normal, x)
        g = np.einsum("kd,kd->k", x.values, self.normal.values)
        return g, row_scale(g, self.offset.values)

    def contains(self, x: CondVector) -> MeasurableSet:
        g, scale = self._gap(x)
        ok = g >= self.offset.values - FEAS_TOL * scale
        return MeasurableSet(x.space, ok | ~self.support.mask)

    def boundary_contains(self, x: CondVector) -> MeasurableSet:
        g, scale = self._gap(x)
        on = np.abs(g - self.offset.values) <= FEAS_TOL * scale
        return MeasurableSet(x.space, on & self.support.mask)


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of a separation query.

    ``failure_set`` collects the atoms where the requested separation is
    impossible; on its complement the kind's inequalities hold with the
    returned normal.  The normal is glued from per-atom normals and is
    zero on the failure set, where the reported gap is then trivially 0.
    ``gap`` is the per-atom value ``inf_C <x, Z> - sup_D <y, Z>``
    (extended real: recession directions of the inputs can push it to
    ``-inf``).  For proper separation ``strict_excess`` holds
    ``sup_C <x, Z> - inf_D <y, Z>``, which must be strictly positive off
    the failure set.
    """

    kind: str
    normal: CondVector
    gap: CondExtScalar
    failure_set: MeasurableSet
    strict_excess: Optional[CondExtScalar] = None
    distance: Optional[CondScalar] = None


def hull(generators: Sequence[CondVector], kind: str) -> ConvexSetRep:
    """Hull of a finite family of conditional vectors.

    ``stable`` and ``sigma`` coincide over a finite atom space (every
    countable partition collapses to a finite one) and yield the
    discrete per-atom set of generator rows.  ``convex``, ``cone``,
    ``affine`` and ``linear`` yield the corresponding closed polyhedral
    hulls; the conic hull is represented with the origin included.
    """
    if kind not in _HULL_KINDS:
        raise ShapeError(f"unknown hull kind {kind!r}")
    if not generators:
        raise ShapeError("hull needs at least one generator")
    space, d = generators[0].space, generators[0].dim
    G = _stack(generators, space, (d,))
    zero = np.zeros((space.natoms, 1, d))
    if kind in ("stable", "sigma"):
        return ConvexSetRep(space, d, points=G, discrete=True)
    if kind == "convex":
        return ConvexSetRep(space, d, points=G)
    if kind == "cone":
        return ConvexSetRep(space, d, points=zero, rays=G)
    if kind == "affine":
        return ConvexSetRep(space, d, points=G[:, :1], lines=G[:, 1:] - G[:, :1])
    # linear
    return ConvexSetRep(space, d, points=zero, lines=G)


def _direction_frames(points, rays, lines, rank_tol: float = RANK_TOL):
    """Orthonormal frames of the direction space of
    ``conv(points) + cone(rays) + span(lines)`` on every atom at once.

    One greedy Gram-Schmidt pass over ``points[1:] - points[0]``, the rays
    and the lines: ``F[k, :r[k]]`` spans atom ``k``'s directions, so
    ``r[k]`` is the dimension of its affine hull.  Returns ``(F, r)``.
    """
    dirs = np.concatenate([points[:, 1:] - points[:, :1], rays, lines], axis=1)
    K, _, d = dirs.shape
    F, r = np.zeros((K, d, d)), np.zeros(K, dtype=np.int64)
    _grow_frames(dirs, F, r, rank_tol)
    return F, r


def membership(
    x: CondVector,
    rep: ConvexSetRep,
    region: Optional[MeasurableSet] = None,
) -> MeasurableSet:
    """Atoms of the region on which ``x`` belongs to the set.

    Per atom, the Euclidean distance from ``x`` to the set, the norm of
    ``min_norm_point`` over the generators shifted by ``-x`` (one stacked
    call for the region's atoms), must not exceed ``FEAS_TOL`` scaled by
    the atom's magnitudes.  A discrete representation is an exact row
    comparison in the sup norm instead.
    """
    _check_space(x, rep)
    space = rep.space
    if region is None:
        region = space.full_set()
    _check_space(x, region)
    inside = region.mask.copy()
    cutoff = FEAS_TOL * row_scale(rep.points, rep.rays, rep.lines, x.values)
    if rep.discrete:
        gap = np.abs(rep.points - x.values[:, None, :]).max(axis=2).min(axis=1)
        return MeasurableSet(space, inside & (gap <= cutoff))
    k = np.flatnonzero(inside)
    z = min_norm_point(rep.points[k] - x.values[k, None], rep.rays[k], rep.lines[k]).point
    inside[k] = np.sqrt(_dot(z, z)) <= cutoff[k]
    return MeasurableSet(space, inside)


def _bounded_or_raise(rep: ConvexSetRep, name: str) -> None:
    recession = np.concatenate([rep.rays, rep.lines], axis=1)
    bad = (np.linalg.norm(recession, axis=2) > RANK_TOL).any(axis=1)
    if bad.any():
        raise PreconditionError(f"{name} must be bounded (no rays or lines)", bad)


def nearest_pair(
    c: ConvexSetRep, d: ConvexSetRep
) -> tuple[CondVector, CondVector, CondScalar]:
    """Per-atom nearest points ``(xhat, yhat)`` of two sets and their gap.

    The second set must be bounded.  The difference of the minimizers is
    the unique shortest vector between the sets on each atom; the pair
    itself is pinned down by the deterministic active-set solve.  Against
    a discrete set, one stacked QP covers every atom and discrete point
    ``q``; an atom keeps the first ``q`` whose distance no later one beats
    by more than 1e-15.
    """
    _check_space(c, d)
    if c.dim != d.dim:
        raise ShapeError("sets must share a dimension")
    _bounded_or_raise(d, "the second set")
    space, K = c.space, c.space.natoms
    if c.discrete and d.discrete:
        dist = np.linalg.norm(c.points[:, :, None, :] - d.points[:, None, :, :], axis=3)
        i, j = np.divmod(dist.reshape(K, -1).argmin(axis=1), d.points.shape[1])
        xs, ys = c.points[np.arange(K), i], d.points[np.arange(K), j]
    elif c.discrete or d.discrete:
        disc, other = (c, d) if c.discrete else (d, c)
        J = disc.points.shape[1]
        # problem (k, j) is atom k's set shifted by its discrete point j
        shifted = other.points[:, None] - disc.points[:, :, None]
        z = min_norm_point(shifted.reshape(K * J, -1, c.dim), np.repeat(other.rays, J, axis=0),
                           np.repeat(other.lines, J, axis=0)).point
        dist = np.sqrt(_dot(z, z)).reshape(K, J)
        atoms, best = np.arange(K), np.zeros(K, dtype=np.int64)
        for j in range(1, J):
            best[dist[:, j] < dist[atoms, best] - 1e-15] = j
        q = disc.points[atoms, best]
        p = q + z.reshape(K, J, c.dim)[atoms, best]
        xs, ys = (q, p) if c.discrete else (p, q)
    else:
        # both polyhedral: minimize over the difference set
        nc, nd, nr = c.points.shape[1], d.points.shape[1], c.rays.shape[1]
        sol = min_norm_point(_difference(c, d)[0], c.rays, c.lines)
        w = sol.coeffs[:, None, :]
        lam = np.clip(sol.coeffs[:, : nc * nd].reshape(K, nc, nd), 0.0, None)
        total = lam.reshape(K, -1).sum(axis=1)
        pos = total > 0
        lam[pos] /= total[pos, None, None]
        ray_part = np.matmul(w[:, :, nc * nd: nc * nd + nr], c.rays)[:, 0] if nr else 0.0
        line_part = np.matmul(w[:, :, nc * nd + nr:], c.lines)[:, 0] if c.lines.shape[1] else 0.0
        xs = np.matmul(lam.sum(axis=2)[:, None], c.points)[:, 0] + ray_part + line_part
        ys = np.matmul(lam.sum(axis=1)[:, None], d.points)[:, 0]
    xv, yv = CondVector(space, xs), CondVector(space, ys)
    return xv, yv, (xv - yv).norm()


def ri_membership(
    x: CondVector,
    rep: ConvexSetRep,
    mode: str = "interior",
    strict_tol: float = STRICT_TOL,
) -> MeasurableSet:
    """Atoms where ``x`` lies in the (relative) interior of the set.

    A point is relatively interior exactly when it admits a generator
    combination with all point and ray coefficients strictly positive;
    interior additionally requires the affine hull to fill ``R^d`` on
    the atom.  Strictness means the positivity margin, one LP per atom
    and a coefficient bound (already O(1)), exceeds ``strict_tol``.  The
    margin LP matches the target to ``EQ_TOL`` (scaled), which gives a
    boundary target a margin of about that size, so ``strict_tol`` must
    exceed ``EQ_TOL``.  A margin LP that fails raises ``SolverError``
    through ``per_atom`` once every atom is solved.
    """
    _check_space(x, rep)
    if mode not in ("interior", "relative"):
        raise ShapeError("mode must be 'interior' or 'relative'")
    if not strict_tol > EQ_TOL:
        raise PreconditionError(
            f"strict_tol must exceed the margin LP's target slack EQ_TOL = {EQ_TOL:g}",
            np.ones(rep.space.natoms, dtype=bool),
        )
    if rep.discrete:
        raise ShapeError("interior queries need a convex representation")
    if mode == "interior":
        inside = rep.affine_dims() == rep.dim
    else:
        inside = np.ones(rep.space.natoms, dtype=bool)
    inside[inside] = positivity_margin(inside, x.values, rep.points, rep.rays,
                                       rep.lines) > strict_tol
    return MeasurableSet(rep.space, inside)


def _difference(c: ConvexSetRep, d: ConvexSetRep):
    """``C - D`` on every atom as stacked generator families: the point
    differences (``C``'s point index major), ``C``'s rays then ``D``'s
    negated, and both line families."""
    K, dim = c.space.natoms, c.dim
    pts = (c.points[:, :, None, :] - d.points[:, None, :, :]).reshape(K, -1, dim)
    rays = np.concatenate([c.rays, -d.rays], axis=1)
    return pts, rays, np.concatenate([c.lines, d.lines], axis=1)


def _support_interval(Z: np.ndarray, rep: ConvexSetRep):
    """Per-atom ``(inf, sup)`` of ``<w, Z[k]>`` over the set on atom ``k``.

    The tolerance is ``STRICT_TOL`` times the largest absolute point
    value (at least 1): a ray whose value along ``Z[k]`` passes it sends
    the bound on its side to infinity, a line both bounds.  Each
    ``matmul`` item is the per-atom ``pts @ z`` (a matrix-vector product)
    or the per-row ``r @ z`` (a dot product), so the bits are theirs.  The
    bounds are read at the first point attaining them (``argmin`` and
    ``argmax``): a contiguous ``min``/``max`` would pick the sign of a
    ``0.0``/``-0.0`` tie by numpy's SIMD dispatch.
    """
    z = Z[:, :, None]
    vals = np.matmul(rep.points, z)[:, :, 0]
    tol = (STRICT_TOL * row_scale(vals))[:, None]
    ray = np.matmul(rep.rays[:, :, None, :], z[:, None])[:, :, 0, 0]
    line = (np.abs(np.matmul(rep.lines[:, :, None, :], z[:, None])[:, :, 0, 0]) > tol).any(axis=1)
    atoms = np.arange(len(vals))
    lo = np.where(line | (ray < -tol).any(axis=1), -np.inf, vals[atoms, vals.argmin(axis=1)])
    hi = np.where(line | (ray > tol).any(axis=1), np.inf, vals[atoms, vals.argmax(axis=1)])
    return lo, hi


def separate(
    c: ConvexSetRep,
    d: ConvexSetRep,
    kind: str = "strong",
    zero_tol: float = QP_TOL,
) -> SeparationResult:
    """Separate two conditional convex sets atom by atom.

    strong
        Possible exactly where the origin stays out of the closed
        difference set; the normal is the shortest vector of the
        difference, making the gap at least its squared norm.
    weak
        Possible exactly where the origin is not interior to the
        difference; realized by the shortest vector when it is nonzero
        and by classical cone separation otherwise.
    proper
        Possible exactly where the origin is not relatively interior to
        the difference.  When the affine hull of the difference misses
        the origin the normal is the shortest vector of that affine
        hull; otherwise a supporting normal inside the hull's direction
        space is used, keeping the inequality strict on one side.

    Atoms where the requested separation cannot exist land in
    ``failure_set`` and carry a zero normal; a shortest vector no longer
    than ``zero_tol`` counts as zero.  A dual-cone LP that fails raises
    ``SolverError`` through ``per_atom`` once every atom is solved.
    """
    _check_space(c, d)
    if c.dim != d.dim:
        raise ShapeError("sets must share a dimension")
    if kind not in ("strong", "weak", "proper"):
        raise ShapeError("kind must be 'strong', 'weak' or 'proper'")
    if c.discrete or d.discrete:
        raise ShapeError("separation needs convex representations")
    space, dim, K = c.space, c.dim, c.space.natoms
    pts, rays, lines = _difference(c, d)
    zrows = np.zeros((K, dim))
    fail = np.zeros(K, dtype=bool)
    if kind == "proper":
        # the shortest vector of the difference's affine hull: the
        # residual of p0 against the direction frame q = F[k, :r[k]],
        # p0 - q.T @ (q @ p0); atoms of one frame size share one matmul
        # whose items are the per-atom matrix-vector products
        F, r = _direction_frames(pts, rays, lines)
        p0 = pts[:, 0]
        resid = p0.copy()
        for n, on in _strata(r):
            q = F[on, :n]
            coef = np.matmul(q, p0[on, :, None])
            resid[on] = p0[on] - np.matmul(q.transpose(0, 2, 1), coef)[:, :, 0]
        # origin outside the affine hull: project it onto the hull
        off = np.sqrt(_dot(resid, resid)) > RANK_TOL * row_scale(pts)
        zrows[off] = resid[off]
        # a difference set that is the single point 0 is its own relative
        # interior, so no proper separation exists
        fail[~off & (r == 0)] = True
        touch = ~off & (r > 0)
    else:
        z = min_norm_point(pts, rays, lines).point
        fail = ~(np.sqrt(_dot(z, z)) > zero_tol)
        zrows[~fail] = z[~fail]
        touch = fail & (kind == "weak")

    # where the origin touches the difference set (weak) or its affine
    # hull (proper), separation is the existence of a nonzero supporting
    # functional; a proper one must not vanish identically on the
    # difference (it lives in the direction space), and exists exactly
    # when 0 is not relatively interior.  One cone model per frame size
    gens = np.concatenate([pts, rays], axis=1)
    if kind == "proper":
        models = {n: dual_cone_model(np.matmul(gens, F[:, :n].swapaxes(1, 2)),
                                     np.matmul(lines, F[:, :n].swapaxes(1, 2)))
                  for n, _ in _strata(r[touch])}
    elif touch.any():
        r, models = np.full(K, dim), {dim: dual_cone_model(gens, lines)}

    def supporting(k):
        y = nonzero_in_dual_cone(models[r[k]], k)
        return y if kind == "weak" or y is None else F[k, : r[k]].T @ y

    for k, z in zip(np.flatnonzero(touch), per_atom(touch, supporting, f"{kind} separation")):
        fail[k] = z is None
        zrows[k] = 0.0 if z is None else z

    c_lo, c_hi = _support_interval(zrows, c)
    d_lo, d_hi = _support_interval(zrows, d)
    gap = ext_add(c_lo, -d_hi)
    excess = ext_add(c_hi, -d_lo)

    return SeparationResult(
        kind=kind,
        normal=CondVector(space, zrows),
        gap=CondExtScalar(space, gap),
        failure_set=MeasurableSet(space, fail),
        strict_excess=CondExtScalar(space, excess) if kind == "proper" else None,
        distance=CondVector(space, zrows).norm() if kind == "strong" else None,
    )


def hahn_banach_extend(
    p,
    e: ConvexSetRep,
    g_images: Sequence[CondScalar],
    tol: float = QP_TOL,
) -> CondVector:
    """Extend a dominated linear function from a submodule to the space.

    ``p`` is a sublinear conditional function (max-affine with zero
    offsets); ``e`` must be a linear representation (its lines span the
    submodule).  ``g_images[i]`` prescribes the value on the submodule
    frame vector ``i``.  The result is the representing vector of a
    linear ``h`` with ``h = g`` on the submodule and ``h <= p``
    everywhere: per atom, the minimal-norm point of the slope polytope
    of ``p`` that matches the prescribed frame values.  Atoms where no
    dominated extension exists raise, since there domination of ``g`` by
    ``p`` must already fail on the submodule.
    """
    _check_space(p, e)
    space = e.space
    dim = e.dim
    if (np.linalg.norm(e.points, axis=2) > FEAS_TOL).any():
        raise ShapeError("the restriction set must be linear (points at 0)")
    if e.rays.shape[1]:
        raise ShapeError("the restriction set must be linear (no rays)")

    K = space.natoms
    # the submodule's frame: frows[k, :labels[k]] spans atom k's lines
    frows, labels = _direction_frames(e.points[:, :1], e.rays, e.lines)
    frows = _canonical_signs(frows)
    C = _stack(g_images, space)  # (K, n): C[k, i] is the value on frame vector i
    n = C.shape[1]
    # Documented finite check: domination on the frame vectors and their
    # negatives.  (Necessary, not sufficient; the distance from the
    # prescribed values to the hull of the mapped slopes settles the rest.)
    probe_bad = np.zeros(K, dtype=bool)
    for i in range(min(int(labels.max()), n)):
        u = frows[:, i, :, None]
        ci = C[:, i]
        pmax = np.matmul(p.slopes, u)[:, :, 0].max(axis=1)
        pmin = np.matmul(p.slopes, -u)[:, :, 0].max(axis=1)
        scale = row_scale(ci, pmax, pmin)
        probe_bad |= (labels > i) & ((ci > pmax + tol * scale) | (-ci > pmin + tol * scale))
    # every check runs on every atom, and _require names all that fail
    checks = {
        "bound must be sublinear (zero offsets)": (np.abs(p.offsets) > FEAS_TOL).any(axis=1),
        "values missing on submodule directions": labels > n,
        "values given for complement directions":
            ((labels[:, None] <= np.arange(n)) & (np.abs(C) > FEAS_TOL)).any(axis=1),
        "prescribed values exceed the bound on the submodule": probe_bad,
    }
    passing = np.flatnonzero(~np.logical_or.reduce(list(checks.values())))

    # one stacked QP per frame rank r on the atoms that pass: the nearest
    # slope-hull point, and for r > 0 first the gap between the prescribed
    # frame values and the hull of the mapped slopes, then the nearest
    # point that matches them
    rows = np.zeros((K, dim))
    infeasible = np.zeros(K, dtype=bool)
    for r, sub in _strata(labels[passing]):
        grp = passing[sub]
        Y = p.slopes[grp]
        if r == 0:
            rows[grp] = min_norm_point(Y).point
            continue
        u = frows[grp, :r]
        cvals = C[grp, :r]
        mapped = np.matmul(Y, u.swapaxes(1, 2))  # row j: the frame values of slope j
        gap = min_norm_point(mapped - cvals[:, None]).point
        bad = np.sqrt(_dot(gap, gap)) > tol * row_scale(mapped, cvals)
        infeasible[grp[bad]] = True
        rows[grp[~bad]] = min_norm_point(Y[~bad], eq_mat=u[~bad], eq_rhs=cvals[~bad]).point
    checks["no dominated extension: domination fails on the submodule"] = infeasible
    _require(checks)
    return CondVector(space, rows)


def bounded_test(
    rep: ConvexSetRep, rank_tol: float = RANK_TOL
) -> tuple[MeasurableSet, CondVector]:
    """Atoms on which the set is bounded, plus recession witnesses.

    Requires the origin to belong to the set everywhere, so that
    unboundedness is equivalent to containing a full ray from 0.  The
    recession cone of the representation is generated by the ray and
    line rows; the set is bounded exactly on the atoms where all those
    rows vanish.  On unbounded atoms the witness is the first
    non-vanishing recession row.
    """
    space = rep.space
    zero = CondVector.zero(space, rep.dim)
    inside = membership(zero, rep)
    if not inside.is_full:
        raise PreconditionError("the set must contain the origin", ~inside.mask)
    recession = np.concatenate([rep.rays, rep.lines], axis=1)
    nz = np.linalg.norm(recession, axis=2) > rank_tol
    unbounded = nz.any(axis=1)
    witness = np.zeros((space.natoms, rep.dim))
    if nz.size:
        first = nz.argmax(axis=1)
        witness[unbounded] = recession[unbounded, first[unbounded]]
    return MeasurableSet(space, ~unbounded), CondVector(space, witness)
