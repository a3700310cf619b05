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
    combination_residual,
    min_norm_point,
    nonzero_in_dual_cone,
    positivity_margin,
    simplex_min_norm,
)
from .core import (
    CondExtScalar,
    CondScalar,
    CondVector,
    MeasurableSet,
    MeasureSpace,
    _check_space,
    _freeze,
    ext_add,
)
from .errors import PreconditionError, ShapeError, SpaceMismatchError
from .linalg import gram_schmidt_rows, numeric_rank, orthonormalize, rank_partition
from .tolerances import FEAS_TOL, QP_TOL, RANK_TOL, STRICT_TOL, row_scale

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
        object.__setattr__(self, "points", self._stack(self.points))
        if not self.points.shape[1]:
            raise ShapeError("a set representation needs at least one point")
        object.__setattr__(self, "rays", self._stack(self.rays))
        object.__setattr__(self, "lines", self._stack(self.lines))
        if self.discrete and (self.rays.shape[1] or self.lines.shape[1]):
            raise ShapeError("discrete representations carry points only")

    def _stack(self, family) -> np.ndarray:
        K = self.space.natoms
        if not isinstance(family, np.ndarray):
            for v in family:
                if v.space != self.space:
                    raise SpaceMismatchError("generators live on different spaces")
                if v.dim != self.dim:
                    raise ShapeError("generators must share a dimension")
            family = (np.stack([v.values for v in family], axis=1) if len(family)
                      else np.zeros((K, 0, self.dim)))
        if family.ndim != 3 or family.shape[::2] != (K, self.dim):
            raise ShapeError("generator rows must form a (natoms, n, dim) array")
        if not np.isfinite(family).all():
            raise ShapeError("generators must have finite entries")
        return _freeze(np.array(family, dtype=float, order="C"))

    def generators_at(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The point, ray and line rows of atom ``k``, as views."""
        return self.points[k], self.rays[k], self.lines[k]

    def affine_dim_at(self, k: int, rank_tol: float = RANK_TOL) -> int:
        """Dimension of the affine hull on atom ``k``."""
        pts = self.points[k]
        return numeric_rank(np.vstack([pts[1:] - pts[0], self.rays[k], self.lines[k]]), rank_tol)

    def translate(self, x: CondVector) -> "ConvexSetRep":
        _check_space(self, x)
        return replace(self, points=self.points + x.values[:, None, :])


@dataclass(frozen=True)
class CondHalfspace:
    """Closed conditional halfspace ``{x : <x, normal> >= offset}``.

    The halfspace constrains only the atoms of its ``support`` set,
    where the normal must not vanish; elsewhere membership is vacuous
    and the bounding hyperplane is empty.  ``support`` defaults to the
    whole space.
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

    def contains(self, x: CondVector, tol: float = FEAS_TOL) -> MeasurableSet:
        g, scale = self._gap(x)
        ok = g >= self.offset.values - tol * scale
        return MeasurableSet(x.space, ok | ~self.support.mask)

    def boundary_contains(self, x: CondVector, tol: float = FEAS_TOL) -> MeasurableSet:
        g, scale = self._gap(x)
        on = np.abs(g - self.offset.values) <= tol * scale
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
    space = generators[0].space
    d = generators[0].dim
    zero = CondVector.zero(space, d)
    gens = tuple(generators)
    if kind in ("stable", "sigma"):
        return ConvexSetRep(space, d, points=gens, discrete=True)
    if kind == "convex":
        return ConvexSetRep(space, d, points=gens)
    if kind == "cone":
        return ConvexSetRep(space, d, points=(zero,), rays=gens)
    if kind == "affine":
        base = gens[0]
        lines = tuple(g - base for g in gens[1:])
        return ConvexSetRep(space, d, points=(base,), lines=lines)
    # linear
    return ConvexSetRep(space, d, points=(zero,), lines=gens)


def _member_tol(rep: ConvexSetRep, x: CondVector, tol: float) -> float:
    # one scale over all atoms, so not atom-local (ROADMAP item 2)
    return tol * max(1.0, *(float(np.abs(a).max(initial=0.0))
                            for a in (rep.points, rep.rays, rep.lines, x.values)))


def membership(
    x: CondVector,
    rep: ConvexSetRep,
    region: Optional[MeasurableSet] = None,
    tol: float = FEAS_TOL,
) -> MeasurableSet:
    """Atoms of the region on which ``x`` belongs to the set.

    Per atom this is a small feasibility LP (or an exact row comparison
    for discrete representations).
    """
    _check_space(x, rep)
    space = rep.space
    if region is None:
        region = space.full_set()
    cutoff = _member_tol(rep, x, tol)

    def check(k: int) -> bool:
        if not region.mask[k]:
            return False
        if rep.discrete:
            pts = rep.points[k]
            return bool(np.min(np.max(np.abs(pts - x.values[k]), axis=1)) <= cutoff)
        return combination_residual(x.values[k], *rep.generators_at(k)) <= cutoff

    flags = [check(k) for k in range(space.natoms)]
    return MeasurableSet(space, np.array(flags, dtype=bool))


def _bounded_or_raise(rep: ConvexSetRep, name: str, tol: float = RANK_TOL) -> None:
    recession = np.concatenate([rep.rays, rep.lines], axis=1)
    bad = (np.linalg.norm(recession, axis=2) > tol).any(axis=1)
    if bad.any():
        raise PreconditionError(f"{name} must be bounded (no rays or lines)", bad)


def nearest_pair(
    c: ConvexSetRep, d: ConvexSetRep
) -> tuple[CondVector, CondVector, CondScalar]:
    """Per-atom nearest points ``(xhat, yhat)`` of two sets and their gap.

    The second set must be bounded.  The difference of the minimizers is
    the unique shortest vector between the sets on each atom; the pair
    itself is pinned down by the deterministic active-set solve.
    """
    _check_space(c, d)
    if c.dim != d.dim:
        raise ShapeError("sets must share a dimension")
    _bounded_or_raise(d, "the second set")
    space = c.space

    def solve(k: int):
        cp, dp = c.points[k], d.points[k]
        if c.discrete and d.discrete:
            dist = np.linalg.norm(cp[:, None, :] - dp[None, :, :], axis=2)
            i, j = np.unravel_index(np.argmin(dist), dist.shape)
            return cp[i], dp[j]
        if c.discrete or d.discrete:
            disc, other = (c, d) if c.discrete else (d, c)
            best = None
            for q in disc.points[k]:
                sol = min_norm_point(other.points[k] - q, other.rays[k], other.lines[k])
                cand = (np.linalg.norm(sol.point), q, q + sol.point)
                if best is None or cand[0] < best[0] - 1e-15:
                    best = cand
            _, q, p = best
            return (q, p) if c.discrete else (p, q)
        # both polyhedral: minimize over the difference set
        diff_pts = (cp[:, None, :] - dp[None, :, :]).reshape(-1, c.dim)
        rays, lines = c.rays[k], c.lines[k]
        sol = min_norm_point(diff_pts, rays, lines)
        lam = sol.coeffs[: len(diff_pts)].reshape(len(cp), len(dp))
        lam = np.clip(lam, 0.0, None)
        total = lam.sum()
        if total > 0:
            lam = lam / total
        xhat = lam.sum(axis=1) @ cp
        ray_part = sol.coeffs[len(diff_pts): len(diff_pts) + len(rays)] @ rays if len(rays) else 0.0
        line_part = sol.coeffs[len(diff_pts) + len(rays):] @ lines if len(lines) else 0.0
        xhat = xhat + ray_part + line_part
        yhat = lam.sum(axis=0) @ dp
        return xhat, yhat

    out = [solve(k) for k in range(space.natoms)]
    xv = CondVector(space, np.array([o[0] for o in out]))
    yv = CondVector(space, np.array([o[1] for o in out]))
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
    the atom.  Strictness means the positivity margin exceeds
    ``strict_tol`` (scaled).
    """
    _check_space(x, rep)
    if mode not in ("interior", "relative"):
        raise ShapeError("mode must be 'interior' or 'relative'")
    if rep.discrete:
        raise ShapeError("interior queries need a convex representation")
    space = rep.space
    cutoff = strict_tol  # margin is a coefficient bound, already O(1)

    def check(k: int) -> bool:
        if mode == "interior" and rep.affine_dim_at(k) < rep.dim:
            return False
        return positivity_margin(x.values[k], *rep.generators_at(k)) > cutoff

    flags = [check(k) for k in range(space.natoms)]
    return MeasurableSet(space, np.array(flags, dtype=bool))


def _difference_rows(c: ConvexSetRep, d: ConvexSetRep, k: int):
    cp, dp = c.points[k], d.points[k]
    pts = (cp[:, None, :] - dp[None, :, :]).reshape(-1, c.dim)
    rays = np.vstack([c.rays[k], -d.rays[k]])
    lines = np.vstack([c.lines[k], d.lines[k]])
    return pts, rays, lines


def _support_bounds(z: np.ndarray, pts, rays, lines, strict_tol: float):
    """(inf, sup) of ``<w, z>`` over ``conv(pts)+cone(rays)+span(lines)``."""
    vals = pts @ z
    lo, hi = float(np.min(vals)), float(np.max(vals))
    scale = max(1.0, float(np.max(np.abs(vals))))
    tol = strict_tol * scale
    for r in rays:
        s = float(r @ z)
        if s < -tol:
            lo = -np.inf
        if s > tol:
            hi = np.inf
    for l in lines:
        s = float(l @ z)
        if abs(s) > tol:
            lo, hi = -np.inf, np.inf
    return lo, hi


def separate(
    c: ConvexSetRep,
    d: ConvexSetRep,
    kind: str = "strong",
    zero_tol: float = QP_TOL,
    strict_tol: float = STRICT_TOL,
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
    ``failure_set`` and carry a zero normal.
    """
    _check_space(c, d)
    if c.dim != d.dim:
        raise ShapeError("sets must share a dimension")
    if kind not in ("strong", "weak", "proper"):
        raise ShapeError("kind must be 'strong', 'weak' or 'proper'")
    if c.discrete or d.discrete:
        raise ShapeError("separation needs convex representations")
    space = c.space
    dim = c.dim

    def solve(k: int):
        pts, rays, lines = _difference_rows(c, d, k)
        sol = min_norm_point(pts, rays, lines)
        z = sol.point
        nz = float(np.linalg.norm(z))
        if kind == "strong":
            if nz <= zero_tol:
                return np.zeros(dim), True
            return z, False
        if kind == "weak":
            if nz > zero_tol:
                return z, False
            # the origin touches the difference set: weak separation is
            # exactly the existence of a nonzero supporting functional
            zz = nonzero_in_dual_cone(np.vstack([pts, rays]), lines, dim)
            if zz is None:
                return np.zeros(dim), True
            return zz, False
        # proper
        dirs = np.vstack([pts[1:] - pts[0], rays, lines])
        q = gram_schmidt_rows(dirs)
        p0 = pts[0]
        resid = p0 - (q.T @ (q @ p0) if len(q) else 0.0)
        scale = max(1.0, float(np.max(np.abs(pts))))
        if np.linalg.norm(resid) > RANK_TOL * scale:
            # origin outside the affine hull: project it onto the hull
            return resid, False
        if len(q) == 0:
            # the difference set is the single point 0, its own relative
            # interior, so no proper separation exists
            return np.zeros(dim), True
        # proper separation needs a supporting functional that is not
        # identically zero on the difference, i.e. one living inside the
        # direction space; its existence is exactly 0 not in the
        # relative interior
        ineq = np.vstack([pts, rays]) @ q.T
        eq = lines @ q.T if len(lines) else np.zeros((0, len(q)))
        y = nonzero_in_dual_cone(ineq, eq, len(q))
        if y is None:
            return np.zeros(dim), True
        return q.T @ y, False

    out = [solve(k) for k in range(space.natoms)]
    zrows = np.array([o[0] for o in out])
    fail = np.array([o[1] for o in out], dtype=bool)

    gap = np.zeros(space.natoms)
    excess = np.zeros(space.natoms)
    for k in range(space.natoms):
        z = zrows[k]
        c_lo, c_hi = _support_bounds(z, *c.generators_at(k), strict_tol)
        d_lo, d_hi = _support_bounds(z, *d.generators_at(k), strict_tol)
        gap[k] = ext_add(np.array(c_lo), np.array(-d_hi))
        excess[k] = ext_add(np.array(c_hi), np.array(-d_lo))

    result = SeparationResult(
        kind=kind,
        normal=CondVector(space, zrows),
        gap=CondExtScalar(space, gap),
        failure_set=MeasurableSet(space, fail),
        strict_excess=CondExtScalar(space, excess) if kind == "proper" else None,
        distance=CondVector(space, zrows).norm() if kind == "strong" else None,
    )
    return result


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
    space = e.space
    dim = e.dim
    offset_bad = (np.abs(p.offsets) > FEAS_TOL).any(axis=1)
    if offset_bad.any():
        raise PreconditionError("bound must be sublinear (zero offsets)", offset_bad)
    if (np.linalg.norm(e.points, axis=2) > FEAS_TOL).any():
        raise ShapeError("the restriction set must be linear (points at 0)")
    if e.rays.shape[1]:
        raise ShapeError("the restriction set must be linear (no rays)")

    K = space.natoms
    if e.lines.shape[1]:
        basis = rank_partition([CondVector(space, e.lines[:, i]) for i in range(e.lines.shape[1])])
        frame = orthonormalize(basis)
        labels = frame.labels
        frows = frame.rows
    else:
        labels = np.zeros(K, dtype=np.int64)
        frows = np.tile(np.eye(dim)[None, :, :], (K, 1, 1))
    top = int(labels.max())
    if len(g_images) < top:
        raise PreconditionError(
            "values missing on submodule directions", labels > len(g_images)
        )
    bad = np.zeros(K, dtype=bool)
    for i, ci in enumerate(g_images):
        if ci.space != space:
            raise SpaceMismatchError("frame values live on a different space")
        bad |= (labels <= i) & (np.abs(ci.values) > FEAS_TOL)
    if bad.any():
        raise PreconditionError("values given for complement directions", bad)

    # Documented finite check: domination on the frame vectors and their
    # negatives.  (Necessary, not sufficient; the feasibility LP below
    # settles the rest.)
    probe_bad = np.zeros(K, dtype=bool)
    for k in range(K):
        yrows = p.slopes[k]
        for i in range(int(labels[k])):
            u = frows[k, i]
            ci = float(g_images[i].values[k])
            pmax = float(np.max(yrows @ u))
            pmin = float(np.max(yrows @ -u))
            scale = max(1.0, abs(ci), abs(pmax), abs(pmin))
            if ci > pmax + tol * scale or -ci > pmin + tol * scale:
                probe_bad[k] = True
    if probe_bad.any():
        raise PreconditionError(
            "prescribed values exceed the bound on the submodule", probe_bad
        )

    rows = np.zeros((K, dim))
    infeasible = np.zeros(K, dtype=bool)
    for k in range(K):
        yrows = p.slopes[k]
        r = int(labels[k])
        if r == 0:
            sol = simplex_min_norm(yrows)
            rows[k] = sol.point
            continue
        u = frows[k, :r, :]
        cvals = np.array([g_images[i].values[k] for i in range(r)])
        mapped = yrows @ u.T  # row j: the frame values of slope j
        resid = combination_residual(cvals, mapped, np.zeros((0, r)), np.zeros((0, r)))
        scale = max(1.0, float(np.max(np.abs(mapped))), float(np.max(np.abs(cvals))))
        if resid > tol * scale:
            infeasible[k] = True
            continue
        sol = simplex_min_norm(yrows, eq_mat=u, eq_rhs=cvals)
        rows[k] = sol.point
    if infeasible.any():
        raise PreconditionError(
            "no dominated extension: domination fails on the submodule",
            infeasible,
        )
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
