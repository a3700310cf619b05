"""Stratified linear algebra over a finite scenario space.

A finitely generated submodule of conditional vectors has no single
dimension: the space splits into strata, one per attainable rank, and on
each stratum the submodule behaves like ordinary ``R^r``.  This module
computes that rank partition, orthonormal frames adapted to it, exact
orthogonal decompositions, operator norms, and norm-preserving linear
extensions of maps defined on a submodule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    CondScalar,
    CondVector,
    MeasurableSet,
    MeasureSpace,
    _check_space,
)
from .errors import PreconditionError, ShapeError, SpaceMismatchError
from .tolerances import RANK_TOL

__all__ = [
    "StratifiedBasis",
    "OrthonormalFrame",
    "CondLinearMap",
    "rank_partition",
    "orthonormalize",
    "decompose",
    "linear_map_norm",
    "extend_linear",
    "hyperplane_normal_form",
]

# Entries smaller than this (relative to the row scale) do not count as
# the leading coordinate when fixing signs.
_SIGN_TOL = 1e-9


def _project_out(v: np.ndarray, basis_rows: list[np.ndarray]) -> np.ndarray:
    resid = v.astype(float).copy()
    for _ in range(2):  # second pass controls cancellation error
        for u in basis_rows:
            resid -= (resid @ u) * u
    return resid


def _grow_frame(
    rows: np.ndarray, frame: Sequence[np.ndarray] = (), eps: float = RANK_TOL
) -> tuple[list[np.ndarray], list[int]]:
    """Greedy Gram-Schmidt: grow an orthonormal frame by rows in input order.

    A row is accepted when its residual against the frame so far exceeds
    ``eps * max(1, |row|)``; the normalized residual joins the frame.
    Stops once the frame spans ``R^d``.  Returns the grown frame and the
    indices of the accepted rows.
    """
    frame = list(frame)
    accepted: list[int] = []
    for j, r in enumerate(rows):
        if len(frame) == len(r):
            break
        resid = _project_out(r, frame)
        nr = np.linalg.norm(resid)
        if nr > eps * max(1.0, np.linalg.norm(r)):
            frame.append(resid / nr)
            accepted.append(j)
    return frame, accepted


def gram_schmidt_rows(rows: Sequence[np.ndarray], eps: float = RANK_TOL) -> np.ndarray:
    """Orthonormal rows spanning the same space, greedily in input order.

    A row is accepted when its residual against the rows accepted so far
    exceeds ``eps * max(1, |row|)``.
    """
    rows = np.asarray(rows, dtype=float)
    frame, _ = _grow_frame(rows, eps=eps)
    return np.array(frame) if frame else np.zeros((0, rows.shape[-1]))


def numeric_rank(rows: np.ndarray, eps: float = RANK_TOL) -> int:
    return len(_grow_frame(np.atleast_2d(np.asarray(rows, dtype=float)), eps=eps)[1])


def _canonical_sign(row: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(row)))) if row.size else 1.0
    for x in row:
        if abs(x) > _SIGN_TOL * scale:
            return row if x > 0 else -row
    return row


@dataclass(frozen=True)
class StratifiedBasis:
    """Result of the rank partition of a generating family.

    ``labels[k]`` is the rank of the generators on atom ``k``.  On every
    atom with label at least ``i``, the rows of ``vectors[0..i-1]`` are
    linearly independent, and on an atom with label exactly ``j`` every
    generator row lies in the span of the first ``j`` vectors.
    ``picks[i, k]`` records which generator was selected (glued) for
    ``vectors[i]`` on atom ``k``; atoms below stratum ``i`` carry the
    recorded filler pick 0.
    """

    space: MeasureSpace
    dim: int
    labels: np.ndarray
    vectors: tuple[CondVector, ...]
    picks: np.ndarray
    generators: tuple[CondVector, ...]

    @property
    def top_rank(self) -> int:
        return int(self.labels.max()) if self.labels.size else 0

    def stratum(self, i: int) -> MeasurableSet:
        """Atoms whose rank label equals ``i``."""
        return MeasurableSet(self.space, self.labels == i)

    def reach(self, i: int) -> MeasurableSet:
        """Atoms whose rank label is at least ``i``."""
        return MeasurableSet(self.space, self.labels >= i)


@dataclass(frozen=True)
class OrthonormalFrame:
    """A per-atom orthonormal basis of ``R^d`` adapted to a submodule.

    On an atom with label ``r`` the first ``r`` rows span the submodule
    and the remaining ``d - r`` rows span its orthogonal complement.
    ``rows[k]`` is the ``d x d`` frame matrix of atom ``k`` (one frame
    vector per row).
    """

    space: MeasureSpace
    dim: int
    labels: np.ndarray
    rows: np.ndarray

    def vector(self, i: int) -> CondVector:
        """Frame vector ``i`` (0-based) as a conditional vector."""
        return CondVector(self.space, self.rows[:, i, :])

    @property
    def vectors(self) -> tuple[CondVector, ...]:
        return tuple(self.vector(i) for i in range(self.dim))

    def gram_defect(self) -> CondScalar:
        """Per-atom sup-norm distance of the Gram matrix from identity."""
        g = np.einsum("kid,kjd->kij", self.rows, self.rows)
        g -= np.eye(self.dim)[None, :, :]
        return CondScalar(self.space, np.max(np.abs(g), axis=(1, 2)))

    def complement(self) -> "OrthonormalFrame":
        """Frame adapted to the orthogonal complement submodule.

        Per atom the rows are rotated so the complement directions come
        first; labels become ``d - r``.
        """
        K, d = self.rows.shape[0], self.dim
        rows = np.empty_like(self.rows)
        for k in range(K):
            r = int(self.labels[k])
            rows[k] = np.vstack([self.rows[k, r:, :], self.rows[k, :r, :]])
        return OrthonormalFrame(self.space, d, d - self.labels, rows)


@dataclass(frozen=True)
class CondLinearMap:
    """A conditional linear map: one ``m x d`` matrix per atom."""

    space: MeasureSpace
    mats: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mats, dtype=float)
        if m.ndim != 3 or m.shape[0] != self.space.natoms:
            raise ShapeError("mats must be a (natoms, m, d) array")
        object.__setattr__(self, "mats", m)

    @property
    def target_dim(self) -> int:
        return self.mats.shape[1]

    @property
    def source_dim(self) -> int:
        return self.mats.shape[2]

    def apply(self, x: CondVector) -> CondVector:
        _check_space(self, x)
        if x.dim != self.source_dim:
            raise ShapeError("dimension mismatch in map application")
        return CondVector(self.space, np.einsum("kmd,kd->km", self.mats, x.values))

    def norm(self) -> CondScalar:
        return linear_map_norm(self)


def rank_partition(
    generators: Sequence[CondVector], rank_tol: float = RANK_TOL
) -> StratifiedBasis:
    """Split the space by the rank of a finite generating family.

    On every atom one greedy Gram-Schmidt pass runs over the generators
    in index order and accepts each generator whose residual against the
    vectors accepted so far passes the independence test.  The label is
    the number accepted, and the ``i``-th accepted generators of all
    atoms are glued into basis vector ``i``; atoms with fewer than
    ``i + 1`` acceptances carry the filler pick 0 there.
    """
    if not generators:
        raise ShapeError("rank_partition needs at least one generator")
    space = generators[0].space
    d = generators[0].dim
    for g in generators:
        if g.space != space:
            raise SpaceMismatchError("generators live on different spaces")
        if g.dim != d:
            raise ShapeError("generators must share a dimension")
    K = space.natoms
    G = np.stack([g.values for g in generators], axis=1)  # (K, m, d)

    labels = np.zeros(K, dtype=np.int64)
    picks = np.zeros((min(len(generators), d), K), dtype=np.int64)
    for k in range(K):
        _, accepted = _grow_frame(G[k], eps=rank_tol)
        labels[k] = len(accepted)
        picks[: len(accepted), k] = accepted
    picks = picks[: labels.max()]
    atoms = np.arange(K)
    return StratifiedBasis(
        space=space,
        dim=d,
        labels=labels,
        vectors=tuple(CondVector(space, G[atoms, p]) for p in picks),
        picks=picks,
        generators=tuple(generators),
    )


def orthonormalize(basis: StratifiedBasis, rank_tol: float = RANK_TOL) -> OrthonormalFrame:
    """Orthonormal frame adapted to a stratified basis.

    On each atom the selected basis rows are orthonormalized in
    acceptance order, then the frame is completed to all of ``R^d`` with
    standard-base vectors chosen greedily by the same independence test.
    Each frame row is normalized so its leading nonzero coordinate is
    nonnegative, which makes the output canonical.  Raises
    ``PreconditionError`` naming every atom whose label overclaims
    independence.
    """
    space, d, K = basis.space, basis.dim, basis.space.natoms
    vecs = [v.values for v in basis.vectors]
    V = np.stack(vecs, axis=1) if vecs else np.zeros((K, 0, d))  # (K, n, d)
    rows = np.zeros((K, d, d))
    dependent = np.zeros(K, dtype=bool)
    for k in range(K):
        r = int(basis.labels[k])
        frame, accepted = _grow_frame(V[k, :r], eps=rank_tol)
        if len(accepted) < r:
            dependent[k] = True
            continue
        frame, _ = _grow_frame(np.eye(d), frame, rank_tol)
        rows[k] = np.array([_canonical_sign(u) for u in frame])
    if dependent.any():
        raise PreconditionError(
            "stratified basis is not independent where its label claims", dependent
        )
    return OrthonormalFrame(space=space, dim=d, labels=basis.labels.copy(), rows=rows)


def decompose(x: CondVector, frame: OrthonormalFrame) -> tuple[CondVector, CondVector]:
    """Orthogonal decomposition ``x = y + z`` against a frame's submodule.

    ``y`` is the per-atom projection onto the span of the first
    ``label`` frame vectors and ``z`` the orthogonal remainder, so ``z``
    is no longer than ``x - v`` for any ``v`` in the submodule.
    """
    _check_space(x, frame)
    if x.dim != frame.dim:
        raise ShapeError("vector and frame dimensions differ")
    coeffs = np.einsum("kij,kj->ki", frame.rows, x.values)
    mask = np.arange(frame.dim)[None, :] < frame.labels[:, None]
    y = np.einsum("ki,kij->kj", np.where(mask, coeffs, 0.0), frame.rows)
    yv = CondVector(x.space, y)
    return yv, x - yv


def linear_map_norm(f: CondLinearMap) -> CondScalar:
    """Per-atom operator norm (largest singular value)."""
    if f.mats.size == 0:
        return CondScalar(f.space, np.zeros(f.space.natoms))
    s = np.linalg.svd(f.mats, compute_uv=False)
    return CondScalar(f.space, s[:, 0])


def extend_linear(
    frame: OrthonormalFrame, images: Sequence[CondVector]
) -> CondLinearMap:
    """Extend a map given on a submodule to the whole space, norm kept.

    ``images[i]`` is the value of the map on frame vector ``i``; it may
    only be nonzero on atoms whose label exceeds ``i``, because elsewhere
    that frame vector lies in the orthogonal complement.  The extension
    composes the orthogonal projection onto the submodule with the map,
    which leaves the per-atom operator norm unchanged.
    """
    space, d, K = frame.space, frame.dim, frame.space.natoms
    if not images:
        raise ShapeError("extend_linear needs the map's frame images")
    m = images[0].dim
    top = int(frame.labels.max())
    if len(images) < top:
        raise PreconditionError(
            "map is unspecified on submodule directions",
            frame.labels > len(images),
        )
    bad = np.zeros(K, dtype=bool)
    for i, img in enumerate(images):
        if img.space != space:
            raise SpaceMismatchError("images live on a different space")
        if img.dim != m:
            raise ShapeError("images must share a target dimension")
        low = frame.labels <= i
        bad |= low & (np.linalg.norm(img.values, axis=1) > _SIGN_TOL)
    if bad.any():
        raise PreconditionError("images given for complement directions", bad)

    mats = np.zeros((K, m, d))
    for i, img in enumerate(images):
        live = (frame.labels > i).astype(float)
        mats += live[:, None, None] * np.einsum(
            "km,kd->kmd", img.values, frame.rows[:, i, :]
        )
    return CondLinearMap(space=space, mats=mats)


def hyperplane_normal_form(
    z: CondVector,
    v: CondScalar,
    region: Optional[MeasurableSet] = None,
    rank_tol: float = RANK_TOL,
) -> tuple[CondVector, OrthonormalFrame]:
    """Describe the hyperplane ``{x : <x, z> = v}`` in frame coordinates.

    Returns a base point ``x0`` and a frame whose first ``d - 1``
    vectors span the hyperplane's direction space while the last one is
    ``z`` normalized (no sign adjustment on that row).  On every atom of
    the region the hyperplane is then ``x0 + span(first d-1 vectors)``.
    Atoms outside the region carry the standard frame and a zero base
    point as filler.
    """
    space, d, K = z.space, z.dim, z.space.natoms
    if region is None:
        region = space.full_set()
    _check_space(z, v)
    _check_space(z, region)
    norms = np.linalg.norm(z.values, axis=1)
    degenerate = region.mask & (norms <= rank_tol)
    if degenerate.any():
        raise PreconditionError("zero normal on part of the region", degenerate)

    rows = np.tile(np.eye(d)[None, :, :], (K, 1, 1))
    x0 = np.zeros((K, d))
    for k in range(K):
        if not region.mask[k]:
            continue
        u = z.values[k] / norms[k]
        frame, _ = _grow_frame(np.eye(d), [u], rank_tol)
        rows[k] = np.vstack([_canonical_sign(w) for w in frame[1:]] + [u])
        x0[k] = (v.values[k] / norms[k] ** 2) * z.values[k]
    labels = np.full(K, d - 1, dtype=np.int64)
    frame_out = OrthonormalFrame(space=space, dim=d, labels=labels, rows=rows)
    return CondVector(space, x0), frame_out
