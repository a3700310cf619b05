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
    _freeze,
    _stack,
)
from .errors import ShapeError, _require
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


# Row-wise dot products of two (n, d) stacks.  The stacked matmul gives the
# bits of the per-row a[i] @ b[i]; (a * b).sum(1) and einsum round otherwise.
def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _grow_frames(
    R: np.ndarray, F: np.ndarray, c: np.ndarray, eps: float, live: Optional[np.ndarray] = None
) -> np.ndarray:
    """Greedy Gram-Schmidt on every atom at once, growing frames in place.

    Atom ``k`` tries its rows ``R[k]`` (``(K, m, d)``) in index order,
    those with ``live[k, j]`` only, against its frame ``F[k, :c[k]]``.  A
    row's residual, projected out twice to control cancellation error, is
    accepted when it exceeds ``eps * max(1, |row|)``; the normalized
    residual joins the frame.  An atom stops once its frame spans
    ``R^d``.  Returns ``picks[k, i]``, the row that added frame vector
    ``i`` on atom ``k`` (0 where none did).
    """
    K, m, d = R.shape
    picks = np.zeros((K, d), dtype=np.int64)
    for j in range(m):
        idx = np.flatnonzero(c < d if live is None else (c < d) & live[:, j])
        row = R[idx, j]
        resid, U, n = row.copy(), F[idx], c[idx]
        for _ in range(2):
            for i in range(int(n.max(initial=0))):
                on = n > i
                u = U[on, i]
                resid[on] -= _dot(resid[on], u)[:, None] * u
        nr = np.sqrt(_dot(resid, resid))
        ok = nr > eps * np.maximum(1.0, np.sqrt(_dot(row, row)))
        won, pos = idx[ok], n[ok]
        F[won, pos] = resid[ok] / nr[ok][:, None]
        picks[won, pos] = j
        c[won] += 1
    return picks


def _canonical_signs(rows: np.ndarray) -> np.ndarray:
    """Flip each row whose leading entry above ``RANK_TOL * max(1, max|row|)`` is <= 0."""
    if not rows.size:
        return rows
    a = np.abs(rows)
    top = a.max(axis=-1, keepdims=True)
    hit = a > RANK_TOL * np.where(top > 1.0, top, 1.0)
    lead = np.take_along_axis(rows, hit.argmax(axis=-1)[..., None], axis=-1)
    return np.where(hit.any(axis=-1, keepdims=True) & ~(lead > 0), -rows, rows)


@dataclass(frozen=True, eq=False)
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

    def __post_init__(self):  # read-only copies, so no caller write reaches them
        for name in ("labels", "picks"):
            object.__setattr__(self, name, _freeze(np.array(getattr(self, name))))

    @property
    def top_rank(self) -> int:
        return int(self.labels.max()) if self.labels.size else 0

    def stratum(self, i: int) -> MeasurableSet:
        """Atoms whose rank label equals ``i``."""
        return MeasurableSet(self.space, self.labels == i)

    def reach(self, i: int) -> MeasurableSet:
        """Atoms whose rank label is at least ``i``."""
        return MeasurableSet(self.space, self.labels >= i)


@dataclass(frozen=True, eq=False)
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

    def __post_init__(self):  # read-only copies, so no caller write reaches them
        for name in ("labels", "rows"):
            object.__setattr__(self, name, _freeze(np.array(getattr(self, name))))

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
        turn = (np.arange(self.dim)[None, :] + self.labels[:, None]) % self.dim
        rows = np.take_along_axis(self.rows, turn[:, :, None], axis=1)
        return OrthonormalFrame(self.space, self.dim, self.dim - self.labels, rows)


@dataclass(frozen=True, eq=False)
class CondLinearMap:
    """A conditional linear map: one ``m x d`` matrix per atom."""

    space: MeasureSpace
    mats: np.ndarray

    def __post_init__(self):
        m = np.array(self.mats, dtype=float)
        if m.ndim != 3 or m.shape[0] != self.space.natoms:
            raise ShapeError("mats must be a (natoms, m, d) array")
        object.__setattr__(self, "mats", _freeze(m))

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
    space, d = generators[0].space, generators[0].dim
    K = space.natoms
    G = _stack(generators, space, (d,))  # (K, m, d)
    labels = np.zeros(K, dtype=np.int64)
    picks = _grow_frames(G, np.zeros((K, d, d)), labels, rank_tol)
    picks = np.ascontiguousarray(picks.T[: labels.max()])
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
    F, c = np.zeros((K, d, d)), np.zeros(K, dtype=np.int64)
    _grow_frames(V, F, c, rank_tol, np.arange(V.shape[1]) < basis.labels[:, None])
    _require({"stratified basis is not independent where its label claims": c < basis.labels})
    _grow_frames(np.broadcast_to(np.eye(d), (K, d, d)), F, c, rank_tol)
    rows = _canonical_signs(F)
    return OrthonormalFrame(space=space, dim=d, labels=basis.labels, rows=rows)


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
    if len(images) > d:
        raise ShapeError(f"{len(images)} images for a frame of {d} vectors")
    m = images[0].dim
    C = _stack(images, space, (m,))  # (K, n, m)
    low = frame.labels[:, None] <= np.arange(len(images))
    _require({"map is unspecified on submodule directions": frame.labels > len(images),
              "images given for complement directions":
                  (low & (np.linalg.norm(C, axis=2) > RANK_TOL)).any(axis=1)})

    mats = np.zeros((K, m, d))
    for i in range(len(images)):
        live = (frame.labels > i).astype(float)
        mats += live[:, None, None] * np.einsum("km,kd->kmd", C[:, i], frame.rows[:, i, :])
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
    _require({"zero normal on part of the region": region.mask & (norms <= rank_tol)})

    reg = region.mask
    # frames start from the unit normal; atoms off the region count as full
    F, c = np.zeros((K, d, d)), np.where(reg, 1, d)
    F[reg, 0] = z.values[reg] / norms[reg, None]
    _grow_frames(np.broadcast_to(np.eye(d), (K, d, d)), F, c, rank_tol)
    rows = np.tile(np.eye(d)[None, :, :], (K, 1, 1))
    rows[reg] = np.concatenate([_canonical_signs(F[reg, 1:]), F[reg, :1]], axis=1)
    x0 = np.zeros((K, d))
    # C's pow, as a float64 scalar's ** 2; an array's ** 2 multiplies instead
    x0[reg] = (v.values[reg] / np.float_power(norms[reg], 2))[:, None] * z.values[reg]
    labels = np.full(K, d - 1, dtype=np.int64)
    frame_out = OrthonormalFrame(space=space, dim=d, labels=labels, rows=rows)
    return CondVector(space, x0), frame_out
