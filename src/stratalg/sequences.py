"""Finite-horizon conditional sequence analysis.

A conditional sequence stores finitely many conditional vectors as one
read-only ``(K, T, d)`` array, atom axis first.  The subsequence
extractor runs the classical nested coordinate-wise selection on all
atoms at once: for each coordinate in order, it keeps the positions
whose value is within ``slack`` of the minimum over the surviving
positions (the horizon stand-in for the liminf), then reads off the
first ``depth`` survivors as measurable indices.  The Cauchy test scans
per-atom tail diameters against an epsilon schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    CondInteger,
    CondScalar,
    CondVector,
    MeasurableSet,
    MeasureSpace,
    _freeze,
    _stack,
)
from .errors import (
    ExtractionStalledError,
    ShapeError,
    SpaceMismatchError,
    _require,
)
from .tolerances import EQ_TOL, row_scale

__all__ = ["CondSequence", "BWResult", "CauchyResult", "bw_extract", "cauchy_limit"]


@dataclass(frozen=True, eq=False)
class CondSequence:
    """Finitely many conditional vectors, optionally with a norm bound.

    The terms are stored stacked and read-only: ``values[k, n]`` is term
    ``n + 1`` on atom ``k``, shape ``(K, horizon, dim)``.
    """

    space: MeasureSpace
    values: np.ndarray
    bound: Optional[CondScalar] = None

    def __init__(self, terms: Sequence[CondVector], bound: Optional[CondScalar] = None):
        terms = tuple(terms)
        if not terms:
            raise ShapeError("a sequence needs at least one term")
        space = terms[0].space
        values = _stack(terms, space, (terms[0].dim,))
        if bound is not None:
            if bound.space != space:
                raise SpaceMismatchError("bound lives on a different measure space")
            b = bound.values + EQ_TOL * row_scale(bound.values)
            if np.any(np.linalg.norm(values, axis=2) > b[:, None]):
                raise ShapeError("bound does not dominate the terms")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "bound", bound)

    @property
    def horizon(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class BWResult:
    """Measurable subsequence indices with the selected tail term.

    ``indices`` are 1-based and strictly increasing per atom; ``limit``
    equals the term selected at the deepest index, exactly.
    ``stage_liminfs`` records, per atom and coordinate, the horizon
    minimum used as that stage's selection threshold: every selected
    term sits within ``slack`` of it in that coordinate.
    """

    indices: tuple[CondInteger, ...]
    limit: CondVector
    stage_liminfs: CondVector


def bw_extract(seq: CondSequence, depth: int, slack: float) -> BWResult:
    """Coordinate-by-coordinate subsequence selection at a finite horizon.

    Coordinates are processed in order 1..d.  Each stage restricts the
    surviving positions to those whose coordinate value is at most the
    stage minimum plus ``slack``.  The first ``depth`` survivors become
    the indices.  Atoms whose survivors run out raise
    ``ExtractionStalledError`` carrying the stalled atom set; a ``slack``
    that is not a finite number >= 0 raises ``ShapeError``.
    """
    if depth < 1:
        raise ShapeError("depth must be at least 1")
    if not (np.isfinite(slack) and slack >= 0):
        raise ShapeError("slack must be a finite number >= 0")
    space = seq.space
    K, atoms = space.natoms, np.arange(space.natoms)
    alive = np.ones((K, seq.horizon), dtype=bool)
    liminfs = np.empty((K, seq.dim))
    for i in range(seq.dim):
        vals = seq.values[:, :, i]
        # the stage minimum is read at the first survivor attaining it, so
        # a tie of 0.0 and -0.0 resolves by position, not by SIMD dispatch
        lo = vals[atoms, np.where(alive, vals, np.inf).argmin(axis=1)]
        liminfs[:, i] = lo
        alive &= vals <= (lo + slack)[:, None]
    stalled = alive.sum(axis=1) < depth
    if stalled.any():
        raise ExtractionStalledError("horizon exhausted before the requested depth", stalled)
    # the first `depth` survivors of every atom, in position order
    picked = np.argsort(~alive, axis=1, kind="stable")[:, :depth]
    return BWResult(
        indices=tuple(CondInteger(space, picked[:, j] + 1) for j in range(depth)),
        limit=CondVector(space, seq.values[atoms, picked[:, -1]]),
        stage_liminfs=CondVector(space, liminfs),
    )


@dataclass(frozen=True, eq=False)
class CauchyResult:
    """Finite-horizon Cauchy verdict with its tail-diameter evidence.

    ``cauchy_on`` holds the atoms passing every epsilon in the schedule.
    ``cuts[j]`` is the 1-based first position whose tail has pairwise
    diameter at most ``schedule[j]`` on each atom, 0 when no cut exists
    within the horizon.  ``tail_diameters[j]`` is the diameter achieved
    at that cut (``inf`` when there is none).  ``limit`` is the last
    term; it is the surrogate limit on ``cauchy_on``.
    """

    limit: CondVector
    cauchy_on: MeasurableSet
    cuts: tuple[np.ndarray, ...]
    tail_diameters: tuple[np.ndarray, ...]


def cauchy_limit(seq: CondSequence, schedule: Sequence[CondScalar]) -> CauchyResult:
    """Per-atom tail-diameter Cauchy test against an epsilon schedule.

    Every epsilon must be strictly positive on every atom; otherwise one
    ``PreconditionError`` names every atom where some epsilon is not.  An atom
    passes one epsilon when some tail of the sequence has all pairwise
    distances at most that epsilon there; it passes overall when it
    passes every epsilon in the schedule.  A tail must contain at least
    two positions: the singleton tail at the horizon carries no pair
    evidence and never counts as a cut.
    """
    space = seq.space
    K = space.natoms
    _require({"epsilons must be strictly positive": (_stack(schedule, space) <= 0).any(axis=1)})
    T = seq.horizon
    # tail_diam[n, k]: max pairwise distance among positions >= n (0-based);
    # as with Python's max(), a NaN distance never replaces the running max
    tail_diam = np.zeros((T, K))
    running = np.zeros(K)
    for n in range(T - 2, -1, -1):
        far = np.linalg.norm(seq.values[:, n, None] - seq.values[:, n + 1 :], axis=2).max(axis=1)
        running = np.where(far > running, far, running)
        tail_diam[n] = running
    # the singleton tail at the horizon is never a cut
    ok = np.zeros((T, K), dtype=bool)
    atoms = np.arange(K)
    cuts, diams = [], []
    passing = np.ones(K, dtype=bool)
    for eps in schedule:
        ok[: T - 1] = tail_diam[: T - 1] <= eps.values
        first = ok.argmax(axis=0)
        hit = ok[first, atoms]
        passing &= hit
        cuts.append(np.where(hit, first + 1, 0))  # 1-based
        diams.append(np.where(hit, tail_diam[first, atoms], np.inf))
    return CauchyResult(
        limit=CondVector(space, seq.values[:, -1]),
        cauchy_on=MeasurableSet(space, passing),
        cuts=tuple(cuts),
        tail_diameters=tuple(diams),
    )
