"""Scenario-indexed (conditional) scalars, vectors and sets.

The ambient model is a finite measure space with ``K`` atoms of strictly
positive weight.  Every measurable object is determined by its value on
each atom, so conditional scalars and vectors are stored as arrays
indexed by atom.  Almost-everywhere statements become exact per-atom
statements; the weights are carried for reporting only and never enter
any algebraic result.

Conventions for extended reals follow the one-point-dominant rules
``(+inf) + (-inf) = +inf`` and ``0 * (+-inf) = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import PartitionError, ShapeError, SpaceMismatchError
from .tolerances import EQ_TOL, eq_scale

__all__ = [
    "MeasureSpace",
    "MeasurableSet",
    "CondScalar",
    "CondExtScalar",
    "CondInteger",
    "CondVector",
    "inner_norm",
    "glue",
    "select_by_index",
    "ess_extrema",
    "largest_set_where",
    "ext_add",
    "ext_mul",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MeasureSpace:
    """A finite measure space: ``K`` atoms with strictly positive weights."""

    weights: np.ndarray

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ShapeError("weights must be a non-empty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ShapeError("atom weights must be finite and strictly positive")
        object.__setattr__(self, "weights", _freeze(w.copy()))

    @property
    def natoms(self) -> int:
        return self.weights.size

    def __eq__(self, other) -> bool:
        return isinstance(other, MeasureSpace) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self) -> int:
        return hash(self.weights.tobytes())

    def full_set(self) -> "MeasurableSet":
        return MeasurableSet(self, np.ones(self.natoms, dtype=bool))

    def empty_set(self) -> "MeasurableSet":
        return MeasurableSet(self, np.zeros(self.natoms, dtype=bool))

    def set_from_indices(self, indices: Iterable[int]) -> "MeasurableSet":
        mask = np.zeros(self.natoms, dtype=bool)
        mask[list(indices)] = True
        return MeasurableSet(self, mask)


def _check_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatchError("operands live on different measure spaces")


@dataclass(frozen=True)
class MeasurableSet:
    """A union of atoms, stored as a boolean mask."""

    space: MeasureSpace
    mask: np.ndarray

    def __init__(self, space: MeasureSpace, mask):
        m = np.asarray(mask, dtype=bool)
        if m.shape != (space.natoms,):
            raise ShapeError("mask must have one entry per atom")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mask", _freeze(m.copy()))

    def __and__(self, other: "MeasurableSet") -> "MeasurableSet":
        _check_space(self, other)
        return MeasurableSet(self.space, self.mask & other.mask)

    def __or__(self, other: "MeasurableSet") -> "MeasurableSet":
        _check_space(self, other)
        return MeasurableSet(self.space, self.mask | other.mask)

    def __invert__(self) -> "MeasurableSet":
        return MeasurableSet(self.space, ~self.mask)

    def __sub__(self, other: "MeasurableSet") -> "MeasurableSet":
        _check_space(self, other)
        return MeasurableSet(self.space, self.mask & ~other.mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MeasurableSet)
            and self.space == other.space
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        return hash((self.space, self.mask.tobytes()))

    @property
    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    @property
    def is_full(self) -> bool:
        return bool(self.mask.all())

    @property
    def measure(self) -> float:
        return float(self.space.weights[self.mask].sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def contains(self, other: "MeasurableSet") -> bool:
        _check_space(self, other)
        return bool(np.all(self.mask | ~other.mask))


class _CondValue:
    """Shared plumbing for atom-indexed values."""

    space: MeasureSpace
    values: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.space == other.space
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.space, self.values.tobytes()))

    def eq_set(self, other, tol: float = EQ_TOL) -> MeasurableSet:
        """Atoms on which the two values agree, up to scaled tolerance."""
        _check_space(self, other)
        a, b = self.values, other.values
        scale = eq_scale(a, b)
        diff = np.abs(a - b)
        # +inf vs +inf and -inf vs -inf count as equal.
        same_inf = (a == b) & ~np.isfinite(a)
        ok = (diff <= tol * scale) | same_inf
        if ok.ndim > 1:
            ok = ok.all(axis=tuple(range(1, ok.ndim)))
        return MeasurableSet(self.space, ok)

    def equal_ae(self, other, tol: float = EQ_TOL) -> bool:
        return self.eq_set(other, tol).is_full


class CondScalar(_CondValue):
    """A conditional real number: one finite float per atom."""

    def __init__(self, space: MeasureSpace, values):
        v = np.asarray(values, dtype=float)
        if v.shape != (space.natoms,):
            raise ShapeError("scalar values must have one entry per atom")
        if not np.all(np.isfinite(v)):
            raise ShapeError("conditional scalars must be finite; "
                             "use CondExtScalar for extended values")
        self.space = space
        self.values = _freeze(v.copy())

    @classmethod
    def constant(cls, space: MeasureSpace, c: float) -> "CondScalar":
        return cls(space, np.full(space.natoms, float(c)))

    def __add__(self, other: "CondScalar") -> "CondScalar":
        _check_space(self, other)
        return CondScalar(self.space, self.values + other.values)

    def __sub__(self, other: "CondScalar") -> "CondScalar":
        _check_space(self, other)
        return CondScalar(self.space, self.values - other.values)

    def __neg__(self) -> "CondScalar":
        return CondScalar(self.space, -self.values)

    def __mul__(self, other: Union["CondScalar", float]) -> "CondScalar":
        if isinstance(other, CondScalar):
            _check_space(self, other)
            return CondScalar(self.space, self.values * other.values)
        return CondScalar(self.space, self.values * float(other))

    __rmul__ = __mul__

    def restrict(self, region: MeasurableSet) -> "CondScalar":
        """``1_A x``: zero outside the region."""
        _check_space(self, region)
        return CondScalar(self.space, np.where(region.mask, self.values, 0.0))

    def as_extended(self) -> "CondExtScalar":
        return CondExtScalar(self.space, self.values)


class CondExtScalar(_CondValue):
    """A conditional extended real: entries may be ``+-inf`` (never NaN)."""

    def __init__(self, space: MeasureSpace, values):
        v = np.asarray(values, dtype=float)
        if v.shape != (space.natoms,):
            raise ShapeError("scalar values must have one entry per atom")
        if np.any(np.isnan(v)):
            raise ShapeError("extended scalars cannot contain NaN")
        self.space = space
        self.values = _freeze(v.copy())

    @classmethod
    def constant(cls, space: MeasureSpace, c: float) -> "CondExtScalar":
        return cls(space, np.full(space.natoms, float(c)))

    @property
    def finite_set(self) -> MeasurableSet:
        return MeasurableSet(self.space, np.isfinite(self.values))

    def __add__(self, other: "CondExtScalar") -> "CondExtScalar":
        _check_space(self, other)
        return CondExtScalar(self.space, ext_add(self.values, other.values))

    def __neg__(self) -> "CondExtScalar":
        return CondExtScalar(self.space, -self.values)

    def __sub__(self, other: "CondExtScalar") -> "CondExtScalar":
        return self + (-other)

    def __mul__(self, other: Union["CondExtScalar", float]) -> "CondExtScalar":
        if isinstance(other, CondExtScalar):
            _check_space(self, other)
            return CondExtScalar(self.space, ext_mul(self.values, other.values))
        return CondExtScalar(
            self.space, ext_mul(self.values, np.full(self.space.natoms, float(other)))
        )

    __rmul__ = __mul__


class CondInteger(_CondValue):
    """A conditional index: one integer ``>= 1`` per atom."""

    def __init__(self, space: MeasureSpace, values):
        v = np.asarray(values)
        if v.shape != (space.natoms,):
            raise ShapeError("index values must have one entry per atom")
        if not np.issubdtype(v.dtype, np.integer):
            vi = np.asarray(values, dtype=np.int64)
            if not np.array_equal(vi, np.asarray(values, dtype=float)):
                raise ShapeError("index values must be integers")
            v = vi
        v = v.astype(np.int64)
        if np.any(v < 1):
            raise ShapeError("conditional indices start at 1")
        self.space = space
        self.values = _freeze(v.copy())

    @classmethod
    def constant(cls, space: MeasureSpace, n: int) -> "CondInteger":
        return cls(space, np.full(space.natoms, int(n), dtype=np.int64))


class CondVector(_CondValue):
    """A conditional vector: one row of ``R^d`` per atom.

    Inner product and norm are taken per atom, so they are conditional
    scalars.
    """

    def __init__(self, space: MeasureSpace, values):
        v = np.asarray(values, dtype=float)
        if v.ndim != 2 or v.shape[0] != space.natoms:
            raise ShapeError("vector values must be a (natoms, dim) array")
        if not np.all(np.isfinite(v)):
            raise ShapeError("conditional vectors must have finite entries")
        self.space = space
        self.values = _freeze(v.copy())

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def constant(cls, space: MeasureSpace, row) -> "CondVector":
        row = np.asarray(row, dtype=float)
        return cls(space, np.tile(row, (space.natoms, 1)))

    @classmethod
    def zero(cls, space: MeasureSpace, dim: int) -> "CondVector":
        return cls(space, np.zeros((space.natoms, dim)))

    def row(self, atom: int) -> np.ndarray:
        return self.values[atom]

    def inner(self, other: "CondVector") -> CondScalar:
        _check_space(self, other)
        if self.dim != other.dim:
            raise ShapeError("inner product needs matching dimensions")
        return CondScalar(self.space, np.einsum("kd,kd->k", self.values, other.values))

    def norm(self) -> CondScalar:
        return CondScalar(self.space, np.linalg.norm(self.values, axis=1))

    def __add__(self, other: "CondVector") -> "CondVector":
        _check_space(self, other)
        return CondVector(self.space, self.values + other.values)

    def __sub__(self, other: "CondVector") -> "CondVector":
        _check_space(self, other)
        return CondVector(self.space, self.values - other.values)

    def __neg__(self) -> "CondVector":
        return CondVector(self.space, -self.values)

    def __mul__(self, other: Union[CondScalar, float]) -> "CondVector":
        if isinstance(other, CondScalar):
            _check_space(self, other)
            return CondVector(self.space, self.values * other.values[:, None])
        return CondVector(self.space, self.values * float(other))

    __rmul__ = __mul__

    def restrict(self, region: MeasurableSet) -> "CondVector":
        """``1_A X``: the row is zeroed outside the region."""
        _check_space(self, region)
        return CondVector(
            self.space, np.where(region.mask[:, None], self.values, 0.0)
        )


AnyCond = Union[CondScalar, CondExtScalar, CondInteger, CondVector]


def inner_norm(x: CondVector, y: CondVector) -> tuple[CondScalar, CondScalar]:
    """Per-atom inner product of ``x`` and ``y`` together with ``|x|``."""
    return x.inner(y), x.norm()


def _validate_partition(parts: Sequence[MeasurableSet], space: MeasureSpace) -> None:
    cover = np.zeros(space.natoms, dtype=int)
    for p in parts:
        if p.space != space:
            raise SpaceMismatchError("partition sets live on a different space")
        cover += p.mask.astype(int)
    if np.any(cover > 1):
        raise PartitionError("partition sets overlap")
    if np.any(cover == 0):
        raise PartitionError("partition sets do not cover the space")


def glue(parts: Sequence[MeasurableSet], pieces: Sequence[AnyCond]) -> AnyCond:
    """Concatenate values along a partition: ``sum of 1_{A_n} X_n``.

    The parts must be pairwise disjoint and cover the space.  All pieces
    must have the same type and shape; the result takes the value of
    ``pieces[n]`` on ``parts[n]``.
    """
    if len(parts) != len(pieces) or not parts:
        raise PartitionError("need one piece per partition set")
    space = pieces[0].space
    _validate_partition(parts, space)
    kind = type(pieces[0])
    for x in pieces:
        if type(x) is not kind:
            raise ShapeError("cannot glue values of different types")
        if x.space != space:
            raise SpaceMismatchError("pieces live on different measure spaces")
        if x.values.shape != pieces[0].values.shape:
            raise ShapeError("cannot glue values of different shapes")
    out = np.zeros_like(pieces[0].values)
    for region, x in zip(parts, pieces):
        out[region.mask] = x.values[region.mask]
    return kind(space, out)


def select_by_index(terms: Sequence[AnyCond], index: CondInteger) -> AnyCond:
    """Pick ``terms[index]`` atom by atom (indices are 1-based).

    This is gluing along the level sets of the index: the result equals
    ``terms[n-1]`` on the atoms where ``index == n``.
    """
    if not terms:
        raise ShapeError("select_by_index needs at least one term")
    space = index.space
    n = index.values
    if np.any(n > len(terms)):
        raise ShapeError("index exceeds the number of terms")
    out = np.zeros_like(terms[0].values)
    for i, x in enumerate(terms, start=1):
        if x.space != space:
            raise SpaceMismatchError("terms live on a different measure space")
        sel = n == i
        if sel.any():
            out[sel] = x.values[sel]
    return type(terms[0])(space, out)


def ess_extrema(
    family: Sequence[Union[CondScalar, CondExtScalar]], kind: str
) -> CondExtScalar:
    """Per-atom supremum or infimum of a finite family.

    ``kind`` is ``"sup"`` or ``"inf"``.  The essential extremum over a
    finite atom space is the exact per-atom extremum; the result is an
    extended scalar because the inputs may be.
    """
    if kind not in ("sup", "inf"):
        raise ShapeError("kind must be 'sup' or 'inf'")
    if not family:
        raise ShapeError("ess_extrema needs a non-empty family")
    space = family[0].space
    rows = []
    for x in family:
        if x.space != space:
            raise SpaceMismatchError("family members live on different spaces")
        rows.append(x.values)
    stacked = np.stack(rows)
    out = stacked.max(axis=0) if kind == "sup" else stacked.min(axis=0)
    return CondExtScalar(space, out)


def largest_set_where(
    predicate: Union[Callable[[int], bool], Sequence[bool], np.ndarray],
    region: MeasurableSet,
) -> MeasurableSet:
    """Largest subset of ``region`` on which a per-atom predicate holds.

    The predicate is either a boolean array over atoms or a callable
    taking an atom index.  Because the space is atomic, the essentially
    largest such set is simply the union of satisfying atoms.
    """
    space = region.space
    if callable(predicate):
        mask = np.array(
            [bool(predicate(k)) if region.mask[k] else False
             for k in range(space.natoms)],
            dtype=bool,
        )
    else:
        mask = np.asarray(predicate, dtype=bool)
        if mask.shape != (space.natoms,):
            raise ShapeError("predicate mask must have one entry per atom")
        mask = mask & region.mask
    return MeasurableSet(space, mask)


def ext_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Extended-real addition with ``(+inf) + (-inf) = +inf``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.where(
        (a == np.inf) | (b == np.inf),
        np.inf,
        np.where((a == -np.inf) | (b == -np.inf), -np.inf, 0.0),
    )
    finite = np.isfinite(a) & np.isfinite(b)
    return np.where(finite, np.where(finite, a, 0.0) + np.where(finite, b, 0.0), out)


def ext_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Extended-real multiplication with ``0 * (+-inf) = 0``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    zero = (a == 0.0) | (b == 0.0)
    safe = np.where(zero, 0.0, a) * np.where(zero, 1.0, b)
    return np.where(zero, 0.0, safe)
