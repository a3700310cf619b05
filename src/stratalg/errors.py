"""Exception types raised by the package.

Errors that are localized to part of the scenario space carry the
offending atoms as a boolean mask so callers can report exactly where a
precondition failed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "StratalgError",
    "SpaceMismatchError",
    "ShapeError",
    "PartitionError",
    "AtomSetError",
    "PreconditionError",
    "UnboundedError",
    "SolverError",
    "ExtractionStalledError",
]


class StratalgError(Exception):
    """Base class for all package errors."""


class SpaceMismatchError(StratalgError):
    """Operands live on different measure spaces."""


class ShapeError(StratalgError):
    """Input data has the wrong shape or an invalid entry."""


class PartitionError(StratalgError):
    """A family of sets does not partition the requested region."""


class AtomSetError(StratalgError):
    """An error localized to a set of atoms.

    Attributes
    ----------
    atoms : numpy.ndarray
        Boolean mask over atoms where the condition failed.
    """

    def __init__(self, message: str, atoms):
        self.atoms = np.asarray(atoms, dtype=bool)
        where = np.flatnonzero(self.atoms).tolist()
        super().__init__(f"{message} (atoms {where})")


class PreconditionError(AtomSetError):
    """A documented precondition fails on the given atoms."""


class UnboundedError(AtomSetError):
    """A minimization is unbounded below on the given atoms.

    Carries ``witness``, a per-atom recession direction along which the
    objective decreases without bound (zero rows on sound atoms).
    """

    def __init__(self, message: str, atoms, witness=None):
        super().__init__(message, atoms)
        self.witness = witness


class SolverError(AtomSetError):
    """A per-atom LP ended, on the given atoms, in an outcome that its
    call site does not read as a verdict: ``limit``, ``infeasible``,
    ``unbounded`` or ``numerical``.  The message names each atom's."""


class ExtractionStalledError(AtomSetError):
    """The horizon was exhausted before the requested extraction depth."""


def _require(checks: dict) -> None:
    """Raise one ``PreconditionError`` when an atom fails a check.

    ``checks`` maps the wording of each per-atom precondition, in order,
    to the mask of the atoms that fail it, each evaluated on every atom.
    The error names the atoms that fail any check and is worded by the
    first check that fails."""
    failed = np.logical_or.reduce(list(checks.values()))
    if failed.any():
        raise PreconditionError(next(m for m, bad in checks.items() if bad.any()), failed)
