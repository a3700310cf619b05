"""Interchange documents: parsing, validation and deterministic emission.

A document is JSON with fields ``weights`` (K positive atom masses),
``d``, and named ``vectors`` (K x d arrays), ``sets`` (K 0/1 arrays),
``scalars`` (K arrays), ``convex_sets`` ({points, rays, lines} lists of
vector names), ``functions`` (max-affine piece lists or grid records)
and ``sequences`` (lists of vector names).  Infinities are spelled
``"+inf"`` / ``"-inf"``.  Emission renders every float with 17
significant digits and sorts object keys, so emitting, re-parsing and
emitting again is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import (
    CondExtScalar,
    CondScalar,
    CondVector,
    MeasurableSet,
    MeasureSpace,
)
from .errors import StratalgError
from .functions import Grid, GridFn, MaxAffineFn
from .sequences import CondSequence
from .sets import ConvexSetRep

__all__ = ["ParseError", "Scenario", "load_document", "build_scenario", "emit_document"]


class ParseError(ValueError):
    """The document is malformed: bad JSON, bad shapes or dangling names."""


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer literal too long
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario must be a JSON object")
    return doc


_PLAIN = frozenset((int, float))
_INF = {"+inf": np.inf, "-inf": -np.inf}


def _number(v, where: str) -> float:
    if v == "+inf":
        return np.inf
    if v == "-inf":
        return -np.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{where}: expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError as exc:
        raise ParseError(f"{where}: number out of range, got {v!r}") from exc


def _num_array(v, where: str) -> np.ndarray:
    if not isinstance(v, list):
        raise ParseError(f"{where}: expected an array")
    # A flat list, or a list of equal-length rows, of plain numbers and
    # infinity sentinels converts in one numpy call.  Anything else takes
    # the per-entry path below, which also writes every error message.
    shape, entries = (len(v),), v
    if set(map(type, v)) == {list}:
        widths = set(map(len, v))
        if len(widths) == 1:
            shape, entries = (len(v), *widths), list(chain.from_iterable(v))
    types = set(map(type, entries))
    if str in types and types <= _PLAIN | {str}:
        entries = [_INF.get(e, e) for e in entries]
        types = set(map(type, entries))
    if types <= _PLAIN:
        try:
            return np.array(entries, dtype=float).reshape(shape)
        except OverflowError:
            pass  # _number names the entry
    if any(isinstance(e, list) for e in v):
        rows = [_num_array(e, where) for e in v]
        try:
            return np.array(rows)
        except ValueError as exc:
            raise ParseError(f"{where}: ragged array") from exc
    return np.array([_number(e, where) for e in v])


@dataclass
class Scenario:
    """A parsed document with every named object resolved and typed."""

    space: MeasureSpace
    d: int
    vectors: dict[str, CondVector] = field(default_factory=dict)
    sets: dict[str, MeasurableSet] = field(default_factory=dict)
    scalars: dict[str, np.ndarray] = field(default_factory=dict)
    convex_sets: dict[str, ConvexSetRep] = field(default_factory=dict)
    functions: dict[str, object] = field(default_factory=dict)
    sequences: dict[str, CondSequence] = field(default_factory=dict)

    def vector(self, name: str) -> CondVector:
        if name not in self.vectors:
            raise ParseError(f"unknown vector {name!r}")
        return self.vectors[name]

    def measurable_set(self, name: str) -> MeasurableSet:
        if name not in self.sets:
            raise ParseError(f"unknown set {name!r}")
        return self.sets[name]

    def scalar(self, name: str) -> CondScalar:
        arr = self._scalar_array(name)
        if not np.isfinite(arr).all():
            raise ParseError(f"scalar {name!r} must be finite here")
        return CondScalar(self.space, arr)

    def ext_scalar(self, name: str) -> CondExtScalar:
        return CondExtScalar(self.space, self._scalar_array(name))

    def _scalar_array(self, name: str) -> np.ndarray:
        if name not in self.scalars:
            raise ParseError(f"unknown scalar {name!r}")
        return self.scalars[name]

    def convex_set(self, name: str) -> ConvexSetRep:
        if name not in self.convex_sets:
            raise ParseError(f"unknown convex set {name!r}")
        return self.convex_sets[name]

    def function(self, name: str):
        if name not in self.functions:
            raise ParseError(f"unknown function {name!r}")
        return self.functions[name]

    def sequence(self, name: str) -> CondSequence:
        if name not in self.sequences:
            raise ParseError(f"unknown sequence {name!r}")
        return self.sequences[name]


def build_scenario(doc: dict) -> Scenario:
    try:
        return _build(doc)
    except StratalgError as exc:
        raise ParseError(f"inconsistent scenario: {exc}") from exc


def _build(doc: dict) -> Scenario:
    if "weights" not in doc or "d" not in doc:
        raise ParseError("scenario needs 'weights' and 'd'")
    weights = _num_array(doc["weights"], "weights")
    if weights.ndim != 1 or len(weights) == 0 or np.any(weights <= 0):
        raise ParseError("weights must be a nonempty array of positives")
    if not isinstance(doc["d"], int) or isinstance(doc["d"], bool) or doc["d"] < 1:
        raise ParseError("'d' must be a positive integer")
    space = MeasureSpace(weights)
    d = doc["d"]
    scn = Scenario(space=space, d=d)
    K = space.natoms

    for name, v in _named(doc, "vectors").items():
        arr = _num_array(v, f"vector {name}")
        if arr.shape != (K, d):
            raise ParseError(f"vector {name!r} must be a {K}x{d} array")
        if not np.isfinite(arr).all():
            raise ParseError(f"vector {name!r} must be finite")
        scn.vectors[name] = CondVector(space, arr)

    for name, v in _named(doc, "sets").items():
        arr = _num_array(v, f"set {name}")
        if arr.shape != (K,) or not np.isin(arr, (0.0, 1.0)).all():
            raise ParseError(f"set {name!r} must be a length-{K} 0/1 array")
        scn.sets[name] = MeasurableSet(space, arr.astype(bool))

    for name, v in _named(doc, "scalars").items():
        arr = _num_array(v, f"scalar {name}")
        if arr.shape != (K,):
            raise ParseError(f"scalar {name!r} must have one entry per atom")
        scn.scalars[name] = arr

    for name, rec in _named(doc, "convex_sets").items():
        if not isinstance(rec, dict):
            raise ParseError(f"convex set {name!r} must be an object")
        parts = {}
        for key in ("points", "rays", "lines"):
            names = rec.get(key, [])
            if not isinstance(names, list):
                raise ParseError(f"convex set {name!r}: {key} must be a name list")
            parts[key] = tuple(scn.vector(n) for n in names)
        scn.convex_sets[name] = ConvexSetRep(
            space, d, parts["points"], parts["rays"], parts["lines"]
        )

    for name, rec in _named(doc, "functions").items():
        scn.functions[name] = _build_function(scn, name, rec)

    for name, rec in _named(doc, "sequences").items():
        if isinstance(rec, list):
            terms, bound = rec, None
        elif isinstance(rec, dict):
            terms = rec.get("terms", [])
            bound = rec.get("bound")
        else:
            raise ParseError(f"sequence {name!r} must be a name list or object")
        if not terms:
            raise ParseError(f"sequence {name!r} needs at least one term")
        scn.sequences[name] = CondSequence(
            [scn.vector(n) for n in terms],
            None if bound is None else scn.scalar(bound),
        )
    return scn


def _named(doc: dict, section: str) -> dict:
    sec = doc.get(section, {})
    if not isinstance(sec, dict):
        raise ParseError(f"'{section}' must be an object of named entries")
    return sec


def _build_function(scn: Scenario, name: str, rec):
    if not isinstance(rec, dict) or "type" not in rec:
        raise ParseError(f"function {name!r} must be an object with a 'type'")
    kind = rec["type"]
    if kind == "max_affine":
        pieces = rec.get("pieces", [])
        if not isinstance(pieces, list) or not pieces:
            raise ParseError(f"function {name!r} needs a nonempty piece list")
        built = []
        for p in pieces:
            if not (isinstance(p, list) and len(p) == 2):
                raise ParseError(
                    f"function {name!r}: pieces are [vector-name, scalar-name] pairs"
                )
            built.append((scn.vector(p[0]), scn.scalar(p[1])))
        domain = rec.get("domain")
        return MaxAffineFn.from_pieces(
            built, None if domain is None else scn.convex_set(domain)
        )
    if kind == "grid":
        for key in ("mins", "maxs", "steps", "values"):
            if key not in rec:
                raise ParseError(f"function {name!r} needs '{key}'")
        grid = Grid(
            _num_array(rec["mins"], f"function {name}: mins"),
            _num_array(rec["maxs"], f"function {name}: maxs"),
            _num_array(rec["steps"], f"function {name}: steps"),
        )
        values = _num_array(rec["values"], f"function {name}: values")
        return GridFn(scn.space, grid, values)
    raise ParseError(f"function {name!r}: unknown type {kind!r}")


_INF_TEXT = {"inf": '"+inf"', "-inf": '"-inf"'}


def _fmt_floats(xs) -> str:
    """Comma-joined 17-digit renderings, infinities as their sentinels."""
    text = ", ".join(map("%.17g".__mod__, xs))
    if "n" in text:  # only "inf" and "nan" spell an n
        parts = text.split(", ")
        if "nan" in parts:
            raise ValueError("documents cannot contain NaN")
        text = ", ".join([_INF_TEXT.get(p, p) for p in parts])
    return text


def _emit(v, indent: int) -> str:
    pad = "  " * indent
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_emit(v[k], indent + 1)}'
            for k in sorted(v)
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        types = set(map(type, v))
        if types == {float}:
            return "[" + _fmt_floats(v) + "]"
        if types == {int}:
            return "[" + ", ".join(map(str, v)) + "]"
        return "[" + ", ".join(_emit(e, indent) for e in v) + "]"
    if isinstance(v, np.ndarray):
        return _emit(v.tolist(), indent)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_floats((float(v),))
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    raise TypeError(f"cannot emit {type(v).__name__}")


def emit_document(doc: dict) -> str:
    """Render a document deterministically: sorted keys, 17-digit floats."""
    return _emit(doc, 0) + "\n"
