"""Interchange documents: indexing, on-access building and deterministic emission.

A document is JSON with fields ``weights`` (K positive atom masses),
``d``, and named ``vectors`` (K x d arrays), ``sets`` (K 0/1 arrays),
``scalars`` (K arrays), ``convex_sets`` ({points, rays, lines} lists of
vector names), ``functions`` (max-affine piece lists or grid records)
and ``sequences`` (lists of vector names).  Infinities are spelled
``"+inf"`` / ``"-inf"``, and -0.0 as ``-0``.  Emission renders every
float with 17 significant digits and sorts object keys, so emitting,
re-parsing and emitting again is byte-stable.

``emit_document`` writes every library object a command returns in the
layout its reader reads, so reading it back gives its bits: a
conditional scalar, extended scalar, integer or vector as its K (x d)
array of values, a ``MeasurableSet`` as its K 0/1 array and a ``GridFn``
as the grid record that ``functions`` reads.  Grid axes must be finite.

A command pays for what it names.  ``load_document`` checks the
document's structure and records where each value starts and ends,
without decoding the sections' entries.  ``build_scenario`` checks the
header and the section types.  An entry is decoded, checked and built
when it is first accessed, with the entries it names, and then cached.

Atoms that carry the same text in every per-atom entry a command reads
get the same rows: every op is local to its atom, so the rows of atom
``k`` depend on atom ``k``'s data alone.  ``Scenario.quotient`` groups the
atoms into blocks of such atoms and builds the scenario on one atom per
block, reading only its representatives' rows; ``emit_document`` writes
each block's rows once and places them at every atom of the block.  The
weights stay out of the blocks: they never enter a result.  Neither
``load_document`` nor ``build_scenario`` does any of this work; a run on
the quotient that raises is run again on all atoms by ``cli``.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from functools import lru_cache
from itertools import chain
from json.decoder import scanstring

import numpy as np

from .core import (
    CondExtScalar,
    CondInteger,
    CondScalar,
    CondVector,
    MeasurableSet,
    MeasureSpace,
)
from .errors import StratalgError
from .functions import Grid, GridFn, MaxAffineFn
from .sequences import CondSequence
from .sets import ConvexSetRep

__all__ = ["Document", "ParseError", "Scenario", "load_document", "build_scenario",
           "emit_document"]


class ParseError(ValueError):
    """The document is malformed: bad JSON, bad shapes or dangling names."""


def _int(literal: str):
    """An integer literal; ``-0`` is -0.0, as ``emit_document`` writes it."""
    return -0.0 if literal == "-0" else int(literal)


_DECODER = json.JSONDecoder(parse_int=_int)
_WS = re.compile(r"[ \t\n\r]*")
_STRING = r'"(?:[^"\\]++|\\.)*+"'
# Containers nest this deep in the skip pattern, as deep as a function
# record; the decoder finds the end of a deeper value.
_SKIP_DEPTH = 3


def _skip_pattern() -> re.Pattern:
    """One JSON value, found without decoding it.

    A string, a run of literal characters, or an array or object whose
    brackets nest and whose strings end.  Commas, colons and literals
    inside a container are left to the decoder, which checks them when
    the entry is read.
    """
    # First the shape of every numeric entry, an array of ASCII text and
    # flat arrays: re tests the ASCII ranges faster than a negated class.
    run = r"[\x00-!#-Z\\^-z|~\x7f]*+"  # ASCII but brackets, braces, quotes
    rows = rf"\[{run}(?:\[{run}\]{run})*+\]"
    plain = r'[^\[\]{}"]++'
    container = None
    for _ in range(_SKIP_DEPTH):
        inner = "|".join(filter(None, (plain, container, _STRING)))
        container = rf"\[(?:{inner})*+\]|\{{(?:{inner})*+\}}"
    return re.compile(rf'{rows}|{container}|{_STRING}|[^ \t\n\r,:\[\]{{}}"]++', re.DOTALL)


_SKIP = _skip_pattern()


def _decode(text: str, pos: int | None = None):
    """The JSON value starting at ``pos``, or the whole text."""
    try:
        if pos is None:
            return json.loads(text, parse_int=_int)
        return _DECODER.raw_decode(text, pos)[0]
    except ValueError as exc:  # bad JSON, or an integer literal too long
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc


class Document(Mapping):
    """A JSON object whose values are decoded when read.

    An object value of the top level is itself a ``Document``, so a
    section's entries are located without decoding any of them.  Every
    read decodes again; ``Scenario`` caches what it builds.  ``span(key)``
    is where a skipped value starts and ends, and ``text(key)`` its text,
    found without a second scan.
    """

    def __init__(self, text: str, starts: dict, ends: dict):
        self._text, self._starts, self._ends = text, starts, ends

    def span(self, key) -> tuple[int, int]:
        return self._starts[key], self._ends[key]

    def text(self, key) -> str:
        return self._text[self._starts[key]:self._ends[key]]

    def __getitem__(self, key):
        start = self._starts[key]
        return start if isinstance(start, Document) else _decode(self._text, start)

    def __contains__(self, key) -> bool:
        return key in self._starts

    def __iter__(self):
        return iter(self._starts)

    def __len__(self) -> int:
        return len(self._starts)


def _index(text: str, pos: int, nest: bool) -> tuple[Document, int]:
    """Index the object at ``text[pos]``; ValueError where its structure breaks.

    Keys, colons and commas are read as the decoder reads them, and a
    duplicate key keeps its last value.  With ``nest``, an object value is
    indexed in turn; any other value is skipped.
    """
    if not text.startswith("{", pos):
        raise ValueError("expected an object")
    starts, ends = {}, {}
    pos = _WS.match(text, pos + 1).end()
    if text.startswith("}", pos):
        return Document(text, starts, ends), pos + 1
    while True:
        if not text.startswith('"', pos):
            raise ValueError("expected a key")
        key, pos = scanstring(text, pos + 1)
        pos = _WS.match(text, pos).end()
        if not text.startswith(":", pos):
            raise ValueError("expected ':'")
        pos = _WS.match(text, pos + 1).end()
        if nest and text.startswith("{", pos):
            starts[key], pos = _index(text, pos, False)
        else:
            found = _SKIP.match(text, pos)
            starts[key] = pos
            pos = ends[key] = found.end() if found else _DECODER.raw_decode(text, pos)[1]
        pos = _WS.match(text, pos).end()
        if text.startswith("}", pos):
            return Document(text, starts, ends), pos + 1
        if not text.startswith(",", pos):
            raise ValueError("expected ',' or '}'")
        pos = _WS.match(text, pos + 1).end()


def load_document(path: str) -> Mapping:
    """Read and index a scenario; see ``Document``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario: {exc}") from exc
    except ValueError as exc:  # not UTF-8
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    try:
        doc, end = _index(text, _WS.match(text).end(), nest=True)
        if _WS.match(text, end).end() != len(text):
            raise ValueError("extra data")
    except ValueError:
        # Not an object, or a broken structure: the decoder words the
        # error, naming the first fault in document order.
        doc = _decode(text)
    if not isinstance(doc, Mapping):
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


class Scenario:
    """A document's checked header, and its named entries built on first access.

    An entry is checked as it is built, and a convex set, function or
    sequence resolves the entries it names through the same accessors, so
    a malformed or dangling entry fails the commands that read it.

    ``weights`` are the document's weights.  ``atoms`` is None, or for a
    quotient (see ``quotient``) the block of each atom of the document:
    ``space`` then has one atom per block.
    """

    def __init__(self, doc: Mapping):
        if "weights" not in doc or "d" not in doc:
            raise ParseError("scenario needs 'weights' and 'd'")
        weights = _num_array(doc["weights"], "weights")
        if weights.ndim != 1 or len(weights) == 0 or np.any(weights <= 0):
            raise ParseError("weights must be a nonempty array of positives")
        d = doc["d"]
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ParseError("'d' must be a positive integer")
        self.space = MeasureSpace(weights)
        self.weights, self.atoms = self.space.weights, None
        self.d = d
        self._entries = {}
        for section in _SECTIONS:
            entries = doc.get(section, {})
            if not isinstance(entries, Mapping):
                raise ParseError(f"'{section}' must be an object of named entries")
            self._entries[section] = entries
        self._built = {}

    def _get(self, section: str, name):
        kind, build = _SECTIONS[section]
        entries = self._entries[section]
        if not isinstance(name, str) or name not in entries:
            raise ParseError(f"unknown {kind} {name!r}")
        key = (section, name)
        if key not in self._built:
            try:
                self._built[key] = build(self, name, entries[name])
            except StratalgError as exc:
                raise ParseError(f"inconsistent scenario: {exc}") from exc
        return self._built[key]

    def vector(self, name: str) -> CondVector:
        return self._get("vectors", name)

    def measurable_set(self, name: str) -> MeasurableSet:
        return self._get("sets", name)

    def scalar(self, name: str) -> CondScalar:
        arr = self._get("scalars", name)
        if not np.isfinite(arr).all():
            raise ParseError(f"scalar {name!r} must be finite here")
        return CondScalar(self.space, arr)

    def ext_scalar(self, name: str) -> CondExtScalar:
        return CondExtScalar(self.space, self._get("scalars", name))

    def convex_set(self, name: str) -> ConvexSetRep:
        return self._get("convex_sets", name)

    def function(self, name: str):
        return self._get("functions", name)

    def sequence(self, name: str) -> CondSequence:
        return self._get("sequences", name)

    def atom_count(self, s: MeasurableSet) -> int:
        """The number of the document's atoms in ``s``."""
        return int(s.mask.sum() if self.atoms is None else s.mask[self.atoms].sum())

    def atom_columns(self, a: np.ndarray) -> np.ndarray:
        """``a``, one column per atom, with one column per atom of the document."""
        return a if self.atoms is None else a[:, self.atoms]

    def quotient(self, names) -> Scenario | None:
        """This scenario on one atom per block of atoms that agree in every
        entry ``names`` reaches; None where no two atoms agree.

        The entries reached are those of any section named by one of
        ``names``, and then those named by a string anywhere in a convex
        set, function or sequence reached, but for a grid's ``values``.
        Two atoms agree when their texts are the same in every vector,
        set and scalar reached and in every grid's ``values``.  The
        quotient holds the entries reached, each with one row per block;
        an entry it does not hold is unknown to it.  Its ``weights`` are
        the document's, and ``atoms`` the block of each of its atoms.

        Every op is local to its atom, so a result row depends on the
        atom's own data alone: the rows of a block's atom are the rows
        of each of its atoms.  None also where the document was not
        indexed or an entry reached is not in a layout that
        ``_atom_texts`` splits: then each atom is its own block.
        """
        natoms = self.space.natoms
        todo = [(section, name) for name in names if isinstance(name, str) for section in _SECTIONS]
        # (section, name) -> the entry's text; where its per-atom values
        # stand in it; their atoms' texts
        reached, spans, split = {}, {}, {}
        while todo:
            key = section, name = todo.pop()
            entries = self._entries[section]
            if key in reached or name not in entries:
                continue
            if not isinstance(entries, Document):
                return None
            reached[key] = text = entries.text(name)
            if section in _PER_ATOM_SECTIONS:
                spans[key] = 0, len(text)
            else:  # a record: follow the strings in it, but for grid values
                try:
                    if text.startswith("{"):
                        rec = _index(text, 0, False)[0]
                        named = [rec[k] for k in rec if k != "values"]
                        if "values" in rec:
                            spans[key] = rec.span("values")
                    else:  # a sequence's name list
                        named = _decode(text)
                except ValueError:  # a broken record, which its builder reports
                    return None
                todo += [(s, n) for n in _strings(named) for s in _SECTIONS]
            if key in spans:
                split[key] = _atom_texts(text[slice(*spans[key])], natoms)
                if split[key] is None:
                    return None
        blocks = {}
        atoms = np.array([blocks.setdefault(texts, len(blocks))
                          for texts in zip(*(texts for _, texts in split.values()))])
        if len(blocks) in (0, natoms):
            return None
        reps = np.empty(len(blocks), dtype=int)
        reps[atoms[::-1]] = np.arange(natoms)[::-1]  # each block's first atom
        sections = {section: {} for section in _SECTIONS}
        for key, text in reached.items():
            if key in split:
                rows, texts = split[key]
                start, end = spans[key]
                text = text[:start] + _joined(rows, [texts[r] for r in reps], "") + text[end:]
            sections[key[0]][key[1]] = text
        quo = Scenario({"weights": self.weights[reps].tolist(), "d": self.d,
                        **{section: _section(texts) for section, texts in sections.items()}})
        quo.weights, quo.atoms = self.weights, atoms
        return quo


_PER_ATOM_SECTIONS = ("vectors", "sets", "scalars")
_ROW_SEP = re.compile(r"\][ \t\n\r]*,[ \t\n\r]*\[")
_SEP = re.compile(r",[ \t\n\r]*")


def _atom_texts(text: str, natoms: int) -> tuple[bool, list] | None:
    """Whether the array ``text`` holds rows, and the text of each of its
    ``natoms`` entries, a row's without its brackets; None for any other
    layout.

    The layouts split are an array of literals and an array of arrays of
    literals, with one separator throughout.  No bracket stands inside a
    text, and no comma inside a literal's, so an array joined from some of
    the texts decodes to one entry per text only where each text is its
    whole entry: a builder's shape check refuses any other."""
    rows = text.startswith("[[")
    depth, brackets = (2, natoms + 1) if rows else (1, 1)
    if not (text.startswith("[") and text.endswith("]" * depth)
            and text.count("[") == brackets == text.count("]")):
        return None
    body = text[depth:-depth]
    sep = (_ROW_SEP if rows else _SEP).search(body)
    texts = body.split(sep.group()) if sep else [body]
    if len(texts) != natoms or not (rows or body.count(",") == natoms - 1):
        return None
    return rows, texts


def _joined(rows: bool, texts: list, space: str) -> str:
    """The array of ``texts``, as ``_atom_texts`` splits it."""
    if rows:
        return "[[" + f"],{space}[".join(texts) + "]]"
    return "[" + f",{space}".join(texts) + "]"


def _strings(value):
    """Every string in a decoded JSON value."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, (list, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _strings(v)


def _section(texts: dict) -> Document:
    """A section of value texts, one after another."""
    starts, ends, pos = {}, {}, 0
    for key, text in texts.items():
        starts[key] = pos
        pos = ends[key] = pos + len(text)
        pos += 1
    return Document(" ".join(texts.values()), starts, ends)


def build_scenario(doc: Mapping) -> Scenario:
    try:
        return Scenario(doc)
    except StratalgError as exc:
        raise ParseError(f"inconsistent scenario: {exc}") from exc


def _vector(scn: Scenario, name: str, v) -> CondVector:
    K, d = scn.space.natoms, scn.d
    arr = _num_array(v, f"vector {name}")
    if arr.shape != (K, d):
        raise ParseError(f"vector {name!r} must be a {K}x{d} array")
    if not np.isfinite(arr).all():
        raise ParseError(f"vector {name!r} must be finite")
    return CondVector(scn.space, arr)


def _set(scn: Scenario, name: str, v) -> MeasurableSet:
    K = scn.space.natoms
    arr = _num_array(v, f"set {name}")
    if arr.shape != (K,) or not np.isin(arr, (0.0, 1.0)).all():
        raise ParseError(f"set {name!r} must be a length-{K} 0/1 array")
    return MeasurableSet(scn.space, arr.astype(bool))


def _scalar(scn: Scenario, name: str, v) -> np.ndarray:
    arr = _num_array(v, f"scalar {name}")
    if arr.shape != (scn.space.natoms,):
        raise ParseError(f"scalar {name!r} must have one entry per atom")
    return arr


def _convex_set(scn: Scenario, name: str, rec) -> ConvexSetRep:
    if not isinstance(rec, dict):
        raise ParseError(f"convex set {name!r} must be an object")
    parts = {}
    for key in ("points", "rays", "lines"):
        names = rec.get(key, [])
        if not isinstance(names, list):
            raise ParseError(f"convex set {name!r}: {key} must be a name list")
        parts[key] = tuple(scn.vector(n) for n in names)
    return ConvexSetRep(scn.space, scn.d, parts["points"], parts["rays"], parts["lines"])


def _function(scn: Scenario, name: str, rec):
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


def _sequence(scn: Scenario, name: str, rec) -> CondSequence:
    if isinstance(rec, list):
        terms, bound = rec, None
    elif isinstance(rec, dict):
        terms = rec.get("terms", [])
        bound = rec.get("bound")
    else:
        raise ParseError(f"sequence {name!r} must be a name list or object")
    if not terms:
        raise ParseError(f"sequence {name!r} needs at least one term")
    return CondSequence(
        [scn.vector(n) for n in terms],
        None if bound is None else scn.scalar(bound),
    )


# section -> (the name of one entry in messages, its builder)
_SECTIONS = {
    "vectors": ("vector", _vector),
    "sets": ("set", _set),
    "scalars": ("scalar", _scalar),
    "convex_sets": ("convex set", _convex_set),
    "functions": ("function", _function),
    "sequences": ("sequence", _sequence),
}


@lru_cache(maxsize=64)
def _row_template(n: int) -> str:
    return ", ".join(["%.17g"] * n)


def _fmt(template: str, floats: tuple) -> str:
    """``template % floats``, infinities as their sentinels.

    ``%.17g`` spells infinities ``inf`` and ``-inf`` and NaN ``nan``,
    the only renderings with an ``n``; NaN raises ``ValueError``."""
    text = template % floats
    if "n" in text:
        if "nan" in text:
            raise ValueError("documents cannot contain NaN")
        text = text.replace("inf", '"+inf"').replace('-"+', '"-')
    return text


# Floats per block template: the template, the argument tuple and the
# rendered text of one chunk stay well under 1 MB.
_BLOCK_FLOATS = 1 << 15


def _fmt_rows(rows: list, n: int, indent: int) -> str:
    """Comma-joined bracketed rows of ``n`` entries each.

    The rows go in chunks of about ``_BLOCK_FLOATS`` entries.  A chunk
    whose entries are all floats renders through one ``_fmt`` with a block
    template built for it; any other chunk, with ints, bools or numpy
    scalars, renders row by row."""
    step = max(1, _BLOCK_FLOATS // n)
    row = "[" + _row_template(n) + "]"
    parts = []
    for i in range(0, len(rows), step):
        chunk = rows[i:i + step]
        flat = tuple(chain.from_iterable(chunk))
        if set(map(type, flat)) == {float}:
            parts.append(_fmt(", ".join([row] * len(chunk)), flat))
        else:
            parts.append(", ".join(_emit(e, indent) for e in chunk))
    return ", ".join(parts)


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
            return "[" + _fmt(_row_template(len(v)), tuple(v)) + "]"
        if types == {int}:
            return "[" + ", ".join(map(str, v)) + "]"
        if types == {list} and v[0] and len(set(map(len, v))) == 1:
            return "[" + _fmt_rows(v, len(v[0]), indent) + "]"
        return "[" + ", ".join(_emit(e, indent) for e in v) + "]"
    if isinstance(v, np.ndarray):
        return _emit(v.tolist(), indent)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt("%.17g", (float(v),))
    if isinstance(v, str):
        return v if isinstance(v, _Text) else json.dumps(v)
    if v is None:
        return "null"
    if isinstance(v, Mapping):  # a Document
        return _emit(dict(v), indent)
    if isinstance(v, (CondScalar, CondExtScalar, CondInteger, CondVector)):
        return _emit(v.values, indent)
    if isinstance(v, MeasurableSet):
        return _emit(v.mask.astype(int), indent)
    if isinstance(v, GridFn):
        return _emit(_grid_record(v), indent)
    raise TypeError(f"cannot emit {type(v).__name__}")


def _grid_record(f: GridFn) -> dict:
    g = f.grid
    return {"type": "grid", "mins": g.mins, "maxs": g.maxs, "steps": g.steps, "values": f.values}


class _Text(str):
    """Text that ``_emit`` writes as it stands."""


def _placed(v, atoms: np.ndarray, nblocks: int) -> _Text:
    """The per-atom value ``v`` of one row per block, with each block's row
    at every atom of the block."""
    text = _emit(v, 0)
    split = _atom_texts(text, nblocks)
    if split is None:  # rows of rows: emitting is byte-stable under re-reading
        rows = _decode(text)
        return _Text(_emit([rows[b] for b in atoms], 0))
    rows, texts = split
    return _Text(_joined(rows, [texts[b] for b in atoms], " "))


def emit_document(doc: dict, atoms: np.ndarray | None = None) -> str:
    """Render a document deterministically: sorted keys, 17-digit floats,
    library objects in the layout their readers read.

    With ``atoms``, the block of each atom, every per-atom entry (of
    ``vectors``, ``sets``, ``scalars`` and ``integers``, and a grid's
    ``values``) holds one row per block: each block's rows are written
    once and placed at every atom of the block."""
    if atoms is not None:
        nblocks = int(atoms.max()) + 1
        doc = dict(doc)
        for section in (*_PER_ATOM_SECTIONS, "integers"):
            if section in doc:
                doc[section] = {name: _placed(v, atoms, nblocks)
                                for name, v in doc[section].items()}
        if "functions" in doc:
            doc["functions"] = {
                name: {**_grid_record(f), "values": _placed(f.values, atoms, nblocks)}
                if isinstance(f, GridFn) else f for name, f in doc["functions"].items()}
    return _emit(doc, 0) + "\n"
