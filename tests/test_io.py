"""The interchange layer's fast paths against the routines they replaced.

``emit_document`` formats a list of plain floats or ints in one join and
``_num_array`` converts a list, or a list of equal rows, in one numpy
call.  ``load_document`` indexes the text and ``Scenario`` builds each
entry on first access.  The references below are the per-entry routines
and the whole-document reader (``json.loads`` and a build of every entry)
they replaced, kept here as they were: on seeded documents, edge-case
layouts and every benchmark workload scenario the emitted bytes, the
built entries and the parse error messages must be the same.
"""

import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest

from ops import same_bits
from test_cli import scenario_doc

from stratalg.core import CondScalar, CondVector, MeasurableSet, MeasureSpace
from stratalg import io as stratalg_io
from stratalg.errors import StratalgError
from stratalg.functions import Grid, GridFn, MaxAffineFn
from stratalg.io import (
    ParseError,
    _num_array,
    build_scenario,
    emit_document,
    load_document,
)
from stratalg.sequences import CondSequence
from stratalg.sets import ConvexSetRep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ref_number(v, where: str) -> float:
    if v == "+inf":
        return np.inf
    if v == "-inf":
        return -np.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{where}: expected a number, got {v!r}")
    return float(v)


def ref_num_array(v, where: str) -> np.ndarray:
    if not isinstance(v, list):
        raise ParseError(f"{where}: expected an array")
    if any(isinstance(e, list) for e in v):
        rows = [ref_num_array(e, where) for e in v]
        try:
            return np.array(rows)
        except ValueError as exc:
            raise ParseError(f"{where}: ragged array") from exc
    return np.array([ref_number(e, where) for e in v])


def ref_fmt_number(x: float) -> str:
    if np.isnan(x):
        raise ValueError("documents cannot contain NaN")
    if np.isposinf(x):
        return '"+inf"'
    if np.isneginf(x):
        return '"-inf"'
    return "%.17g" % x


def ref_emit(v, indent: int) -> str:
    pad = "  " * indent
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {ref_emit(v[k], indent + 1)}'
            for k in sorted(v)
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(ref_emit(e, indent) for e in v) + "]"
    if isinstance(v, np.ndarray):
        return ref_emit(v.tolist(), indent)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return ref_fmt_number(float(v))
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    raise TypeError(f"cannot emit {type(v).__name__}")


SPECIAL_FLOATS = [np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0, -3.0, 1e16, 1e-5]
SPECIAL_INTS = [0, -1, 2**53, 2**53 + 1, -(2**63), 2**64 + 3, 10**30]


def rand_float(rng) -> float:
    if rng.random() < 0.3:
        return SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]
    if rng.random() < 0.2:
        return float(rng.integers(-1000, 1000))
    return float(rng.standard_normal() * 10.0 ** rng.integers(-320, 300))


def rand_int(rng) -> int:
    if rng.random() < 0.3:
        return SPECIAL_INTS[rng.integers(len(SPECIAL_INTS))]
    return int(rng.integers(-(2**62), 2**62))


def rand_leaf(rng):
    kind = rng.integers(9)
    if kind == 0:
        return [rand_float(rng) for _ in range(rng.integers(0, 6))]
    if kind == 1:
        return [rand_int(rng) for _ in range(rng.integers(0, 6))]
    if kind == 2:  # a K x d block, as vectors are stored
        return [[rand_float(rng) for _ in range(3)] for _ in range(rng.integers(0, 4))]
    if kind == 3:  # mixed entries, including numpy scalars and tokens
        pool = [rand_float(rng), rand_int(rng), True, None, "+inf", "name",
                np.float64(rand_float(rng)), np.int64(rand_int(rng) % 2**62), np.bool_(False)]
        return [pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 6))]
    if kind == 4:
        shape = tuple(rng.integers(0, 4, size=rng.integers(1, 3)))
        return np.array([rand_float(rng) for _ in range(int(np.prod(shape)))]).reshape(shape)
    if kind == 5:
        return rng.integers(-5, 5, size=rng.integers(0, 5))
    if kind == 6:
        return tuple(rand_float(rng) for _ in range(rng.integers(0, 4)))
    if kind == 7:
        return [np.float64(rand_float(rng)), np.int64(3), np.bool_(True), False][rng.integers(4)]
    return [rand_float(rng), rand_int(rng), "text", None, [], [[]]][rng.integers(6)]


def rand_doc(rng, depth: int = 0) -> dict:
    doc = {}
    for _ in range(rng.integers(0, 5)):
        key = f"k{rng.integers(100)}"
        if depth < 2 and rng.random() < 0.3:
            doc[key] = rand_doc(rng, depth + 1)
        else:
            doc[key] = rand_leaf(rng)
    return doc


@pytest.mark.parametrize("seed", range(40))
def test_emit_matches_reference(seed):
    rng = np.random.default_rng([11, seed])
    doc = rand_doc(rng)
    assert emit_document(doc) == ref_emit(doc, 0) + "\n"


def long_rows(rng, k: int, n: int) -> np.ndarray:
    """``k`` rows of ``n`` floats with ``+-inf``, ``+-0.0`` and extremes
    scattered through them, as grid function documents hold."""
    rows = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-300, 300, size=(k, n))
    special = rng.random((k, n)) < 0.1
    rows[special] = rng.choice(SPECIAL_FLOATS, size=int(special.sum()))
    return rows


@pytest.mark.parametrize("n", [1, 2, 7, 201, 2401])
def test_emit_of_long_rows_matches_reference(n):
    rng = np.random.default_rng([13, n])
    rows = long_rows(rng, 4, n)
    rows[0, :3] = [np.inf, -np.inf, np.inf][:n]  # sentinels at a row's start
    rows[1, -1] = -np.inf  # and at its end
    doc = {"values": rows, "row": rows[2].tolist(), "mixed": [rows[3].tolist(), list(rows[3, :1])]}
    assert emit_document(doc) == ref_emit(doc, 0) + "\n"


@pytest.mark.parametrize("seed", range(24))
def test_emit_of_row_blocks_matches_reference(seed, monkeypatch):
    # a list of equal-length float rows renders through one template per
    # chunk of rows, infinities included; small chunks make one block span
    # several, and anything but floats takes the row path
    block = [1, 7, 64, 1 << 15][seed % 4]
    monkeypatch.setattr(stratalg_io, "_BLOCK_FLOATS", block)
    rng = np.random.default_rng([15, seed])
    K, n = int(rng.integers(1, 40)), int(rng.integers(1, 6))
    rows = rng.normal(size=(K, n)) * 10.0 ** rng.integers(-300, 300, size=(K, n))
    finite = rows.tolist()
    step = max(1, block // n)  # rows per chunk
    edges, flipped = [r[:] for r in finite], [r[:] for r in finite]
    for i in range(0, K, step):  # infinities first and last in every chunk
        last = min(i + step, K) - 1
        edges[i][0], edges[last][-1] = np.inf, -np.inf
        flipped[i][0], flipped[last][-1] = -np.inf, np.inf
    one_neg_inf = [r[:] for r in finite]
    one_neg_inf[K // 2][n // 2] = -np.inf
    doc = {
        "finite": finite,
        "signed_zeros": np.where(rng.random((K, n)) < 0.3, -0.0, rows),
        "specials": long_rows(rng, K, n).tolist(),  # +-inf, +-0.0, extremes
        "one_column": rows[:, :1].tolist(),
        "empty_rows": [[] for _ in range(K)],
        "an_empty_row": finite[:1] + [[]] + finite[1:],
        "ragged": finite + [finite[0] + [1.5]],
        "ints": finite + [list(range(n))],
        "numpy_floats": finite + [[np.float64(x) for x in finite[0]]],
        "bools": finite + [[True] * n],
        "nested": [[finite[:2]] for _ in range(3)],
        "overflowing_sum": [[1.7976931348623157e308] * n for _ in range(K + 1)],
        "chunk_edges": edges,
        "chunk_edges_flipped": flipped,
        "one_neg_inf": one_neg_inf,
    }
    assert emit_document(doc) == ref_emit(doc, 0) + "\n"
    # a NaN beside the +inf that opens the first chunk still raises
    size = min(step, K) * n
    if size > 1:
        with_nan = [r[:] for r in edges]
        with_nan[size // 2 // n][size // 2 % n] = float("nan")
        with pytest.raises(ValueError) as ref:
            ref_emit({"v": with_nan}, 0)
        with pytest.raises(ValueError) as got:
            emit_document({"v": with_nan})
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize(
    "value",
    [
        [1.0, float("nan")],
        [[0.0, 1.0], [float("nan"), 2.0]],
        np.array([np.inf, np.nan]),
        np.float64("nan"),
        float("nan"),
        [1, float("nan")],
        np.where(np.arange(2401) == 1700, np.nan, np.arange(2401.0)),  # deep in a long row
        np.where(np.arange(201) == 0, np.nan, np.inf),  # among infinities
        np.where(np.arange(4000).reshape(2000, 2) == 3001, np.nan, 1.0),  # deep in a row block
        [[np.inf, 1.0], [2.0, -np.inf], [float("nan"), -0.0]],  # in a block, among infinities
    ],
)
def test_emit_rejects_nan_as_reference(value):
    with pytest.raises(ValueError) as ref:
        ref_emit({"v": value}, 0)
    with pytest.raises(ValueError) as got:
        emit_document({"v": value})
    assert str(got.value) == str(ref.value)


def rand_entry(rng):
    r = rng.random()
    if r < 0.1:
        return ["+inf", "-inf"][rng.integers(2)]
    if r < 0.4:
        return rand_int(rng)
    return rand_float(rng)


@pytest.mark.parametrize("seed", range(40))
def test_parse_matches_reference(seed):
    rng = np.random.default_rng([12, seed])
    K, d = int(rng.integers(0, 5)), int(rng.integers(0, 4))
    flat = [rand_entry(rng) for _ in range(K)]
    block = [[rand_entry(rng) for _ in range(d)] for _ in range(K)]
    cube = [[[rand_entry(rng) for _ in range(2)] for _ in range(d)] for _ in range(K)]
    for v in (flat, block, cube, [], [[]], [np.float64(0.5), 2], json.loads(json.dumps(block))):
        assert same_bits(_num_array(v, "x"), ref_num_array(v, "x"))


MALFORMED = [
    [1.0, True],
    [[1.0, 2.0], [False, 3.0]],
    [1.0, "1.5"],
    [[1.0, "inf"], [2.0, 3.0]],
    ["nan"],
    [None],
    [[1.0, None]],
    [[1.0, 2.0], [3.0]],
    [[1.0], [2.0, "+inf"], []],
    [[1.0, 2.0], 3.0],
    [4.0, [1.0]],
    ["-inf", [1.0]],
    [[[1.0], [2.0]], [[1.0, 2.0]]],
    [{"a": 1.0}],
    (1.0, 2.0),
    "1.0",
    None,
    [[1.0, True], [2.0]],
]


@pytest.mark.parametrize("value", MALFORMED, ids=range(len(MALFORMED)))
def test_parse_errors_match_reference(value):
    with pytest.raises(ParseError) as ref:
        ref_num_array(value, "vector v")
    with pytest.raises(ParseError) as got:
        _num_array(value, "vector v")
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("value", [[10**400], [[1.0, 2.0], [3.0, -(10**400)]],
                                   [10**400, "x"], [[2**1024 - 1]]])
def test_parse_out_of_range_integer(value):
    with pytest.raises(ParseError, match="vector v: number out of range"):
        _num_array(value, "vector v")


# -- the whole-document reader, kept as it was ----------------------------------


def ref_load(text: str) -> dict:
    try:  # -0 is the emitter's spelling of -0.0, and reads back as -0.0
        doc = json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))
    except ValueError as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario must be a JSON object")
    return doc


@dataclass
class RefScenario:
    space: MeasureSpace
    d: int
    vectors: dict = field(default_factory=dict)
    sets: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    convex_sets: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    sequences: dict = field(default_factory=dict)

    def vector(self, name):
        if name not in self.vectors:
            raise ParseError(f"unknown vector {name!r}")
        return self.vectors[name]

    def scalar(self, name):
        if name not in self.scalars:
            raise ParseError(f"unknown scalar {name!r}")
        arr = self.scalars[name]
        if not np.isfinite(arr).all():
            raise ParseError(f"scalar {name!r} must be finite here")
        return CondScalar(self.space, arr)

    def convex_set(self, name):
        if name not in self.convex_sets:
            raise ParseError(f"unknown convex set {name!r}")
        return self.convex_sets[name]


def ref_build(doc: dict) -> RefScenario:
    try:
        return _ref_build(doc)
    except StratalgError as exc:
        raise ParseError(f"inconsistent scenario: {exc}") from exc


def _ref_named(doc, section):
    sec = doc.get(section, {})
    if not isinstance(sec, dict):
        raise ParseError(f"'{section}' must be an object of named entries")
    return sec


def _ref_build(doc: dict) -> RefScenario:
    if "weights" not in doc or "d" not in doc:
        raise ParseError("scenario needs 'weights' and 'd'")
    weights = _num_array(doc["weights"], "weights")
    if weights.ndim != 1 or len(weights) == 0 or np.any(weights <= 0):
        raise ParseError("weights must be a nonempty array of positives")
    if not isinstance(doc["d"], int) or isinstance(doc["d"], bool) or doc["d"] < 1:
        raise ParseError("'d' must be a positive integer")
    space = MeasureSpace(weights)
    d = doc["d"]
    scn = RefScenario(space=space, d=d)
    K = space.natoms
    for name, v in _ref_named(doc, "vectors").items():
        arr = _num_array(v, f"vector {name}")
        if arr.shape != (K, d):
            raise ParseError(f"vector {name!r} must be a {K}x{d} array")
        if not np.isfinite(arr).all():
            raise ParseError(f"vector {name!r} must be finite")
        scn.vectors[name] = CondVector(space, arr)
    for name, v in _ref_named(doc, "sets").items():
        arr = _num_array(v, f"set {name}")
        if arr.shape != (K,) or not np.isin(arr, (0.0, 1.0)).all():
            raise ParseError(f"set {name!r} must be a length-{K} 0/1 array")
        scn.sets[name] = MeasurableSet(space, arr.astype(bool))
    for name, v in _ref_named(doc, "scalars").items():
        arr = _num_array(v, f"scalar {name}")
        if arr.shape != (K,):
            raise ParseError(f"scalar {name!r} must have one entry per atom")
        scn.scalars[name] = arr
    for name, rec in _ref_named(doc, "convex_sets").items():
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
    for name, rec in _ref_named(doc, "functions").items():
        scn.functions[name] = _ref_function(scn, name, rec)
    for name, rec in _ref_named(doc, "sequences").items():
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


def _ref_function(scn, name, rec):
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


# -- the indexed reader against it ----------------------------------------------

SECTIONS = ("vectors", "sets", "scalars", "convex_sets", "functions", "sequences")


def fingerprint(obj):
    """A comparable rendering of a built entry: every array by its bytes."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return tuple(map(fingerprint, obj))
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__,
                tuple((k, fingerprint(v)) for k, v in sorted(vars(obj).items())))
    return repr(obj)


def ref_read(text: str):
    """("ok", header, entries) or ("error", message) from the reference reader."""
    try:
        scn = ref_build(ref_load(text))
    except ParseError as exc:
        return ("error", str(exc))
    entries = {(s, n): fingerprint(e) for s in SECTIONS for n, e in getattr(scn, s).items()}
    return ("ok", fingerprint((scn.space, scn.d)), entries)


def new_read(text: str, tmp_path, names=None):
    """The same through ``load_document`` and on-access building.

    Every entry is read, section by section in document order, as the
    reference builds them, so the first failing entry is the reference's
    first; with ``names``, only those ``(section, name)`` pairs are read.
    """
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    try:
        doc = load_document(str(path))
        scn = build_scenario(doc)
        if names is None:
            names = [(s, n) for s in SECTIONS for n in doc.get(s, {})]
        entries = {key: fingerprint(scn._get(*key)) for key in names}
    except ParseError as exc:
        return ("error", str(exc))
    return ("ok", fingerprint((scn.space, scn.d)), entries)


def compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def reversed_keys(v):
    if isinstance(v, dict):
        return {k: reversed_keys(v[k]) for k in reversed(list(v))}
    return v


LAYOUTS = {
    "emitted": emit_document,
    "compact": compact,
    "indent-2": lambda doc: json.dumps(doc, indent=2),
    "tabs-and-crlf": lambda doc: json.dumps(doc, indent="\t").replace("\n", "\r\n") + "\r\n",
    "reversed-keys": lambda doc: json.dumps(reversed_keys(doc)),
    "spaced": lambda doc: json.dumps(doc, separators=(" , ", " : "), indent=1),
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_layouts_and_key_order_read_as_the_reference(layout, tmp_path):
    text = LAYOUTS[layout](scenario_doc())
    want = ref_read(text)
    assert want[0] == "ok" and len(want[2]) == 34
    assert new_read(text, tmp_path) == want


def test_duplicate_keys_keep_the_last_value(tmp_path):
    text = emit_document(scenario_doc())
    # a duplicate entry, a duplicate section and a duplicate header key
    text = text.replace('"vectors": {', '"vectors": {"e1": [[9.0, 9.0], [9.0, 9.0]], "z": 1,', 1)
    text = '{"scalars": {"zero": "gone"}, "d": 7, ' + text[1:]
    assert json.loads(text)["vectors"]["e1"] == [[1.0, 0.0], [1.0, 0.0]]
    want = ref_read(text)
    assert want[0] == "ok"
    assert new_read(text, tmp_path) == want


def test_escaped_and_non_ascii_names(tmp_path):
    doc = scenario_doc()
    odd = ['a"b', "é", "[x]{", "}\\", "☃ ,:", "tab\there"]
    for i, name in enumerate(odd):
        doc["vectors"][name] = [[0.1 * i, 0.5], [0.5, -0.1 * i]]
    doc["convex_sets"]["odd"] = {"points": odd[:3], "rays": odd[3:]}
    doc["sequences"][']"['] = {"terms": odd, "bound": "sbound"}
    for text in (emit_document(doc), json.dumps(doc, ensure_ascii=False), compact(doc)):
        want = ref_read(text)
        assert want[0] == "ok" and ("convex_sets", "odd") in want[2]
        assert new_read(text, tmp_path) == want


@pytest.mark.parametrize("value", ["{}", "[]", "[1]", '"x"', "3", "null"])
def test_empty_sections_and_sections_of_the_wrong_type(value, tmp_path):
    for section in SECTIONS:
        doc = scenario_doc()
        doc[section] = "@"
        text = emit_document(doc).replace('"@"', value)
        want = ref_read(text)
        if value == "{}":  # fine, unless another section names its entries
            assert (want[0] == "ok") == (section not in ("vectors", "scalars"))
        else:
            assert want == ("error", f"'{section}' must be an object of named entries")
        got = new_read(text, tmp_path)
        assert got == want
        if value != "{}":  # the section type is checked before any entry is read
            assert new_read(text, tmp_path, names=[]) == want


@pytest.mark.parametrize("text", [
    "", "   ", "[1, 2]", '"scenario"', "null", "3", "﻿{}", "{} x", "{}{}", "{},",
    '{"weights": [1.0], "d": 1} ]', '{"weights": [1.0], "d": 1}\n\n\t',
    '{"weights": [1.0], "d": 1, }', '{"weights": [1.0], "d": 1,, "x": 2}',
    '{"weights" [1.0], "d": 1}', '{weights: [1.0], "d": 1}', '{"weights": [1.0] "d": 1}',
    '{"weights": [1.0], "d": 1, "vectors": {"v": [[1.0]] "w": 2}}',
    '{"weights": [1.0], "d": 1, "vectors": {"v": [[1.0]]], "w": 2}}',
    '{"weights": [1.0], "d": 1, "vectors": {"v": [[1.0}]}}',
    '{"weights": [1.0], "d": 1, "vectors": {"v": "unterminated}}',
    '{"weights": [1.0], "d": 1, "vectors": {"v\\q": [[1.0]]}}',
    '{"weights": [1.0], "d": 1, "vectors": {"v": [[[[[[1.0]]]]]]}}',
])
def test_malformed_structure_reads_as_the_reference(text, tmp_path):
    assert new_read(text, tmp_path) == ref_read(text)


def test_truncated_files_read_as_the_reference(tmp_path):
    text = emit_document(scenario_doc())
    for cut in list(range(0, 40)) + list(range(40, len(text) - 1, 23)):
        want = ref_read(text[:cut])
        assert want[0] == "error"
        assert new_read(text[:cut], tmp_path) == want, cut


@pytest.mark.parametrize("digits, message", [
    (401, "vector big: number out of range"),
    (5000, "scenario is not valid JSON: Exceeds the limit"),
])
def test_oversized_literal_in_a_read_entry(digits, message, tmp_path):
    doc = scenario_doc()
    doc["vectors"]["big"] = [[0.0, 12345.0], [0.0, 0.0]]
    text = emit_document(doc).replace("12345", "9" * digits)
    want = ref_read(text)
    assert want[0] == "error" and want[1].startswith(message)
    assert new_read(text, tmp_path, names=[("vectors", "big")]) == want
    # unread, the literal costs nothing: every other entry reads as it did
    others = [(s, n) for s in SECTIONS for n in doc[s] if n != "big"]
    got = new_read(text, tmp_path, names=others)
    want = ref_read(emit_document(scenario_doc()))
    assert got == want


def workload_texts():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for name, w in workloads.WORKLOADS.items():
        ids, weights = workloads.pick_templates(w, 1, w.K)
        doc = workloads.scenario_document(w, workloads.make_pool(w), ids, weights)
        yield name, json.dumps(doc, separators=(",", ":"))


def test_every_workload_scenario_reads_as_the_reference(tmp_path):
    for name, text in workload_texts():
        want = ref_read(text)
        assert want[0] == "ok", name
        assert new_read(text, tmp_path) == want, name


# -- the quotient scenario and the placed emission --------------------------------


def repeat_atoms(doc, src, weights):
    """``doc`` with atom ``j`` the source atom ``src[j]``."""
    out = json.loads(json.dumps(doc))
    out["weights"] = weights
    for section in ("vectors", "sets", "scalars"):
        out[section] = {n: [rows[j] for j in src] for n, rows in doc[section].items()}
    for rec in out["functions"].values():
        if rec["type"] == "grid":
            rec["values"] = [rec["values"][j] for j in src]
    return out


def every_name(doc):
    return [n for s in SECTIONS for n in doc[s]]


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_quotient_builds_the_first_atom_of_each_block(layout, tmp_path):
    # the two atoms of scenario_doc differ in x0 and A; four copies of them
    doc = scenario_doc()
    text = LAYOUTS[layout](repeat_atoms(doc, [0, 1, 1, 0], [1.0, 2.0, 3.0, 4.0]))
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    quo = build_scenario(load_document(str(path))).quotient(every_name(doc))
    if layout in ("indent-2", "tabs-and-crlf", "spaced"):  # rows over several lines
        assert quo is None
        return
    assert quo.atoms.tolist() == [0, 1, 1, 0]
    assert quo.weights.tolist() == [1.0, 2.0, 3.0, 4.0]
    # the quotient's entries are those of the first two atoms, weights included
    want = ref_read(emit_document(doc))
    assert new_read(emit_document(doc), tmp_path) == want
    assert ("ok", fingerprint((quo.space, quo.d)),
            {key: fingerprint(quo._get(*key)) for key in want[2]}) == want


def test_quotient_holds_only_the_entries_reached(tmp_path):
    # the two atoms of scenario_doc differ in x0 and A alone
    path = tmp_path / "doc.json"
    path.write_text(emit_document(scenario_doc()), encoding="utf-8")
    scn = build_scenario(load_document(str(path)))
    quo = scn.quotient(["argmin", "absmax", "box", None, 3])
    assert quo.atoms.tolist() == [0, 0]
    for key in [("functions", "absmax"), ("convex_sets", "box"), ("vectors", "e1"),
                ("vectors", "b4"), ("scalars", "zero")]:
        quo._get(*key)
    for key in [("vectors", "x0"), ("vectors", "far"), ("functions", "gabs"), ("sets", "A")]:
        with pytest.raises(ParseError, match="unknown"):
            quo._get(*key)
    assert scn.quotient(["absmax", "x0"]) is None


@pytest.mark.parametrize("edit", [
    # a bracket inside a string, rows of rows, a comma inside a scalar's
    # text and a record whose structure breaks inside it
    ('"e1": [[1, 0], [1, 0], [1, 0], [1, 0]]', '"e1": [["[", 0], ["[", 0], ["[", 0], ["[", 0]]'),
    ('"e1": [[1, 0], [1, 0], [1, 0], [1, 0]]',
     '"e1": [[[1], [0]], [[1], [0]], [[1], [0]], [[1], [0]]]'),
    ('"zero": [0, 0, 0, 0]', '"zero": [0, 1,2, 0, 1,2]'),
    ('"type": "max_affine"', '"type" "max_affine"'),
], ids=["bracket", "rows-of-rows", "comma", "broken-record"])
def test_quotient_declines_layouts_it_does_not_split(edit, tmp_path):
    path = tmp_path / "doc.json"
    text = emit_document(repeat_atoms(scenario_doc(), [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0]))
    path.write_text(text, encoding="utf-8")
    assert build_scenario(load_document(str(path))).quotient(["absmax"]) is not None
    assert edit[0] in text
    path.write_text(text.replace(*edit), encoding="utf-8")
    assert build_scenario(load_document(str(path))).quotient(["absmax"]) is None


def test_quotient_of_an_unindexed_document():
    doc = scenario_doc()
    assert build_scenario(doc).quotient(every_name(doc)) is None


def test_emit_places_each_block_row_at_its_atoms():
    # three blocks on five atoms; a grid on two axes has rows of rows
    rng = np.random.default_rng(7)
    space, full = MeasureSpace([1.0, 2.0, 3.0]), MeasureSpace(np.ones(5))
    atoms = np.array([2, 0, 0, 1, 2])
    grids = [Grid((0.0, 0.0), (1.0, 1.0), (1.0, 0.5)), Grid((0.0,), (1.0,), (0.5,))]
    fs = {f"g{i}": GridFn(space, g, rng.normal(size=(3, *g.shape))) for i, g in enumerate(grids)}
    v, x = rng.normal(size=(3, 2)), np.array([0.5, -0.0, np.inf])
    mask, n = np.array([1, 0, 1]), np.array([3, -1, 0])
    doc = {
        "weights": np.arange(1.0, 6.0), "d": 2, "certificates": {"count": 4},
        "vectors": {"v": CondVector(space, v), "empty": np.zeros((3, 0))},
        "sets": {"s": MeasurableSet(space, mask.astype(bool))},
        "scalars": {"x": x},
        "integers": {"n": n},
        "functions": fs,
    }
    want = {
        **doc,
        "vectors": {"v": v[atoms], "empty": np.zeros((5, 0))},
        "sets": {"s": mask[atoms]},
        "scalars": {"x": x[atoms]},
        "integers": {"n": n[atoms]},
        "functions": {name: GridFn(full, f.grid, f.values[atoms]) for name, f in fs.items()},
    }
    assert emit_document(doc, atoms) == emit_document(want)
