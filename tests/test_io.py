"""The interchange layer's whole-array paths against per-entry references.

``emit_document`` formats a list of plain floats or ints in one join and
``_num_array`` converts a list, or a list of equal rows, in one numpy
call.  The references below are the per-entry routines they replaced,
kept here as they were: on seeded documents the emitted bytes, the parsed
arrays and the parse error messages must be the same.
"""

import json

import numpy as np
import pytest

from stratalg.io import ParseError, _num_array, emit_document


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


@pytest.mark.parametrize(
    "value",
    [
        [1.0, float("nan")],
        [[0.0, 1.0], [float("nan"), 2.0]],
        np.array([np.inf, np.nan]),
        np.float64("nan"),
        float("nan"),
        [1, float("nan")],
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


def same_array(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(40))
def test_parse_matches_reference(seed):
    rng = np.random.default_rng([12, seed])
    K, d = int(rng.integers(0, 5)), int(rng.integers(0, 4))
    flat = [rand_entry(rng) for _ in range(K)]
    block = [[rand_entry(rng) for _ in range(d)] for _ in range(K)]
    cube = [[[rand_entry(rng) for _ in range(2)] for _ in range(d)] for _ in range(K)]
    for v in (flat, block, cube, [], [[]], [np.float64(0.5), 2], json.loads(json.dumps(block))):
        assert same_array(_num_array(v, "x"), ref_num_array(v, "x"))


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
