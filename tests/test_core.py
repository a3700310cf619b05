"""Conditional value types, gluing, and the extended arithmetic rules."""

import hashlib
import itertools
import warnings

import numpy as np
import pytest

from stratalg import (
    CondExtScalar,
    CondInteger,
    CondScalar,
    CondVector,
    MeasurableSet,
    MeasureSpace,
    PartitionError,
    ShapeError,
    SpaceMismatchError,
    ess_extrema,
    glue,
    inner_norm,
    largest_set_where,
    select_by_index,
)
from stratalg.core import _stack, ext_add, ext_mul
from stratalg.tolerances import row_scale


class TestMeasureSpace:
    def test_rejects_bad_weights(self):
        for w in ([], [1.0, 0.0], [1.0, -2.0], [np.inf], [[1.0, 2.0]]):
            with pytest.raises(ShapeError):
                MeasureSpace(np.array(w))

    def test_basic_sets(self, space3):
        assert space3.natoms == 3
        assert space3.full_set().measure == pytest.approx(3.0)
        assert space3.empty_set().is_empty
        a = space3.set_from_indices([0, 2])
        assert a.mask.tolist() == [True, False, True]
        assert a.measure == pytest.approx(0.5 + 1.5)

    def test_set_from_indices_rejects_atoms_off_the_space(self):
        # [-1] used to mark atom 1 silently and [5] to raise a bare IndexError
        space = MeasureSpace([1.0, 1.0])
        for bad in ([-1], [5], [0, 2]):
            with pytest.raises(ShapeError):
                space.set_from_indices(bad)
        assert space.set_from_indices([1]).mask.tolist() == [False, True]

    def test_equality_is_by_weights(self):
        assert MeasureSpace([1.0, 2.0]) == MeasureSpace(np.array([1.0, 2.0]))
        assert MeasureSpace([1.0, 2.0]) != MeasureSpace([1.0, 3.0])


class TestMeasurableSet:
    def test_boolean_algebra(self, space3):
        a = MeasurableSet(space3, [True, True, False])
        b = MeasurableSet(space3, [False, True, True])
        assert (a & b).mask.tolist() == [False, True, False]
        assert (a | b).is_full
        assert (~a).mask.tolist() == [False, False, True]
        assert (a - b).mask.tolist() == [True, False, False]
        assert a.contains(a & b)
        assert not b.contains(a)
        assert a.indices().tolist() == [0, 1]

    def test_space_mismatch(self, space2, space3):
        with pytest.raises(SpaceMismatchError):
            MeasurableSet(space2, [True, False]) & MeasurableSet(space3, [1, 0, 0])

    def test_mask_shape_checked(self, space3):
        with pytest.raises(ShapeError):
            MeasurableSet(space3, [True, False])


class TestCondScalar:
    def test_arithmetic_is_per_atom(self, space3, rng):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        x, y = CondScalar(space3, a), CondScalar(space3, b)
        assert np.array_equal((x + y).values, a + b)
        assert np.array_equal((x - y).values, a - b)
        assert np.array_equal((x * y).values, a * b)
        assert np.array_equal((x * 2.5).values, a * 2.5)
        assert np.array_equal((-x).values, -a)

    def test_must_be_finite(self, space3):
        with pytest.raises(ShapeError):
            CondScalar(space3, [1.0, np.inf, 0.0])
        with pytest.raises(ShapeError):
            CondScalar(space3, [1.0, np.nan, 0.0])

    def test_eq_set_and_restrict(self, space2, space3):
        x = CondScalar(space3, [1.0, 2.0, 3.0])
        y = CondScalar(space3, [1.0, 2.0 + 1e-15, 4.0])
        assert x.eq_set(y).mask.tolist() == [True, True, False]
        assert x.equal_ae(CondScalar(space3, [1.0, 2.0, 3.0]))
        # each atom's tolerance scales with its own entries only
        a, b = CondScalar(space2, [0.0, 1e6]), CondScalar(space2, [1e-7, 1e6])
        assert a.eq_set(b).mask.tolist() == [False, True]
        inf = CondExtScalar(space3, [np.inf, -np.inf, np.inf])
        assert inf.eq_set(CondExtScalar(space3, [np.inf, -np.inf, -np.inf])).mask.tolist() == [
            True, True, False]
        region = MeasurableSet(space3, [True, False, True])
        assert x.restrict(region).values.tolist() == [1.0, 0.0, 3.0]

    def test_as_extended(self, space2):
        e = CondScalar(space2, [1.0, -2.0]).as_extended()
        assert isinstance(e, CondExtScalar)
        assert e.finite_set.is_full


class TestCondExtScalar:
    def test_infinities_allowed_nan_rejected(self, space3):
        e = CondExtScalar(space3, [np.inf, -np.inf, 0.0])
        assert e.finite_set.mask.tolist() == [False, False, True]
        with pytest.raises(ShapeError):
            CondExtScalar(space3, [np.nan, 0.0, 0.0])

    def test_addition_convention(self, space2):
        a = CondExtScalar(space2, [np.inf, 1.0])
        b = CondExtScalar(space2, [-np.inf, 2.0])
        s = a + b
        assert s.values[0] == np.inf
        assert s.values[1] == 3.0
        assert (a - a).values[0] == np.inf

    def test_multiplication_convention(self, space2):
        a = CondExtScalar(space2, [np.inf, -np.inf])
        z = CondExtScalar(space2, [0.0, 0.0])
        assert np.array_equal((a * z).values, [0.0, 0.0])
        assert (a * 2.0).values.tolist() == [np.inf, -np.inf]


def test_row_scale_reads_each_atoms_finite_entries_floored_at_1():
    a = np.array([[0.5, -3.0], [0.25, np.inf], [-np.inf, 7.0]])
    b = np.array([-4.0, 0.0, 2.0])
    assert row_scale(a, b).tolist() == [4.0, 1.0, 7.0]
    assert row_scale(np.zeros((2, 0, 3))).tolist() == [1.0, 1.0]
    # K = 0 stacks, as an empty stratum of the nearest-point QP passes them
    assert row_scale(np.zeros((0, 4, 2)), np.zeros((0, 1))).shape == (0,)


def test_ext_arithmetic_tables():
    """Exhaustive check of the extended conventions on a value grid."""
    vals = [-np.inf, -1.5, 0.0, 2.0, np.inf]
    for a, b in itertools.product(vals, vals):
        s = ext_add(np.array([a]), np.array([b]))[0]
        if a == np.inf or b == np.inf:
            assert s == np.inf
        elif a == -np.inf or b == -np.inf:
            assert s == -np.inf
        else:
            assert s == a + b
        p = ext_mul(np.array([a]), np.array([b]))[0]
        if a == 0.0 or b == 0.0:
            assert p == 0.0
        else:
            assert p == a * b
        assert not np.isnan(s) and not np.isnan(p)


def ref_ext_add(a, b):
    """``ext_add`` as it was built from masks, kept as the reference."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.where((a == np.inf) | (b == np.inf), np.inf,
                   np.where((a == -np.inf) | (b == -np.inf), -np.inf, 0.0))
    finite = np.isfinite(a) & np.isfinite(b)
    return np.where(finite, np.where(finite, a, 0.0) + np.where(finite, b, 0.0), out)


def ref_ext_mul(a, b):
    """``ext_mul`` as it was built from masks, kept as the reference."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    zero = (a == 0.0) | (b == 0.0)
    return np.where(zero, 0.0, np.where(zero, 0.0, a) * np.where(zero, 1.0, b))


EXT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, np.inf, -np.inf]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # 1e308 + 1e308, both ways
def test_ext_arithmetic_matches_the_mask_reference_bit_for_bit(rng):
    a, b = (g.ravel() for g in np.meshgrid(EXT_EDGES, EXT_EDGES))  # all 100 pairs
    stacks = rng.choice(EXT_EDGES + [2.5, -3.75], size=(2, 200, 7))
    for x, y in ((a, b), tuple(stacks)):
        for op, ref in ((ext_add, ref_ext_add), (ext_mul, ref_ext_mul)):
            got = op(x, y)
            assert got.dtype == np.float64 and got.tobytes() == ref(x, y).tobytes(), op


def test_ext_arithmetic_keeps_nan():
    # the mask reference turned NaN into 0.0 under +; no conditional value holds NaN
    assert ref_ext_add(np.nan, 1.0) == 0.0
    assert np.isnan(ext_add(np.nan, 1.0)) and np.isnan(ext_add(-np.inf, np.nan))
    assert ext_add(np.nan, np.inf) == np.inf
    assert np.isnan(ext_mul(np.nan, 2.0)) and ext_mul(np.nan, 0.0) == 0.0


def test_ext_arithmetic_warns_on_overflow_only():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ext_add(np.inf, -np.inf) == np.inf and ext_add(-np.inf, np.inf) == np.inf
        assert ext_mul(0.0, np.inf) == 0.0 and ext_mul(-np.inf, -0.0) == 0.0
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert ext_add(1e308, 1e308) == np.inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert ext_mul(1e308, -1e308) == -np.inf


class TestCondInteger:
    def test_validation(self, space2):
        assert CondInteger(space2, [1, 5]).values.tolist() == [1, 5]
        assert CondInteger(space2, [2.0, 3.0]).values.dtype == np.int64
        with pytest.raises(ShapeError):
            CondInteger(space2, [0, 1])
        with pytest.raises(ShapeError):
            CondInteger(space2, [1.5, 2.0])


class TestCondVector:
    def test_inner_and_norm(self, space3, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        x, y = CondVector(space3, a), CondVector(space3, b)
        assert np.allclose(x.inner(y).values, np.einsum("kd,kd->k", a, b))
        assert np.allclose(x.norm().values, np.linalg.norm(a, axis=1))
        ip, nx = inner_norm(x, y)
        assert ip.equal_ae(x.inner(y))
        assert nx.equal_ae(x.norm())

    def test_algebra(self, space2, rng):
        a = rng.normal(size=(2, 3))
        x = CondVector(space2, a)
        c = CondScalar(space2, [2.0, -1.0])
        assert np.allclose((x * c).values, a * np.array([[2.0], [-1.0]]))
        assert np.allclose((x * 0.5).values, 0.5 * a)
        assert np.allclose((x + x - x).values, a)
        assert np.array_equal((-x).values, -a)

    def test_sum_with_a_scalar_raises_when_atoms_equal_dim(self, space2):
        # with K = d a scalar's values broadcast along each row's coordinates
        x = CondVector(space2, [[1.0, 2.0], [3.0, 4.0]])
        c = CondScalar(space2, [10.0, 20.0])
        for combine in (lambda: x + c, lambda: x - c, lambda: c + x, lambda: c - x,
                        lambda: c.as_extended() + x, lambda: c.as_extended() - x):
            with pytest.raises(ShapeError, match="same shape"):
                combine()

    def test_constructors(self, space3):
        z = CondVector.zero(space3, 2)
        assert z.values.shape == (3, 2) and not z.values.any()
        c = CondVector.constant(space3, [1.0, 2.0])
        assert np.array_equal(c.row(2), [1.0, 2.0])
        with pytest.raises(ShapeError):
            CondVector(space3, np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            CondVector(space3, np.full((3, 2), np.inf))


class TestStack:
    def test_atom_first_stack_and_empty_family(self, space3, rng):
        rows = rng.normal(size=(2, 3, 4))
        fam = [CondVector(space3, r) for r in rows]
        assert np.array_equal(_stack(fam, space3, (4,)), rows.swapaxes(0, 1))
        assert _stack([], space3, (4,)).shape == (3, 0, 4)
        assert _stack([], space3).shape == (3, 0)

    def test_members_are_checked(self, space2, space3):
        x = CondVector.zero(space3, 2)
        with pytest.raises(SpaceMismatchError):
            _stack([x, CondVector.zero(space2, 2)], space3, (2,))
        with pytest.raises(ShapeError):
            _stack([x, CondVector.zero(space3, 3)], space3, (2,))
        with pytest.raises(ShapeError):
            _stack([CondScalar.constant(space3, 0.0)], space3, (2,))


class TestGlue:
    def test_values_follow_the_partition(self, space3):
        parts = [
            MeasurableSet(space3, [True, False, False]),
            MeasurableSet(space3, [False, True, True]),
        ]
        x = CondScalar(space3, [1.0, 2.0, 3.0])
        y = CondScalar(space3, [9.0, 8.0, 7.0])
        g = glue(parts, [x, y])
        assert g.values.tolist() == [1.0, 8.0, 7.0]

    def test_partition_must_be_exact(self, space3):
        x = CondScalar.constant(space3, 0.0)
        overlap = [
            MeasurableSet(space3, [True, True, False]),
            MeasurableSet(space3, [False, True, True]),
        ]
        with pytest.raises(PartitionError):
            glue(overlap, [x, x])
        gap = [
            MeasurableSet(space3, [True, False, False]),
            MeasurableSet(space3, [False, True, False]),
        ]
        with pytest.raises(PartitionError):
            glue(gap, [x, x])

    def test_type_mixing_rejected(self, space2):
        parts = [
            MeasurableSet(space2, [True, False]),
            MeasurableSet(space2, [False, True]),
        ]
        with pytest.raises(ShapeError):
            glue(parts, [CondScalar.constant(space2, 0.0),
                         CondVector.zero(space2, 1)])

    def test_vector_glue(self, space2):
        parts = [
            MeasurableSet(space2, [True, False]),
            MeasurableSet(space2, [False, True]),
        ]
        x = CondVector(space2, [[1.0, 0.0], [1.0, 0.0]])
        y = CondVector(space2, [[0.0, 2.0], [0.0, 2.0]])
        g = glue(parts, [x, y])
        assert g.values.tolist() == [[1.0, 0.0], [0.0, 2.0]]


class TestSelectByIndex:
    def test_one_based_selection(self, space3):
        terms = [CondScalar.constant(space3, float(v)) for v in (10, 20, 30)]
        idx = CondInteger(space3, [3, 1, 2])
        assert select_by_index(terms, idx).values.tolist() == [30.0, 10.0, 20.0]

    def test_out_of_range(self, space2):
        terms = [CondScalar.constant(space2, 0.0)]
        with pytest.raises(ShapeError):
            select_by_index(terms, CondInteger(space2, [1, 2]))


class TestEssExtrema:
    def test_matches_numpy(self, space3, rng):
        rows = rng.normal(size=(5, 3))
        fam = [CondScalar(space3, r) for r in rows]
        assert np.array_equal(ess_extrema(fam, "sup").values, rows.max(axis=0))
        assert np.array_equal(ess_extrema(fam, "inf").values, rows.min(axis=0))

    def test_extended_members(self, space2):
        fam = [
            CondExtScalar(space2, [np.inf, 0.0]),
            CondExtScalar(space2, [1.0, -np.inf]),
        ]
        assert ess_extrema(fam, "sup").values.tolist() == [np.inf, 0.0]
        assert ess_extrema(fam, "inf").values.tolist() == [1.0, -np.inf]

    def test_bad_kind(self, space2):
        with pytest.raises(ShapeError):
            ess_extrema([CondScalar.constant(space2, 0.0)], "max")


class TestLargestSetWhere:
    def test_mask_form_respects_region(self, space3):
        region = MeasurableSet(space3, [True, True, False])
        got = largest_set_where(np.array([True, False, True]), region)
        assert got.mask.tolist() == [True, False, False]

    def test_callable_form(self, space3):
        region = space3.full_set()
        got = largest_set_where(lambda k: k % 2 == 0, region)
        assert got.mask.tolist() == [True, False, True]

    def test_is_maximal(self, space3):
        # every satisfying atom inside the region is included
        region = space3.full_set()
        pred = np.array([True, True, False])
        got = largest_set_where(pred, region)
        for k in range(3):
            assert got.mask[k] == pred[k]


def test_gluing_commutes_with_arithmetic(space3, rng):
    """Stability: an operation applied piecewise then glued agrees with
    the operation applied to the glued inputs."""
    parts = [
        MeasurableSet(space3, [True, False, True]),
        MeasurableSet(space3, [False, True, False]),
    ]
    for _ in range(20):
        xs = [CondScalar(space3, rng.normal(size=3)) for _ in range(2)]
        ys = [CondScalar(space3, rng.normal(size=3)) for _ in range(2)]
        glued_then_op = glue(parts, xs) * glue(parts, ys) + glue(parts, xs)
        op_then_glued = glue(parts, [x * y + x for x, y in zip(xs, ys)])
        assert glued_then_op.equal_ae(op_then_glued, tol=0.0)


def _operands():
    space = MeasureSpace(np.array([1.0, 2.0, 3.0]))
    return space, {
        "scalar": CondScalar(space, [1.5, -2.0, 0.1]),
        "ext": CondExtScalar(space, [np.inf, -0.5, 0.0]),
        "integer": CondInteger(space, [1, 2, 3]),
        "vector": CondVector(space, [[1.0, -2.0], [0.3, 4.0], [-5.0, 6.5]]),
        "number": 0.7,
    }


def _outcome(fn):
    """The result's type and a digest of its values' dtype, shape and
    bytes, or the type of the exception raised."""
    try:
        r = fn()
    except Exception as exc:
        return type(exc).__name__
    v = r.values
    return type(r).__name__, hashlib.sha256(f"{v.dtype.str}{v.shape}".encode() + v.tobytes()).hexdigest()[:12]


def operator_table():
    space, ops = _operands()
    region = MeasurableSet(space, [True, False, True])
    binary = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
    table = {}
    for (na, a), (nb, b) in itertools.product(ops.items(), repeat=2):
        if "number" not in (na, nb) or na != nb:
            for sym, fn in binary.items():
                table[sym, na, nb] = _outcome(lambda: fn(a, b))
    for name, a in ops.items():
        if name != "number":
            table["neg", name] = _outcome(lambda: -a)
        table["restrict", name] = _outcome(lambda: a.restrict(region))
    for cls in (CondScalar, CondExtScalar, CondInteger, CondVector):
        for name, c in {**ops, "row": [1.0, -2.5], "index": 2}.items():
            table["constant", cls.__name__, name] = _outcome(lambda: cls.constant(space, c))
    return table


# every operator of the value types on every pair of operands, recorded
OPERATOR_TABLE = {
    ("+", "scalar", "scalar"): ("CondScalar", "e252354c5bc5"),
    ("-", "scalar", "scalar"): ("CondScalar", "7e9aa2083e24"),
    ("*", "scalar", "scalar"): ("CondScalar", "50d987c10e3b"),
    ("+", "scalar", "ext"): "ShapeError",
    ("-", "scalar", "ext"): "ShapeError",
    ("*", "scalar", "ext"): "TypeError",
    ("+", "scalar", "integer"): ("CondScalar", "b84f6dcacc42"),
    ("-", "scalar", "integer"): ("CondScalar", "a6148c79d4ac"),
    ("*", "scalar", "integer"): "TypeError",
    ("+", "scalar", "vector"): "ShapeError",
    ("-", "scalar", "vector"): "ShapeError",
    ("*", "scalar", "vector"): ("CondVector", "58ba0d198f8b"),
    ("+", "scalar", "number"): "AttributeError",
    ("-", "scalar", "number"): "AttributeError",
    ("*", "scalar", "number"): ("CondScalar", "8ae5a9874f61"),
    ("+", "ext", "scalar"): ("CondExtScalar", "6746a22748b7"),
    ("-", "ext", "scalar"): ("CondExtScalar", "453706f604ad"),
    ("*", "ext", "scalar"): "TypeError",
    ("+", "ext", "ext"): ("CondExtScalar", "350cac0e5da0"),
    ("-", "ext", "ext"): ("CondExtScalar", "f251c7de1093"),
    ("*", "ext", "ext"): ("CondExtScalar", "52905e1cbd55"),
    ("+", "ext", "integer"): ("CondExtScalar", "da77cd197d13"),
    ("-", "ext", "integer"): "TypeError",
    ("*", "ext", "integer"): "TypeError",
    ("+", "ext", "vector"): "ShapeError",
    ("-", "ext", "vector"): "ShapeError",
    ("*", "ext", "vector"): "TypeError",
    ("+", "ext", "number"): "AttributeError",
    ("-", "ext", "number"): "AttributeError",
    ("*", "ext", "number"): ("CondExtScalar", "b83582105cc8"),
    ("+", "integer", "scalar"): "TypeError",
    ("-", "integer", "scalar"): "TypeError",
    ("*", "integer", "scalar"): "TypeError",
    ("+", "integer", "ext"): "TypeError",
    ("-", "integer", "ext"): "TypeError",
    ("*", "integer", "ext"): "TypeError",
    ("+", "integer", "integer"): "TypeError",
    ("-", "integer", "integer"): "TypeError",
    ("*", "integer", "integer"): "TypeError",
    ("+", "integer", "vector"): "TypeError",
    ("-", "integer", "vector"): "TypeError",
    ("*", "integer", "vector"): "TypeError",
    ("+", "integer", "number"): "TypeError",
    ("-", "integer", "number"): "TypeError",
    ("*", "integer", "number"): "TypeError",
    ("+", "vector", "scalar"): "ShapeError",
    ("-", "vector", "scalar"): "ShapeError",
    ("*", "vector", "scalar"): ("CondVector", "58ba0d198f8b"),
    ("+", "vector", "ext"): "ShapeError",
    ("-", "vector", "ext"): "ShapeError",
    ("*", "vector", "ext"): "TypeError",
    ("+", "vector", "integer"): "ShapeError",
    ("-", "vector", "integer"): "ShapeError",
    ("*", "vector", "integer"): "TypeError",
    ("+", "vector", "vector"): ("CondVector", "0f57bdfca9d8"),
    ("-", "vector", "vector"): ("CondVector", "127818f3f4e1"),
    ("*", "vector", "vector"): "TypeError",
    ("+", "vector", "number"): "AttributeError",
    ("-", "vector", "number"): "AttributeError",
    ("*", "vector", "number"): ("CondVector", "93b25dfe89d4"),
    ("+", "number", "scalar"): "TypeError",
    ("-", "number", "scalar"): "TypeError",
    ("*", "number", "scalar"): ("CondScalar", "8ae5a9874f61"),
    ("+", "number", "ext"): "TypeError",
    ("-", "number", "ext"): "TypeError",
    ("*", "number", "ext"): ("CondExtScalar", "b83582105cc8"),
    ("+", "number", "integer"): "TypeError",
    ("-", "number", "integer"): "TypeError",
    ("*", "number", "integer"): "TypeError",
    ("+", "number", "vector"): "TypeError",
    ("-", "number", "vector"): "TypeError",
    ("*", "number", "vector"): ("CondVector", "93b25dfe89d4"),
    ("neg", "scalar"): ("CondScalar", "6dd816cc71db"),
    ("restrict", "scalar"): ("CondScalar", "c251a931f2a0"),
    ("neg", "ext"): ("CondExtScalar", "a1e1bd27dc5e"),
    ("restrict", "ext"): "AttributeError",
    ("neg", "integer"): "TypeError",
    ("restrict", "integer"): "AttributeError",
    ("neg", "vector"): ("CondVector", "5d1145114288"),
    ("restrict", "vector"): ("CondVector", "1e945cf0ab10"),
    ("restrict", "number"): "AttributeError",
    ("constant", "CondScalar", "scalar"): "TypeError",
    ("constant", "CondScalar", "ext"): "TypeError",
    ("constant", "CondScalar", "integer"): "TypeError",
    ("constant", "CondScalar", "vector"): "TypeError",
    ("constant", "CondScalar", "number"): ("CondScalar", "f0648c9c8404"),
    ("constant", "CondScalar", "row"): "TypeError",
    ("constant", "CondScalar", "index"): ("CondScalar", "a37aeb9ec4c0"),
    ("constant", "CondExtScalar", "scalar"): "TypeError",
    ("constant", "CondExtScalar", "ext"): "TypeError",
    ("constant", "CondExtScalar", "integer"): "TypeError",
    ("constant", "CondExtScalar", "vector"): "TypeError",
    ("constant", "CondExtScalar", "number"): ("CondExtScalar", "f0648c9c8404"),
    ("constant", "CondExtScalar", "row"): "TypeError",
    ("constant", "CondExtScalar", "index"): ("CondExtScalar", "a37aeb9ec4c0"),
    ("constant", "CondInteger", "scalar"): "TypeError",
    ("constant", "CondInteger", "ext"): "TypeError",
    ("constant", "CondInteger", "integer"): "TypeError",
    ("constant", "CondInteger", "vector"): "TypeError",
    ("constant", "CondInteger", "number"): "ShapeError",
    ("constant", "CondInteger", "row"): "TypeError",
    ("constant", "CondInteger", "index"): ("CondInteger", "ac15a47c8676"),
    ("constant", "CondVector", "scalar"): "TypeError",
    ("constant", "CondVector", "ext"): "TypeError",
    ("constant", "CondVector", "integer"): "TypeError",
    ("constant", "CondVector", "vector"): "TypeError",
    ("constant", "CondVector", "number"): ("CondVector", "ba6a37ede928"),
    ("constant", "CondVector", "row"): ("CondVector", "834f2036fdaa"),
    ("constant", "CondVector", "index"): ("CondVector", "e31315ae7468"),
}


def test_operator_table():
    assert operator_table() == OPERATOR_TABLE
