"""Finite-horizon subsequence extraction and Cauchy verdicts.

Expected index sets for the fixed instances were derived with the
pure-loop scans in ``oracles`` and frozen here.
"""

import numpy as np
import pytest

import oracles
from ops import same_bits

from stratalg import (
    CondScalar,
    CondSequence,
    CondVector,
    ExtractionStalledError,
    MeasurableSet,
    MeasureSpace,
    PreconditionError,
    ShapeError,
    bw_extract,
    cauchy_limit,
    glue,
)


def seq_from_array(space, data):
    """data: (T, natoms, dim) -> CondSequence"""
    return CondSequence([CondVector(space, row) for row in data])


def const_seq(space, per_term):
    """per_term: list of rows shared by every atom."""
    data = np.array([[row] * space.natoms for row in np.atleast_2d(per_term)])
    return seq_from_array(space, data.reshape(len(per_term), space.natoms, -1))


class TestCondSequence:
    def test_basics(self, space2):
        s = const_seq(space2, [[0.0], [1.0], [2.0]])
        assert s.horizon == 3
        assert s.dim == 1
        assert s.values.shape == (2, 3, 1)

    def test_bound_must_dominate(self, space2):
        terms = [CondVector.constant(space2, [3.0, 4.0])]
        CondSequence(terms, bound=CondScalar.constant(space2, 5.0))
        with pytest.raises(ShapeError):
            CondSequence(terms, bound=CondScalar.constant(space2, 4.0))

    def test_shape_checks(self, space2, space3):
        with pytest.raises(ShapeError):
            CondSequence([])
        with pytest.raises(ShapeError):
            CondSequence([CondVector.zero(space2, 1), CondVector.zero(space2, 2)])
        from stratalg import SpaceMismatchError

        with pytest.raises(SpaceMismatchError):
            CondSequence([CondVector.zero(space2, 1), CondVector.zero(space3, 1)])


class TestBWExtract:
    def test_alternating_signs(self, space2):
        vals = [[(-1.0) ** t] for t in range(1, 11)]
        s = const_seq(space2, vals)
        res = bw_extract(s, depth=5, slack=0.0)
        got = [int(i.values[0]) for i in res.indices]
        assert got == [1, 3, 5, 7, 9]
        assert np.allclose(res.limit.values, -1.0)
        assert np.allclose(res.stage_liminfs.values, -1.0)

    def test_per_atom_selection(self, space2):
        # atom 0 alternates, atom 1 is constant
        data = np.zeros((6, 2, 1))
        data[:, 0, 0] = [(-1.0) ** t for t in range(1, 7)]
        data[:, 1, 0] = 4.0
        s = seq_from_array(space2, data)
        res = bw_extract(s, depth=3, slack=0.0)
        rows = np.array([i.values for i in res.indices])
        assert rows[:, 0].tolist() == [1, 3, 5]
        assert rows[:, 1].tolist() == [1, 2, 3]
        assert res.limit.values[0, 0] == -1.0
        assert res.limit.values[1, 0] == 4.0

    def test_two_coordinate_staging(self, space2):
        # stage one keeps even positions, stage two orders among them
        T = 8
        data = np.zeros((T, 2, 2))
        for t in range(1, T + 1):
            data[t - 1, :, 0] = t % 2  # minimal on even t
            data[t - 1, :, 1] = -t if t % 2 == 0 else 100.0
        s = seq_from_array(space2, data)
        res = bw_extract(s, depth=1, slack=0.0)
        # even positions survive stage 1; stage 2 minimum is t = 8
        assert [int(i.values[0]) for i in res.indices] == [8]
        want, lims = oracles.bw_stages(data[:, 0, :], 1, 0.0)
        assert want == [8]
        assert np.allclose(res.stage_liminfs.values[0], lims)

    def test_matches_classical_scan(self, rng):
        space = MeasureSpace(np.ones(3))
        for _ in range(25):
            T, d = int(rng.integers(4, 30)), int(rng.integers(1, 4))
            depth = int(rng.integers(1, 4))
            slack = float(rng.choice([0.0, 0.1, 0.5, 2.0]))
            data = rng.normal(size=(T, 3, d))
            s = seq_from_array(space, data)
            wants = [oracles.bw_stages(data[:, k, :], depth, slack) for k in range(3)]
            if any(w[0] is None for w in wants):
                with pytest.raises(ExtractionStalledError) as err:
                    bw_extract(s, depth=depth, slack=slack)
                stalled = [w[0] is None for w in wants]
                assert err.value.atoms.tolist() == stalled
                continue
            res = bw_extract(s, depth=depth, slack=slack)
            got = np.array([i.values for i in res.indices])  # (depth, K)
            for k in range(3):
                assert got[:, k].tolist() == wants[k][0]
                assert np.allclose(res.stage_liminfs.values[k], wants[k][1])

    def test_indices_strictly_increase(self, rng):
        space = MeasureSpace(np.ones(2))
        data = rng.normal(size=(40, 2, 2))
        s = seq_from_array(space, data)
        res = bw_extract(s, depth=4, slack=3.0)
        rows = np.array([i.values for i in res.indices])
        assert np.all(np.diff(rows, axis=0) > 0)

    def test_limit_is_selected_term(self, rng):
        space = MeasureSpace(np.ones(2))
        data = rng.normal(size=(20, 2, 2))
        s = seq_from_array(space, data)
        res = bw_extract(s, depth=3, slack=5.0)
        last = res.indices[-1].values
        for k in range(2):
            assert np.array_equal(res.limit.values[k], data[last[k] - 1, k])

    def test_selected_values_stay_within_slack(self, rng):
        space = MeasureSpace(np.ones(2))
        data = rng.normal(size=(60, 2, 2))
        s = seq_from_array(space, data)
        slack = 2.5
        res = bw_extract(s, depth=2, slack=slack)
        rows = np.array([i.values for i in res.indices])
        for k in range(2):
            for t in rows[:, k]:
                term = data[t - 1, k]
                assert np.all(term <= res.stage_liminfs.values[k] + slack + 1e-12)

    def test_stall_reports_exact_atoms(self, space2):
        data = np.zeros((5, 2, 1))
        data[:, 0, 0] = [3.0, 1.0, 2.0, 4.0, 5.0]  # unique minimum: stalls at depth 2
        data[:, 1, 0] = 1.0  # constant: plenty of survivors
        s = seq_from_array(space2, data)
        with pytest.raises(ExtractionStalledError) as err:
            bw_extract(s, depth=2, slack=0.0)
        assert err.value.atoms.tolist() == [True, False]
        res = bw_extract(s, depth=1, slack=0.0)
        assert [int(i.values[0]) for i in res.indices] == [2]

    @pytest.mark.parametrize("slack", [np.nan, np.inf, -1.0])
    def test_rejects_slack_outside_finite_nonnegatives(self, space2, slack):
        # NaN passed a bare ``slack < 0`` check and ended in a bogus stall
        s = const_seq(space2, [[0.0], [1.0], [2.0]])
        with pytest.raises(ShapeError, match="slack"):
            bw_extract(s, depth=2, slack=slack)

    def test_deeper_extraction_extends_the_shallow_one(self, rng):
        space = MeasureSpace(np.ones(2))
        head = rng.normal(size=(10, 2, 2))
        # a settled tail at the coordinatewise minimum survives every stage
        tail = head.min(axis=0, keepdims=True) - 0.1
        data = np.concatenate([head, np.repeat(tail, 15, axis=0)])
        s = seq_from_array(space, data)
        shallow = bw_extract(s, depth=3, slack=0.5)
        deep = bw_extract(s, depth=5, slack=0.5)
        for j in range(3):
            assert np.array_equal(shallow.indices[j].values, deep.indices[j].values)

    def test_gluing_commutes(self, space2, rng):
        data_a = rng.normal(size=(12, 2, 2))
        data_b = rng.normal(size=(12, 2, 2))
        parts = [MeasurableSet(space2, [True, False]), MeasurableSet(space2, [False, True])]
        glued = np.where(np.array([[True], [False]])[None, :, :], data_a, data_b)
        res_glued = bw_extract(seq_from_array(space2, glued), depth=2, slack=2.0)
        res_a = bw_extract(seq_from_array(space2, data_a), depth=2, slack=2.0)
        res_b = bw_extract(seq_from_array(space2, data_b), depth=2, slack=2.0)
        for j in range(2):
            want = glue(parts, [res_a.indices[j], res_b.indices[j]])
            assert np.array_equal(res_glued.indices[j].values, want.values)

    def test_parameter_validation(self, space2):
        s = const_seq(space2, [[0.0], [1.0]])
        with pytest.raises(ShapeError):
            bw_extract(s, depth=0, slack=0.0)
        with pytest.raises(ShapeError):
            bw_extract(s, depth=1, slack=-0.1)


def ref_bw_extract(data, depth, slack):
    """The per-atom staged selection, kept as the reference.

    ``data`` is (T, K, d).  A stage's minimum is read at the first
    surviving position attaining it, as Python's ``min`` reads it.
    Returns the 1-based picks (K, depth), the liminfs (K, d) and the
    stall mask.
    """
    T, K, d = data.shape
    picked = np.zeros((K, depth), dtype=np.int64)
    liminfs = np.zeros((K, d))
    stalled = np.zeros(K, dtype=bool)
    for k in range(K):
        pool = np.arange(T)
        for i in range(d):
            vals = data[pool, k, i]
            lo = vals[vals.argmin()]
            liminfs[k, i] = lo
            pool = pool[vals <= lo + slack]
        if len(pool) < depth:
            stalled[k] = True
            continue
        picked[k] = pool[:depth] + 1
    return picked, liminfs, stalled


class TestBWExtractMatchesReference:
    """The selection stacked over atoms gives the per-atom loop's bits."""

    def test_bit_identical(self):
        rng = np.random.default_rng(1211)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5])
        seen = {"stall": 0, "full_depth": 0, "signed_zero_liminf": 0}
        for case in range(300):
            T, K, d = int(rng.integers(1, 13)), int(rng.integers(1, 20)), int(rng.integers(1, 4))
            data = rng.choice(pool, (T, K, d))
            if case % 3 == 0:
                data = np.where(rng.random(data.shape) < 0.5, data, rng.normal(size=data.shape))
            depth = T if case % 5 == 0 else int(rng.integers(1, T + 1))
            slack = float(rng.choice([0.0, 0.0, 0.25, 0.5, 1.0]))
            picked, liminfs, stalled = ref_bw_extract(data, depth, slack)
            seq = seq_from_array(MeasureSpace(np.ones(K)), data)
            if stalled.any():
                with pytest.raises(ExtractionStalledError) as err:
                    bw_extract(seq, depth, slack)
                assert same_bits(err.value.atoms, stalled)
                seen["stall"] += 1
                continue
            res = bw_extract(seq, depth, slack)
            assert same_bits(np.stack([i.values for i in res.indices], axis=1), picked)
            assert same_bits(res.stage_liminfs.values, liminfs)
            assert same_bits(res.limit.values, data[picked[:, -1] - 1, np.arange(K)])
            seen["full_depth"] += depth == T
            seen["signed_zero_liminf"] += bool(np.any((liminfs == 0) & np.signbit(liminfs)))
        assert min(seen.values()) > 10, seen


_TIE_SCRIPT = """
import hashlib
import numpy as np
from stratalg import CondSequence, CondVector, MeasureSpace, bw_extract
space = MeasureSpace(np.ones(64))
for seed in range(8):
    data = np.random.default_rng(seed).choice([0.0, -0.0, 1.0, 2.0], (40, 64, 2))
    res = bw_extract(CondSequence([CondVector(space, t) for t in data]), 1, 0.0)
    print(hashlib.sha256(res.stage_liminfs.values.tobytes()).hexdigest())
"""


class TestBWTiePortability:
    """A tie of ``0.0`` and ``-0.0`` at a stage minimum resolves by position,
    so the liminf bytes do not depend on numpy's SIMD dispatch level."""

    def test_liminf_bytes_do_not_depend_on_dispatch(self, both_dispatch_levels):
        default, reduced = both_dispatch_levels(_TIE_SCRIPT)
        assert default == reduced


class TestCauchyLimit:
    def test_constant_sequence(self, space2):
        s = const_seq(space2, [[1.0, 2.0]] * 5)
        res = cauchy_limit(s, [CondScalar.constant(space2, 0.5)])
        assert res.cauchy_on.is_full
        assert res.cuts[0].tolist() == [1, 1]
        assert np.allclose(res.tail_diameters[0], 0.0)
        assert np.allclose(res.limit.values, [[1.0, 2.0]] * 2)

    def test_alternating_fails_small_epsilon(self, space2):
        vals = [[(-1.0) ** t] for t in range(10)]
        s = const_seq(space2, vals)
        res = cauchy_limit(s, [CondScalar.constant(space2, 0.5)])
        assert res.cauchy_on.is_empty
        assert res.cuts[0].tolist() == [0, 0]
        assert np.all(np.isposinf(res.tail_diameters[0]))
        # the singleton tail at the horizon never counts as evidence
        tight = cauchy_limit(s, [CondScalar.constant(space2, 1.9)])
        assert tight.cauchy_on.is_empty
        wide = cauchy_limit(s, [CondScalar.constant(space2, 3.0)])
        assert wide.cauchy_on.is_full
        assert wide.cuts[0].tolist() == [1, 1]

    def test_harmonic_decay_cut(self, space2):
        vals = [[1.0 / t] for t in range(1, 101)]
        s = const_seq(space2, vals)
        res = cauchy_limit(s, [CondScalar.constant(space2, 0.1)])
        want, diam = oracles.cauchy_cut(np.array(vals), 0.1)
        assert want == 10  # tail 1/10 - 1/100 < 0.1; one step earlier fails
        assert res.cuts[0].tolist() == [want, want]
        assert np.allclose(res.tail_diameters[0], diam)

    def test_matches_oracle_on_random_data(self, rng):
        space = MeasureSpace(np.ones(2))
        for _ in range(15):
            T = int(rng.integers(3, 15))
            data = rng.normal(size=(T, 2, 2)) * rng.uniform(0.2, 2.0)
            s = seq_from_array(space, data)
            eps = float(rng.uniform(0.3, 3.0))
            res = cauchy_limit(s, [CondScalar.constant(space, eps)])
            for k in range(2):
                cut, diam = oracles.cauchy_cut(data[:, k, :], eps)
                assert res.cuts[0][k] == cut
                if cut:
                    assert res.tail_diameters[0][k] == pytest.approx(diam)

    def test_schedule_and_per_atom_verdicts(self, space2):
        data = np.zeros((20, 2, 1))
        data[:, 0, 0] = 1.0 / np.arange(1, 21)  # settles
        data[:, 1, 0] = [(-1.0) ** t for t in range(20)]  # oscillates
        s = seq_from_array(space2, data)
        schedule = [CondScalar.constant(space2, e) for e in (3.0, 0.2)]
        res = cauchy_limit(s, schedule)
        assert res.cauchy_on.mask.tolist() == [True, False]
        assert len(res.cuts) == 2
        # tighter epsilon never cuts earlier
        assert res.cuts[1][0] >= res.cuts[0][0]
        # the oscillating atom passes the loose epsilon only
        assert res.cuts[0][1] > 0 and res.cuts[1][1] == 0

    def test_epsilons_must_be_positive(self, space2):
        s = const_seq(space2, [[0.0], [0.0]])
        with pytest.raises(PreconditionError) as err:
            cauchy_limit(s, [CondScalar(space2, [0.5, 0.0])])
        assert err.value.atoms.tolist() == [False, True]

    def test_epsilon_error_names_every_atom_of_the_schedule(self, space2):
        # each epsilon is bad on a different atom: one error names both
        s = const_seq(space2, [[0.0], [0.0]])
        with pytest.raises(PreconditionError) as err:
            cauchy_limit(s, [CondScalar(space2, [0.0, 1.0]), CondScalar(space2, [1.0, -1.0])])
        assert err.value.atoms.tolist() == [True, True]


def _ref_cauchy_limit(data, eps_rows):
    """The per-atom tail-diameter scan, kept as the reference.

    ``data`` is (T, K, d), ``eps_rows`` a list of (K,) epsilons.  Returns
    the cuts, the tail diameters and the passing mask.
    """
    T, K, _ = data.shape
    tail_diam = np.zeros((T, K))
    for k in range(K):
        rows = data[:, k, :]
        dists = np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=2)
        running = 0.0
        for n in range(T - 2, -1, -1):
            running = max(running, float(dists[n, n + 1:].max()))
            tail_diam[n, k] = running
    cuts, diams = [], []
    passing = np.ones(K, dtype=bool)
    for eps in eps_rows:
        cut = np.zeros(K, dtype=np.int64)
        dia = np.full(K, np.inf)
        for k in range(K):
            ok = np.flatnonzero(tail_diam[: T - 1, k] <= eps[k])
            if len(ok):
                cut[k] = ok[0] + 1
                dia[k] = tail_diam[ok[0], k]
        passing &= cut > 0
        cuts.append(cut)
        diams.append(dia)
    return cuts, diams, passing, tail_diam


class TestCauchyLimitMatchesReference:
    """The scan stacked over atoms gives the per-atom loop's bits."""

    def test_bit_identical(self):
        rng = np.random.default_rng(4242)
        horizons = set()
        for case in range(120):
            T = int(rng.integers(1, 3)) if case < 20 else int(rng.integers(1, 21))
            K, d = int(rng.integers(1, 31)), int(rng.integers(1, 6))
            data = rng.normal(size=(T, K, d)) * 10.0 ** rng.integers(-6, 7, size=(1, K, 1))
            if rng.random() < 0.3:
                data = np.round(data)
            for k in range(K):
                if T > 1 and rng.random() < 0.4:
                    # a constant tail from a random position on
                    t0 = int(rng.integers(T))
                    data[t0:, k] = data[t0, k]
            space = MeasureSpace(np.ones(K))
            seq = seq_from_array(space, data)
            _, _, _, tail = _ref_cauchy_limit(data, [])
            eps_rows = [rng.uniform(0.01, 3.0, K) * 10.0 ** rng.integers(-6, 7, K)
                        for _ in range(int(rng.integers(1, 4)))]
            if T > 1:
                # epsilon exactly equal to an achieved tail diameter
                hit = tail[rng.integers(T - 1, size=K), np.arange(K)]
                eps_rows.append(np.where(hit > 0, hit, 1.0))
            cuts, diams, passing, _ = _ref_cauchy_limit(data, eps_rows)
            res = cauchy_limit(seq, [CondScalar(space, e) for e in eps_rows])
            assert same_bits(res.cauchy_on.mask, passing)
            assert len(res.cuts) == len(cuts)
            for got, want in zip(res.cuts, cuts):
                assert same_bits(got, want)
            for got, want in zip(res.tail_diameters, diams):
                assert same_bits(got, want)
            horizons.add(T)
        assert {1, 2} <= horizons

    def test_epsilon_equal_to_the_tail_diameter_cuts_there(self, space2):
        s = const_seq(space2, [[0.0], [3.0], [1.0], [1.5], [1.5]])
        res = cauchy_limit(s, [CondScalar.constant(space2, 0.5)])
        assert res.cuts[0].tolist() == [3, 3]
        assert res.tail_diameters[0].tolist() == [0.5, 0.5]

    def test_short_horizons(self, space2):
        one = const_seq(space2, [[1.0]])
        res = cauchy_limit(one, [CondScalar.constant(space2, 1.0)])
        assert res.cuts[0].tolist() == [0, 0] and res.cauchy_on.is_empty
        two = const_seq(space2, [[1.0], [1.25]])
        res = cauchy_limit(two, [CondScalar(space2, [0.25, 0.2])])
        assert res.cuts[0].tolist() == [1, 0]
        assert res.tail_diameters[0].tolist() == [0.25, np.inf]
