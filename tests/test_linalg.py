"""Rank stratification, adapted frames, and linear-map extension."""

import numpy as np
import pytest

import oracles
from ops import same_bits

from stratalg import (
    CondLinearMap,
    CondScalar,
    CondVector,
    MeasurableSet,
    MeasureSpace,
    OrthonormalFrame,
    PreconditionError,
    ShapeError,
    StratifiedBasis,
    decompose,
    extend_linear,
    hyperplane_normal_form,
    linear_map_norm,
    orthonormalize,
    rank_partition,
)
from stratalg.linalg import _grow_frames
from stratalg.tolerances import RANK_TOL


def random_generators(rng, K, d, m, integers=False):
    gens = []
    space = MeasureSpace(rng.uniform(0.5, 2.0, size=K))
    for _ in range(m):
        if integers:
            vals = rng.integers(-3, 4, size=(K, d)).astype(float)
        else:
            vals = rng.normal(size=(K, d))
        # plant degeneracies: zero some rows, duplicate others
        for k in range(K):
            r = rng.random()
            if r < 0.25:
                vals[k] = 0.0
            elif r < 0.45 and gens:
                vals[k] = gens[rng.integers(len(gens))].values[k] * rng.normal()
        gens.append(CondVector(space, vals))
    return space, gens


class TestRankPartition:
    def test_zero_generator_has_rank_zero(self, space2):
        basis = rank_partition([CondVector.zero(space2, 3)])
        assert basis.labels.tolist() == [0, 0]
        assert basis.vectors == ()
        assert basis.top_rank == 0
        assert basis.stratum(0).is_full
        assert basis.reach(1).is_empty

    def test_labels_match_elimination_rank(self, rng):
        for _ in range(40):
            K = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            space, gens = random_generators(rng, K, d, m, integers=bool(rng.integers(2)))
            basis = rank_partition(gens)
            for k in range(K):
                rows = np.array([g.values[k] for g in gens])
                assert basis.labels[k] == oracles.ge_rank(rows, 1e-9)

    def test_lowest_index_pick(self, space2):
        g0 = CondVector(space2, [[0.0, 0.0], [1.0, 0.0]])
        g1 = CondVector(space2, [[0.0, 1.0], [0.0, 1.0]])
        basis = rank_partition([g0, g1])
        assert basis.labels.tolist() == [1, 2]
        assert basis.picks[0].tolist() == [1, 0]
        assert basis.picks[1].tolist() == [0, 1]
        assert np.array_equal(basis.vectors[0].values, [[0.0, 1.0], [1.0, 0.0]])

    def test_spans_every_generator(self, rng):
        space, gens = random_generators(rng, 4, 4, 5)
        basis = rank_partition(gens)
        frame = orthonormalize(basis)
        for g in gens:
            y, z = decompose(g, frame)
            assert np.all(z.norm().values <= 1e-9 * np.maximum(1.0, g.norm().values))

    def test_input_validation(self, space2, space3):
        with pytest.raises(ShapeError):
            rank_partition([])
        with pytest.raises(ShapeError):
            rank_partition([CondVector.zero(space2, 2), CondVector.zero(space2, 3)])


class TestOrthonormalize:
    def test_frame_quality(self, rng):
        for _ in range(25):
            K, d, m = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
            space, gens = random_generators(rng, K, d, m)
            frame = orthonormalize(rank_partition(gens))
            assert np.all(frame.gram_defect().values <= 1e-10)
            for k in range(K):
                r = int(frame.labels[k])
                grows = np.array([g.values[k] for g in gens])
                angle = oracles.max_principal_angle(
                    oracles.span_basis(grows), frame.rows[k, :r, :].T
                )
                assert angle < 1e-10

    def test_sign_canonicalization(self, rng):
        space, gens = random_generators(rng, 3, 4, 3)
        frame = orthonormalize(rank_partition(gens))
        for k in range(3):
            for row in frame.rows[k]:
                nz = row[np.abs(row) > 1e-12]
                assert nz.size == 0 or nz[0] > 0

    def test_canonical_under_scaling(self, rng):
        space, gens = random_generators(rng, 3, 3, 3)
        scaled = [g * CondScalar(space, rng.uniform(0.5, 2.0, size=3)) for g in gens]
        f1 = orthonormalize(rank_partition(gens))
        f2 = orthonormalize(rank_partition(scaled))
        assert np.allclose(f1.rows, f2.rows, atol=1e-9)

    def test_complement_frame(self, rng):
        space, gens = random_generators(rng, 4, 4, 2)
        frame = orthonormalize(rank_partition(gens))
        comp = frame.complement()
        assert np.array_equal(comp.labels, frame.dim - frame.labels)
        assert np.all(comp.gram_defect().values <= 1e-10)
        for k in range(4):
            r = int(frame.labels[k])
            # complement rows must be orthogonal to the submodule rows
            cross = comp.rows[k, : frame.dim - r, :] @ frame.rows[k, :r, :].T
            assert np.abs(cross).max() < 1e-10 if cross.size else True

    def test_rejects_broken_basis(self, space3):
        # the label claims rank 2, but the rows are parallel on atoms 0 and 2
        v = CondVector(space3, [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        w = CondVector(space3, [[2.0, 0.0], [0.0, 1.0], [-3.0, 0.0]])
        fake = StratifiedBasis(
            space=space3,
            dim=2,
            labels=np.array([2, 2, 2]),
            vectors=(v, w),
            picks=np.zeros((2, 3), dtype=np.int64),
            generators=(v, w),
        )
        with pytest.raises(PreconditionError) as err:
            orthonormalize(fake)
        assert err.value.atoms.tolist() == [True, False, True]


class TestDecompose:
    def test_exact_splitting(self, rng):
        space, gens = random_generators(rng, 4, 5, 3)
        frame = orthonormalize(rank_partition(gens))
        x = CondVector(space, rng.normal(size=(4, 5)))
        y, z = decompose(x, frame)
        assert np.allclose((y + z).values, x.values, atol=1e-12)
        assert np.abs(np.einsum("kd,kd->k", y.values, z.values)).max() < 1e-9

    def test_matches_least_squares_projection(self, rng):
        space, gens = random_generators(rng, 3, 4, 3)
        frame = orthonormalize(rank_partition(gens))
        x = CondVector(space, rng.normal(size=(3, 4)))
        y, _ = decompose(x, frame)
        for k in range(3):
            grows = np.array([g.values[k] for g in gens])
            proj = oracles.lstsq_project(x.values[k], grows)
            assert np.allclose(y.values[k], proj, atol=1e-9)

    def test_remainder_is_minimal(self, rng):
        space, gens = random_generators(rng, 3, 4, 3)
        frame = orthonormalize(rank_partition(gens))
        x = CondVector(space, rng.normal(size=(3, 4)))
        _, z = decompose(x, frame)
        for _ in range(50):
            coeffs = rng.normal(size=(len(gens), 3))
            v = np.einsum("mk,mkd->kd", coeffs, np.stack([g.values for g in gens]))
            assert np.all(z.norm().values <= np.linalg.norm(x.values - v, axis=1) + 1e-12)


class TestLinearMap:
    def test_norm_matches_svd(self, rng):
        mats = rng.normal(size=(3, 4, 5))
        space = MeasureSpace(np.ones(3))
        f = CondLinearMap(space, mats)
        s = np.linalg.svd(mats, compute_uv=False)[:, 0]
        assert np.allclose(linear_map_norm(f).values, s, atol=1e-12)
        assert np.allclose(f.norm().values, s, atol=1e-12)

    def test_apply(self, rng, space3):
        mats = rng.normal(size=(3, 2, 4))
        f = CondLinearMap(space3, mats)
        x = CondVector(space3, rng.normal(size=(3, 4)))
        got = f.apply(x)
        want = np.einsum("kmd,kd->km", mats, x.values)
        assert np.allclose(got.values, want)
        with pytest.raises(ShapeError):
            f.apply(CondVector.zero(space3, 3))

    def test_mats_are_a_read_only_copy(self, rng, space3):
        mats = rng.normal(size=(3, 2, 4))
        f = CondLinearMap(space3, mats)
        kept = mats.copy()
        mats[0, 0, 0] = np.nan
        assert f.mats.tobytes() == kept.tobytes()
        with pytest.raises(ValueError):
            f.mats[0, 0, 0] = np.nan


def test_basis_and_frame_keep_read_only_copies(rng):
    space, gens = random_generators(rng, 3, 2, 2)
    basis = rank_partition(gens)
    lab, picks = basis.labels.copy(), basis.picks.copy()
    sb = StratifiedBasis(space, 2, lab, basis.vectors, picks, basis.generators)
    frame = orthonormalize(sb)
    flab, rows = frame.labels.copy(), frame.rows.copy()
    of = OrthonormalFrame(space, 2, flab, rows)
    kept = [a.tobytes() for a in (sb.labels, sb.picks, of.labels, of.rows)]
    # a later write into the caller's arrays reaches no object
    lab[0], picks[...], flab[0], rows[...] = 5, 7, 5, np.nan
    assert not sb.stratum(5).mask.any() and of.complement().labels.min() >= 0
    for a, want in zip((sb.labels, sb.picks, of.labels, of.rows), kept):
        assert a.tobytes() == want
        with pytest.raises(ValueError):
            a[...] = 0
    for a in (basis.labels, basis.picks, frame.labels, frame.rows):
        assert not a.flags.writeable


class TestExtendLinear:
    def test_agrees_on_submodule_and_kills_complement(self, rng):
        space, gens = random_generators(rng, 4, 4, 2)
        frame = orthonormalize(rank_partition(gens))
        top = int(frame.labels.max())
        images = []
        for i in range(top):
            vals = rng.normal(size=(4, 3))
            vals[frame.labels <= i] = 0.0
            images.append(CondVector(space, vals))
        F = extend_linear(frame, images)
        for i in range(top):
            got = F.apply(frame.vector(i))
            live = frame.labels > i
            assert np.allclose(got.values[live], images[i].values[live], atol=1e-9)
        for i in range(frame.dim):
            got = F.apply(frame.vector(i))
            dead = frame.labels <= i
            assert np.abs(got.values[dead]).max() < 1e-9 if dead.any() else True

    def test_norm_is_preserved(self, rng):
        # the extension is the map composed with an orthogonal projection
        space, gens = random_generators(rng, 3, 4, 3)
        frame = orthonormalize(rank_partition(gens))
        top = int(frame.labels.max())
        images = []
        for i in range(top):
            vals = rng.normal(size=(3, 2))
            vals[frame.labels <= i] = 0.0
            images.append(CondVector(space, vals))
        F = extend_linear(frame, images)
        for k in range(3):
            r = int(frame.labels[k])
            restricted = np.array([images[i].values[k] for i in range(r)])
            want = (
                np.linalg.svd(restricted, compute_uv=False)[0]
                if restricted.size
                else 0.0
            )
            assert F.norm().values[k] == pytest.approx(want, abs=1e-9)

    def test_missing_and_extra_images_rejected(self, space2):
        g0 = CondVector(space2, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        g1 = CondVector(space2, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        frame = orthonormalize(rank_partition([g0, g1]))
        assert frame.labels.tolist() == [2, 1]
        with pytest.raises(ShapeError):
            extend_linear(frame, [])
        # atom 0 has rank 2, so one image leaves a direction unspecified
        one = [CondVector.constant(space2, np.ones(2))]
        with pytest.raises(PreconditionError) as err:
            extend_linear(frame, one)
        assert err.value.atoms.tolist() == [True, False]
        # atom 1 has rank 1: a nonzero second image there is meaningless
        img0 = CondVector.constant(space2, np.ones(2))
        img1 = CondVector.constant(space2, np.ones(2))
        with pytest.raises(PreconditionError) as err:
            extend_linear(frame, [img0, img1])
        assert err.value.atoms.tolist() == [False, True]
        # both at once: one image, with rank 2 on atom 0 and rank 0 on atom 1
        g0 = CondVector(space2, [[1.0, 0.0], [0.0, 0.0]])
        g1 = CondVector(space2, [[0.0, 1.0], [0.0, 0.0]])
        frame = orthonormalize(rank_partition([g0, g1]))
        assert frame.labels.tolist() == [2, 0]
        with pytest.raises(PreconditionError, match="unspecified") as err:
            extend_linear(frame, [CondVector(space2, [[1.0], [5.0]])])
        assert err.value.atoms.tolist() == [True, True]

    def test_more_images_than_frame_vectors_rejected(self, space2):
        # three images for a frame of two vectors used to raise a bare
        # IndexError from reading frame vector 2
        g0 = CondVector(space2, [[1.0, 0.0], [0.0, 1.0]])
        frame = orthonormalize(rank_partition([g0]))
        zero = CondVector.zero(space2, 1)
        a = CondVector(space2, [[2.0], [3.0]])
        with pytest.raises(ShapeError):
            extend_linear(frame, [a, zero, zero])
        assert extend_linear(frame, [a, zero]).mats.shape == (2, 1, 2)


class TestHyperplaneNormalForm:
    def test_frame_describes_the_plane(self, rng):
        space = MeasureSpace(rng.uniform(0.5, 2.0, size=3))
        z = CondVector(space, rng.normal(size=(3, 4)))
        v = CondScalar(space, rng.normal(size=3))
        x0, frame = hyperplane_normal_form(z, v)
        assert np.allclose(x0.inner(z).values, v.values, atol=1e-9)
        assert np.array_equal(frame.labels, np.full(3, 3))
        assert np.all(frame.gram_defect().values <= 1e-10)
        for k in range(3):
            u = z.values[k] / np.linalg.norm(z.values[k])
            # direction rows orthogonal to the normal, last row aligned
            assert np.abs(frame.rows[k, :3, :] @ u).max() < 1e-10
            assert np.allclose(frame.rows[k, 3], u, atol=1e-12)
        # points of the plane are x0 plus direction combinations
        for _ in range(10):
            c = rng.normal(size=(3, 3))
            pt = x0.values + np.einsum("ki,kid->kd", c, frame.rows[:, :3, :])
            assert np.allclose(
                np.einsum("kd,kd->k", pt, z.values), v.values, atol=1e-8
            )

    def test_region_masking(self, space2):
        z = CondVector(space2, [[1.0, 0.0], [0.0, 0.0]])
        v = CondScalar(space2, [2.0, 5.0])
        region = MeasurableSet(space2, [True, False])
        x0, frame = hyperplane_normal_form(z, v, region=region)
        assert np.allclose(x0.values[0], [2.0, 0.0])
        assert not x0.values[1].any()
        assert np.array_equal(frame.rows[1], np.eye(2))

    def test_zero_normal_rejected(self, space2):
        z = CondVector(space2, [[1.0, 0.0], [0.0, 0.0]])
        v = CondScalar.constant(space2, 1.0)
        with pytest.raises(PreconditionError) as err:
            hyperplane_normal_form(z, v)
        assert err.value.atoms.tolist() == [False, True]


# -- the earlier hand-written Gram-Schmidt loops, kept as references --------


def _ref_project_out(v, basis_rows):
    resid = v.astype(float).copy()
    for _ in range(2):
        for u in basis_rows:
            resid -= (resid @ u) * u
    return resid


def _ref_sign(row):
    scale = max(1.0, float(np.max(np.abs(row)))) if row.size else 1.0
    for x in row:
        if abs(x) > 1e-9 * scale:
            return row if x > 0 else -row
    return row


def grow_one(rows, eps=RANK_TOL):
    """``_grow_frames`` on one atom (K = 1): the accepted frame rows."""
    R = np.atleast_2d(np.asarray(rows, dtype=float))[None]
    F, c = np.zeros((1, R.shape[2], R.shape[2])), np.zeros(1, dtype=np.int64)
    _grow_frames(R, F, c, eps)
    return F[0, : c[0]]


def _ref_gram_schmidt_rows(rows, eps):
    basis = []
    for r in rows:
        r = np.asarray(r, dtype=float)
        resid = _ref_project_out(r, basis)
        nr = np.linalg.norm(resid)
        if nr > eps * max(1.0, np.linalg.norm(r)):
            basis.append(resid / nr)
    return np.array(basis) if basis else np.zeros((0, len(rows[0]) if len(rows) else 0))


def _ref_rank_partition(G, rank_tol):
    """Stratum by stratum, rescanning every generator from index 0."""
    m, K, d = G.shape
    labels = np.zeros(K, dtype=np.int64)
    accepted = [[] for _ in range(K)]
    vec_rows, pick_rows = [], []
    for step in range(min(m, d)):
        rows = np.zeros((K, d))
        picks = np.zeros(K, dtype=np.int64)
        advanced = False
        for k in range(K):
            rows[k] = G[0, k]
            if labels[k] != step:
                continue
            for j in range(m):
                g = G[j, k]
                resid = _ref_project_out(g, accepted[k])
                nr = np.linalg.norm(resid)
                if nr > rank_tol * max(1.0, np.linalg.norm(g)):
                    labels[k] = step + 1
                    accepted[k].append(resid / nr)
                    rows[k] = g
                    picks[k] = j
                    advanced = True
                    break
        if not advanced:
            break
        vec_rows.append(rows)
        pick_rows.append(picks)
    picks = np.array(pick_rows, dtype=np.int64) if pick_rows else np.zeros((0, K), dtype=np.int64)
    return labels, picks, vec_rows


def _ref_orthonormalize(vectors, labels, d, rank_tol):
    """Frame rows per atom, or the mask of dependent atoms."""
    K = len(labels)
    rows = np.zeros((K, d, d))
    eye = np.eye(d)
    dependent = np.zeros(K, dtype=bool)
    for k in range(K):
        frame = []
        for i in range(int(labels[k])):
            v = vectors[i][k]
            resid = _ref_project_out(v, frame)
            nr = np.linalg.norm(resid)
            if nr <= rank_tol * max(1.0, np.linalg.norm(v)):
                dependent[k] = True
                break
            frame.append(resid / nr)
        if dependent[k]:
            continue
        for ax in range(d):
            if len(frame) == d:
                break
            resid = _ref_project_out(eye[ax], frame)
            nr = np.linalg.norm(resid)
            if nr > rank_tol:
                frame.append(resid / nr)
        rows[k] = np.array([_ref_sign(u) for u in frame])
    return dependent if dependent.any() else rows


def _ref_hyperplane(z, v, region, rank_tol):
    K, d = z.shape
    norms = np.linalg.norm(z, axis=1)
    rows = np.tile(np.eye(d)[None, :, :], (K, 1, 1))
    x0 = np.zeros((K, d))
    eye = np.eye(d)
    for k in range(K):
        if not region[k]:
            continue
        u = z[k] / norms[k]
        frame = []
        for ax in range(d):
            if len(frame) == d - 1:
                break
            resid = _ref_project_out(eye[ax], [u] + frame)
            nr = np.linalg.norm(resid)
            if nr > rank_tol:
                frame.append(resid / nr)
        rows[k] = np.vstack([_ref_sign(w) for w in frame] + [u])
        x0[k] = (v[k] / norms[k] ** 2) * z[k]
    return x0, rows


def near_degenerate_family(rng, K, d, m):
    """Generators with zero rows, duplicates, scaled copies and rows that
    differ from an earlier generator by about ``RANK_TOL``."""
    G = rng.normal(size=(m, K, d)) * 10.0 ** rng.integers(-3, 4, size=(m, 1, 1))
    if rng.random() < 0.3:
        G = np.round(G)
    for j in range(m):
        for k in range(K):
            r = rng.random()
            src = G[rng.integers(j), k] if j else None
            if r < 0.2:
                G[j, k] = 0.0
            elif r < 0.35 and j:
                G[j, k] = src
            elif r < 0.5 and j:
                G[j, k] = src * rng.normal()
            elif r < 0.75 and j:
                step = rng.normal(size=d)
                step *= 10.0 ** rng.uniform(-11, -8) / np.linalg.norm(step)
                G[j, k] = src + step * max(1.0, np.linalg.norm(src))
    return G


class TestGreedyGramSchmidtMatchesReferences:
    """The shared greedy Gram-Schmidt gives the earlier loops' bits."""

    @pytest.mark.parametrize("rank_tol", [RANK_TOL, 1e-6, 1e-12])
    def test_bit_identical(self, rank_tol):
        rng = np.random.default_rng(5150)
        ranks = set()
        for _ in range(40):
            K, d, m = 20, int(rng.integers(1, 7)), int(rng.integers(1, 8))
            G = near_degenerate_family(rng, K, d, m)
            space = MeasureSpace(np.ones(K))
            basis = rank_partition([CondVector(space, g) for g in G], rank_tol)
            labels, picks, vec_rows = _ref_rank_partition(G, rank_tol)
            assert same_bits(basis.labels, labels)
            assert same_bits(basis.picks, picks)
            assert len(basis.vectors) == len(vec_rows)
            for v, ref in zip(basis.vectors, vec_rows):
                assert same_bits(v.values, ref)
            ranks.update(labels.tolist())

            ref = _ref_orthonormalize(vec_rows, labels, d, rank_tol)
            assert ref.dtype == float  # a partition's own basis is independent
            assert same_bits(orthonormalize(basis, rank_tol).rows, ref)

            # labels overclaiming rank by one where a filler row exists
            bumped = np.where(labels < len(vec_rows), labels + 1, labels)
            fake = StratifiedBasis(space, d, bumped, basis.vectors, basis.picks, basis.generators)
            ref = _ref_orthonormalize(vec_rows, bumped, d, rank_tol)
            if ref.dtype == bool:
                with pytest.raises(PreconditionError) as err:
                    orthonormalize(fake, rank_tol)
                assert same_bits(err.value.atoms, ref)
            else:
                assert same_bits(orthonormalize(fake, rank_tol).rows, ref)

            z = G[-1].copy()
            z[np.linalg.norm(z, axis=1) <= rank_tol] = 1.0
            v = rng.normal(size=K)
            region = rng.random(K) < 0.8
            x0, frame = hyperplane_normal_form(
                CondVector(space, z), CondScalar(space, v), MeasurableSet(space, region), rank_tol
            )
            ref_x0, ref_rows = _ref_hyperplane(z, v, region, rank_tol)
            assert same_bits(x0.values, ref_x0)
            assert same_bits(frame.rows, ref_rows)

            for k in range(K):
                rows = G[:, k]
                ref = _ref_gram_schmidt_rows(list(rows), rank_tol)
                assert same_bits(grow_one(rows, rank_tol), ref)
        assert ranks >= set(range(6))


def stacked_family(rng, K, d, m, rank_tol):
    """``near_degenerate_family`` plus rows whose residual sits at the
    ``rank_tol`` threshold, all-zero and ``-0.0`` rows."""
    G = near_degenerate_family(rng, K, d, m)
    for j in range(1, m):
        for k in range(K):
            r = rng.random()
            if r < 0.15:
                # an earlier row plus an orthogonal step of about the
                # acceptance threshold: accepted or not by a hair
                src = G[rng.integers(j), k]
                step = rng.normal(size=d)
                if d > 1 and src.any():
                    step -= (step @ src) / (src @ src) * src
                if step.any():
                    scale = rank_tol * max(1.0, np.linalg.norm(src))
                    scale *= 10.0 ** rng.uniform(-0.01, 0.01)
                    G[j, k] = src + step * (scale / np.linalg.norm(step))
            elif r < 0.2:
                G[j, k] = -0.0
            elif r < 0.25:
                G[j, k] = np.where(rng.random(d) < 0.5, -0.0, 0.0)
    if rng.random() < 0.3:
        G[0] = -0.0
    return G


class TestStackedKernelMatchesReferences:
    """Every stacked frame op gives the per-atom loops' bits, on wide,
    near-degenerate families (K 1-40, d 1-8, m up to 10)."""

    @pytest.mark.parametrize("rank_tol", [RANK_TOL, 1e-6])
    def test_bit_identical(self, rank_tol):
        rng = np.random.default_rng(8080 + int(-np.log10(rank_tol)))
        overclaimed = partial = 0
        for _ in range(60):
            K, d, m = int(rng.integers(1, 41)), int(rng.integers(1, 9)), int(rng.integers(1, 11))
            G = stacked_family(rng, K, d, m, rank_tol)
            space = MeasureSpace(np.ones(K))
            basis = rank_partition([CondVector(space, g) for g in G], rank_tol)
            labels, picks, vec_rows = _ref_rank_partition(G, rank_tol)
            assert same_bits(basis.labels, labels)
            assert same_bits(basis.picks, picks)
            assert len(basis.vectors) == len(vec_rows)
            for v, ref in zip(basis.vectors, vec_rows):
                assert same_bits(v.values, ref)

            frame = orthonormalize(basis, rank_tol)
            assert same_bits(frame.rows, _ref_orthonormalize(vec_rows, labels, d, rank_tol))
            comp = frame.complement()
            ref = np.stack([np.vstack([frame.rows[k, r:], frame.rows[k, :r]])
                            for k, r in enumerate(labels)])
            assert same_bits(comp.rows, ref)
            assert same_bits(comp.labels, d - labels)

            # labels drawn anywhere up to the number of basis vectors,
            # so some atoms overclaim independence
            claimed = rng.integers(0, len(vec_rows) + 1, size=K)
            fake = StratifiedBasis(space, d, claimed, basis.vectors, basis.picks, basis.generators)
            ref = _ref_orthonormalize(vec_rows, claimed, d, rank_tol)
            if ref.dtype == bool:
                overclaimed += 1
                with pytest.raises(PreconditionError) as err:
                    orthonormalize(fake, rank_tol)
                assert same_bits(err.value.atoms, ref)
            else:
                assert same_bits(orthonormalize(fake, rank_tol).rows, ref)

            z = G[rng.integers(m)].copy()
            z[np.linalg.norm(z, axis=1) <= rank_tol] = -1.0
            v = rng.normal(size=K) * 10.0 ** rng.integers(-3, 4)
            region = rng.random(K) < rng.uniform(0.0, 1.0)
            partial += 0 < region.sum() < K
            x0, hframe = hyperplane_normal_form(
                CondVector(space, z), CondScalar(space, v), MeasurableSet(space, region), rank_tol
            )
            ref_x0, ref_rows = _ref_hyperplane(z, v, region, rank_tol)
            assert same_bits(x0.values, ref_x0)
            assert same_bits(hframe.rows, ref_rows)

            for k in range(K):
                ref = _ref_gram_schmidt_rows(list(G[:, k]), rank_tol)
                assert same_bits(grow_one(G[:, k], rank_tol), ref)
        assert overclaimed >= 10 and partial >= 10

    def test_threshold_rows_go_both_ways(self):
        # a row one hair above and one hair below the acceptance threshold
        base = np.array([3.0, 4.0, 0.0])
        for factor, rank in [(1.001, 2), (0.999, 1)]:
            step = np.array([0.0, 0.0, RANK_TOL * 5.0 * factor])
            rows = np.array([base, base + step])
            assert len(grow_one(rows)) == rank
            assert same_bits(grow_one(rows), _ref_gram_schmidt_rows(list(rows), RANK_TOL))
