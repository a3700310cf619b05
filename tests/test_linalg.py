"""Rank stratification, adapted frames, and linear-map extension."""

import numpy as np
import pytest

import oracles

from stratalg import (
    CondLinearMap,
    CondScalar,
    CondVector,
    MeasurableSet,
    MeasureSpace,
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
