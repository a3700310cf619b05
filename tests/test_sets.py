"""Hulls, membership, separation, and the extension theorem.

Expected values for the small fixed instances were computed with the
reference routines in ``oracles`` (LP intersection, hull interiors,
least squares) and are frozen here.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import oracles
from ops import same_bits

from stratalg import (
    CondHalfspace,
    CondScalar,
    CondVector,
    ConvexSetRep,
    MeasurableSet,
    MeasureSpace,
    MaxAffineFn,
    PreconditionError,
    ShapeError,
    SpaceMismatchError,
    bounded_test,
    glue,
    hahn_banach_extend,
    hull,
    membership,
    nearest_pair,
    orthonormalize,
    rank_partition,
    ri_membership,
    separate,
)
from stratalg import _solvers, functions, sets
from stratalg._solvers import (
    cone_spans,
    dual_cone_model,
    min_norm_point,
    nonzero_in_dual_cone,
    solve_lp,
    vrep_block,
)
from stratalg.core import ext_add
from stratalg.linalg import _canonical_signs, _grow_frames
from stratalg.tolerances import EQ_TOL, FEAS_TOL, QP_TOL, RANK_TOL, STRICT_TOL


def const_set(space, points, rays=(), lines=(), discrete=False):
    """Atom-constant representation from plain row lists."""
    return ConvexSetRep(
        space=space,
        dim=len(points[0]),
        points=tuple(CondVector.constant(space, p) for p in points),
        rays=tuple(CondVector.constant(space, r) for r in rays),
        lines=tuple(CondVector.constant(space, s) for s in lines),
        discrete=discrete,
    )


def cv(space, *rows):
    return CondVector(space, np.array(rows, dtype=float))


class TestHullKinds:
    def test_convex_hull_membership(self, space2):
        gens = [CondVector.constant(space2, p) for p in ([0.0, 0.0], [2.0, 0.0], [0.0, 2.0])]
        c = hull(gens, "convex")
        assert membership(CondVector.constant(space2, [0.5, 0.5]), c).is_full
        assert membership(CondVector.constant(space2, [1.5, 1.5]), c).is_empty
        # vertices are members
        assert membership(gens[1], c).is_full

    def test_cone_hull_contains_origin_and_scalings(self, space2, rng):
        gens = [CondVector.constant(space2, p) for p in ([1.0, 0.0], [1.0, 1.0])]
        c = hull(gens, "cone")
        assert membership(CondVector.zero(space2, 2), c).is_full
        for _ in range(10):
            lam = rng.uniform(0, 5, size=2)
            x = CondVector.constant(space2, lam[0] * np.array([1.0, 0.0]) + lam[1] * np.array([1.0, 1.0]))
            assert membership(x, c).is_full
        assert membership(CondVector.constant(space2, [-1.0, 0.0]), c).is_empty

    def test_affine_hull(self, space2):
        gens = [CondVector.constant(space2, p) for p in ([0.0, 1.0], [1.0, 1.0])]
        c = hull(gens, "affine")
        # the whole line x2 = 1, including points outside the segment
        assert membership(CondVector.constant(space2, [7.0, 1.0]), c).is_full
        assert membership(CondVector.constant(space2, [-3.0, 1.0]), c).is_full
        assert membership(CondVector.constant(space2, [0.0, 0.0]), c).is_empty

    def test_linear_hull(self, space2):
        gens = [CondVector.constant(space2, [1.0, 2.0])]
        c = hull(gens, "linear")
        assert membership(CondVector.constant(space2, [-2.0, -4.0]), c).is_full
        assert membership(CondVector.constant(space2, [1.0, 0.0]), c).is_empty

    def test_stable_hull_is_per_atom_selection(self, space2):
        a = cv(space2, [0.0, 0.0], [0.0, 0.0])
        b = cv(space2, [1.0, 1.0], [1.0, 1.0])
        s = hull([a, b], "stable")
        assert s.discrete
        mixed = cv(space2, [0.0, 0.0], [1.0, 1.0])  # a on atom 0, b on atom 1
        assert membership(mixed, s).is_full
        # the midpoint is not a selection
        mid = cv(space2, [0.5, 0.5], [0.5, 0.5])
        assert membership(mid, s).is_empty
        assert hull([a, b], "sigma").discrete

    def test_bad_kind_and_empty(self, space2):
        with pytest.raises(ShapeError):
            hull([CondVector.zero(space2, 2)], "closed")
        with pytest.raises(ShapeError):
            hull([], "convex")


class TestRepHelpers:
    def test_direction_rows_and_affine_dim(self, space2):
        rep = const_set(space2, [[0.0, 0.0], [1.0, 0.0]], rays=[[0.0, 1.0]])
        assert rep.affine_dims()[0] == 2
        seg = const_set(space2, [[0.0, 0.0], [1.0, 0.0]])
        assert seg.affine_dims()[0] == 1
        assert seg.translate(CondVector.constant(space2, [0.0, 5.0])).points[0, 0].tolist() == [0.0, 5.0]

    def test_discrete_cannot_carry_rays(self, space2):
        with pytest.raises(ShapeError):
            ConvexSetRep(
                space=space2,
                dim=2,
                points=(CondVector.zero(space2, 2),),
                rays=(CondVector.constant(space2, [1.0, 0.0]),),
                discrete=True,
            )


class TestMembership:
    def test_region_restriction(self, space2):
        c = const_set(space2, [[0.0, 0.0], [1.0, 0.0]])
        x = CondVector.constant(space2, [5.0, 0.0])
        region = MeasurableSet(space2, [True, False])
        got = membership(x, c, region=region)
        assert got.mask.tolist() == [False, False]

    def test_rays_and_lines(self, space2):
        c = const_set(space2, [[0.0, 0.0]], rays=[[1.0, 0.0]], lines=[[0.0, 1.0]])
        assert membership(CondVector.constant(space2, [3.0, -7.0]), c).is_full
        assert membership(CondVector.constant(space2, [-0.5, 0.0]), c).is_empty

    def test_atom_varying_set(self, space2):
        pts = (cv(space2, [0.0, 0.0], [10.0, 10.0]), cv(space2, [1.0, 1.0], [11.0, 11.0]))
        c = ConvexSetRep(space=space2, dim=2, points=pts)
        x = cv(space2, [0.5, 0.5], [0.5, 0.5])
        assert membership(x, c).mask.tolist() == [True, False]


class TestHalfspace:
    def test_contains_and_boundary(self, space3):
        n = CondVector.constant(space3, [1.0, 0.0])
        h = CondHalfspace(normal=n, offset=CondScalar.constant(space3, 1.0))
        assert h.support.is_full
        x = CondVector(space3, [[2.0, 0.0], [1.0, 5.0], [0.0, 0.0]])
        assert h.contains(x).mask.tolist() == [True, True, False]
        assert h.boundary_contains(x).mask.tolist() == [False, True, False]

    def test_tolerance_scales_per_atom(self, space2):
        h = CondHalfspace(CondVector.constant(space2, [1.0, 0.0]), CondScalar(space2, [0.0, 1e6]))
        # 1e-7 short of the boundary on atom 0; atom 1's large data must
        # not widen atom 0's tolerance
        x = CondVector(space2, [[-1e-7, 0.0], [1e6, 0.0]])
        assert h.contains(x).mask.tolist() == [False, True]
        assert h.boundary_contains(x).mask.tolist() == [False, True]

    def test_support_makes_offsupport_vacuous(self, space2):
        n = CondVector(space2, [[1.0, 0.0], [0.0, 0.0]])
        sup = MeasurableSet(space2, [True, False])
        h = CondHalfspace(
            normal=n, offset=CondScalar.constant(space2, 0.0), support=sup
        )
        x = CondVector(space2, [[-1.0, 0.0], [-1.0, 0.0]])
        # fails on the support, holds vacuously off it
        assert h.contains(x).mask.tolist() == [False, True]
        assert h.boundary_contains(x).is_empty

    def test_vanishing_normal_rejected(self, space2):
        n = CondVector(space2, [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(PreconditionError) as err:
            CondHalfspace(normal=n, offset=CondScalar.constant(space2, 0.0))
        assert err.value.atoms.tolist() == [False, True]


class TestNearestPair:
    def test_segment_to_point(self, space2):
        c = const_set(space2, [[0.0, 0.0], [2.0, 0.0]])
        d_pts = (cv(space2, [3.0, 1.0], [1.0, 1.0]),)
        d = ConvexSetRep(space=space2, dim=2, points=d_pts)
        xhat, yhat, dist = nearest_pair(c, d)
        # atom 0: closest segment point to (3,1) is the endpoint (2,0)
        assert np.allclose(xhat.values[0], [2.0, 0.0], atol=1e-6)
        assert dist.values[0] == pytest.approx(np.sqrt(2.0), abs=1e-6)
        # atom 1: foot of the perpendicular from (1,1)
        assert np.allclose(xhat.values[1], [1.0, 0.0], atol=1e-6)
        assert dist.values[1] == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(yhat.values, d_pts[0].values)

    def test_discrete_lowest_index_tie_break(self, space2):
        c = const_set(space2, [[1.0, 0.0], [-1.0, 0.0]], discrete=True)
        d = const_set(space2, [[0.0, 0.0]], discrete=True)
        xhat, yhat, dist = nearest_pair(c, d)
        assert np.allclose(xhat.values, [[1.0, 0.0], [1.0, 0.0]])
        assert np.allclose(dist.values, 1.0)

    def test_unbounded_second_set_rejected(self, space2):
        c = const_set(space2, [[0.0, 0.0]])
        d = const_set(space2, [[0.0, 0.0]], rays=[[1.0, 0.0]])
        with pytest.raises(PreconditionError):
            nearest_pair(c, d)

    def test_zero_gap_on_touching_sets(self, space2):
        c = const_set(space2, [[0.0, 0.0], [1.0, 0.0]])
        d = const_set(space2, [[1.0, 0.0], [2.0, 0.0]])
        _, _, dist = nearest_pair(c, d)
        assert np.all(dist.values <= 1e-6)


class TestSeparateStrong:
    def test_two_points(self, space2):
        c = const_set(space2, [[1.0, 0.0]])
        d = const_set(space2, [[-1.0, 0.0]])
        res = separate(c, d, kind="strong")
        assert res.failure_set.is_empty
        assert np.allclose(res.normal.values, [[2.0, 0.0], [2.0, 0.0]], atol=1e-6)
        assert np.allclose(res.gap.values, 4.0, atol=1e-6)
        assert np.all(res.distance.values == pytest.approx(2.0, abs=1e-6))

    def test_failure_atoms_are_exact(self, space2):
        # overlap on atom 0 only
        c_pts = (cv(space2, [0.0, 0.0], [0.0, 0.0]), cv(space2, [2.0, 2.0], [0.5, 0.5]))
        c = ConvexSetRep(space=space2, dim=2, points=c_pts)
        d = const_set(space2, [[1.0, 1.0], [3.0, 3.0]])
        res = separate(c, d, kind="strong")
        for k in range(2):
            touching = oracles.polytopes_intersect(c.points[k], d.points[k])
            assert res.failure_set.mask[k] == touching
        assert not res.normal.values[res.failure_set.mask].any()

    def test_gap_is_support_difference(self, space2, rng):
        for _ in range(20):
            P = rng.normal(size=(4, 2))
            Q = rng.normal(size=(4, 2)) + np.array([4.0, 0.0])
            c = const_set(space2, list(P))
            d = const_set(space2, list(Q))
            res = separate(c, d, kind="strong")
            assert res.failure_set.is_empty
            z = res.normal.values[0]
            want = -oracles.support_value(-z, P) - oracles.support_value(z, Q)
            assert res.gap.values[0] == pytest.approx(want, abs=1e-6)
            assert res.gap.values[0] >= np.dot(z, z) - 1e-6

    def test_gluing_commutes(self, space2):
        # solve two scenarios, glue, compare with the glued scenario
        pa = cv(space2, [3.0, 0.0], [3.0, 0.0])
        pb = cv(space2, [0.0, 5.0], [0.0, 5.0])
        d = const_set(space2, [[0.0, 0.0]])
        ca = ConvexSetRep(space=space2, dim=2, points=(pa,))
        cb = ConvexSetRep(space=space2, dim=2, points=(pb,))
        parts = [MeasurableSet(space2, [True, False]), MeasurableSet(space2, [False, True])]
        glued_inputs = ConvexSetRep(
            space=space2, dim=2, points=(glue(parts, [pa, pb]),)
        )
        res_glued = separate(glued_inputs, d, kind="strong")
        res_a = separate(ca, d, kind="strong")
        res_b = separate(cb, d, kind="strong")
        want = glue(parts, [res_a.normal, res_b.normal])
        assert np.allclose(res_glued.normal.values, want.values, atol=1e-9)


class TestSeparateWeak:
    def test_boundary_point(self, space2):
        c = const_set(space2, [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        d = const_set(space2, [[1.0, 0.0]])
        res = separate(c, d, kind="weak")
        assert res.failure_set.is_empty
        z = res.normal.values[0]
        assert np.linalg.norm(z) > 1e-9
        # inf over C minus the value at d is exactly 0 here
        assert res.gap.values[0] <= 0.0 + 1e-9
        pts = c.points[0]
        assert np.min(pts @ z) >= np.dot(np.array([1.0, 0.0]), z) - 1e-9

    def test_interior_point_fails(self, space2):
        c = const_set(space2, [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        d_pts = (cv(space2, [0.0, 0.0], [5.0, 5.0]),)
        d = ConvexSetRep(space=space2, dim=2, points=d_pts)
        res = separate(c, d, kind="weak")
        # interior on atom 0, disjoint on atom 1
        assert res.failure_set.mask.tolist() == [True, False]
        assert not res.normal.values[0].any()
        assert np.linalg.norm(res.normal.values[1]) > 1e-9

    def test_lower_dimensional_touching(self, space2):
        seg = const_set(space2, [[0.0, 0.0], [1.0, 0.0]])
        res = separate(seg, seg, kind="weak")
        # identical segments: the origin sits in the difference, but not
        # in its interior, so weak separation still succeeds
        assert res.failure_set.is_empty
        assert np.all(np.linalg.norm(res.normal.values, axis=1) > 1e-9)
        assert np.all(res.gap.values >= -1e-9)


class TestSeparateProper:
    def test_identical_segments_fail(self, space2):
        seg = const_set(space2, [[0.0, 0.0], [1.0, 0.0]])
        res = separate(seg, seg, kind="proper")
        assert res.failure_set.is_full

    def test_endpoint_touch_succeeds(self, space2):
        c = const_set(space2, [[0.0, 0.0], [1.0, 0.0]])
        d = const_set(space2, [[0.0, 0.0]])
        res = separate(c, d, kind="proper")
        assert res.failure_set.is_empty
        z = res.normal.values[0]
        pts = c.points[0]
        # separating with some strict excess on one side
        assert np.min(pts @ z) >= 0.0 - 1e-9
        assert res.strict_excess is not None
        assert np.all(res.strict_excess.values > 1e-9)

    def test_affine_offset_route(self, space2):
        # difference lives on the line x2 = 1, away from the origin
        c = const_set(space2, [[0.0, 1.0], [1.0, 1.0]])
        d = const_set(space2, [[0.0, 0.0]])
        res = separate(c, d, kind="proper")
        assert res.failure_set.is_empty
        z = res.normal.values[0]
        assert np.dot(z, [0.0, 1.0]) > 1e-9  # points along the offset

    def test_planted_failure_atoms(self, space2):
        # d interior to c on atom 1 only
        d_pts = (cv(space2, [5.0, 5.0], [0.25, 0.25]),)
        c = const_set(space2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        d = ConvexSetRep(space=space2, dim=2, points=d_pts)
        res = separate(c, d, kind="proper")
        assert res.failure_set.mask.tolist() == [False, True]


class TestHahnBanach:
    def sup_norm_bound(self, space):
        slopes = ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])
        return MaxAffineFn.from_pieces(
            tuple(
                (CondVector.constant(space, s), CondScalar.constant(space, 0.0))
                for s in slopes
            )
        )

    def test_minimal_extension(self, space2):
        p = self.sup_norm_bound(space2)
        e = hull([CondVector.constant(space2, [1.0, 0.0])], "linear")
        h = hahn_banach_extend(p, e, [CondScalar.constant(space2, 0.5)])
        assert np.allclose(h.values, [[0.5, 0.0], [0.5, 0.0]], atol=1e-7)

    def test_domination_everywhere(self, space2, rng):
        p = self.sup_norm_bound(space2)
        e = hull([CondVector.constant(space2, [1.0, 1.0])], "linear")
        # the frame vector is (1,1) normalized, where the bound is 1/sqrt(2)
        h = hahn_banach_extend(p, e, [CondScalar.constant(space2, 0.5)])
        for _ in range(100):
            x = rng.normal(size=2) * 3
            hx = h.values @ x
            px = np.max(np.abs(x))
            assert np.all(hx <= px + 1e-7)

    def test_agreement_on_the_frame_vector(self, space2):
        p = self.sup_norm_bound(space2)
        u = CondVector.constant(space2, [2.0, 0.0])
        e = hull([u], "linear")
        c = CondScalar.constant(space2, -0.25)
        h = hahn_banach_extend(p, e, [c])
        # the prescribed value applies to the normalized frame vector
        frame_vec = np.array([1.0, 0.0])
        assert np.allclose(h.values @ frame_vec, -0.25, atol=1e-7)

    def test_values_outside_the_slope_hull_are_infeasible(self):
        # frame values (c, c) pass the probe check for c <= 1 but lie in
        # the hull of the mapped slopes, the unit L1 ball, only for
        # c <= 1/2; the Euclidean distance sqrt(2) (c - 1/2) is held to
        # QP_TOL
        space = MeasureSpace(np.ones(4))
        p = self.sup_norm_bound(space)
        e = hull([CondVector.constant(space, [1.0, 0.0]),
                  CondVector.constant(space, [0.0, 1.0])], "linear")
        c = CondScalar(space, 0.5 + np.array([0.0, 0.6e-7, 0.8e-7, 0.5]))
        with pytest.raises(PreconditionError, match="domination fails") as err:
            hahn_banach_extend(p, e, [c, c])
        assert err.value.atoms.tolist() == [False, False, True, True]
        c = c.restrict(MeasurableSet(space, np.array([True, True, False, False])))
        h = hahn_banach_extend(p, e, [c, c])
        assert np.allclose(h.values[:2], 0.5, atol=1e-7)

    @pytest.mark.parametrize("weights", [[2.0, 1.0], [1.0, 1.0, 1.0]],
                             ids=["other-weights", "other-K"])
    def test_bound_on_another_space_is_a_space_mismatch(self, space2, weights):
        p = self.sup_norm_bound(MeasureSpace(np.array(weights)))
        e = hull([CondVector.constant(space2, [1.0, 0.0])], "linear")
        with pytest.raises(SpaceMismatchError):
            hahn_banach_extend(p, e, [CondScalar.constant(space2, 0.5)])

    def test_undominated_value_rejected(self, space2):
        p = self.sup_norm_bound(space2)
        e = hull([CondVector.constant(space2, [1.0, 0.0])], "linear")
        with pytest.raises(PreconditionError):
            hahn_banach_extend(p, e, [CondScalar.constant(space2, 2.0)])

    def test_shape_preconditions(self, space2):
        p = self.sup_norm_bound(space2)
        affine_piece = MaxAffineFn.from_pieces(
            ((CondVector.constant(space2, [1.0, 0.0]), CondScalar.constant(space2, 1.0)),)
        )
        e = hull([CondVector.constant(space2, [1.0, 0.0])], "linear")
        with pytest.raises(PreconditionError):
            hahn_banach_extend(affine_piece, e, [CondScalar.constant(space2, 0.0)])
        not_linear = const_set(space2, [[1.0, 0.0]])
        with pytest.raises(ShapeError):
            hahn_banach_extend(p, not_linear, [CondScalar.constant(space2, 0.0)])
        with_rays = const_set(space2, [[0.0, 0.0]], rays=[[1.0, 0.0]])
        with pytest.raises(ShapeError):
            hahn_banach_extend(p, with_rays, [CondScalar.constant(space2, 0.0)])

    def test_error_names_the_atoms_of_every_failing_check(self, space2):
        # atom 0: a nonzero offset; atom 1: the value 2 on the x1 line,
        # above the bound 1 there.  The first failing check words the error.
        zero = CondScalar.constant(space2, 0.0)
        offsets = (CondScalar(space2, [1.0, 0.0]), zero, zero, zero)
        slopes = ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])
        p = MaxAffineFn.from_pieces(
            tuple((CondVector.constant(space2, s), c) for s, c in zip(slopes, offsets))
        )
        e = hull([CondVector.constant(space2, [1.0, 0.0])], "linear")
        with pytest.raises(PreconditionError, match="must be sublinear") as err:
            hahn_banach_extend(p, e, [CondScalar(space2, [0.5, 2.0])])
        assert err.value.atoms.tolist() == [True, True]

    def test_complement_values_rejected(self, space2):
        p = self.sup_norm_bound(space2)
        u = CondVector(space2, [[1.0, 0.0], [0.0, 0.0]])  # rank 1 then 0
        e = hull([u], "linear")
        c = CondScalar.constant(space2, 0.5)  # nonzero on the rank-0 atom
        with pytest.raises(PreconditionError) as err:
            hahn_banach_extend(p, e, [c])
        assert err.value.atoms.tolist() == [False, True]

    @pytest.mark.parametrize("seed", range(8))
    def test_frame_is_the_orthonormalized_rank_partition(self, seed):
        # the extension's frame, one Gram-Schmidt pass over the lines with
        # canonical signs, has the bits and labels of
        # orthonormalize(rank_partition(lines)) on the submodule rows
        rng = np.random.default_rng([60, seed])
        K = 16
        for family in range(50):
            d, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            if family % 2:
                lines = rng.normal(size=(K, m, d))
            else:
                # integer lines of rank at most q[k], scaled by 2^j per atom
                q = rng.integers(0, d + 1, size=K)
                coef = rng.integers(-3, 4, size=(K, m, d)) * (np.arange(d) < q[:, None, None])
                lines = (coef @ rng.integers(-3, 4, size=(K, d, d))).astype(float)
                lines *= 2.0 ** rng.integers(-10, 21, size=(K, 1, 1))
            space = MeasureSpace(np.ones(K))
            want = orthonormalize(rank_partition([CondVector(space, lines[:, i])
                                                  for i in range(m)]))
            F, r = sets._direction_frames(np.zeros((K, 1, d)), np.zeros((K, 0, d)), lines)
            F = _canonical_signs(F)
            assert r.tolist() == want.labels.tolist()
            below = np.arange(d)[None, :] < r[:, None]
            assert F[below].tobytes() == want.rows[below].tobytes()


class TestBoundedAndInterior:
    def test_bounded_test(self, space2):
        r = cv(space2, [0.0, 0.0], [1.0, 0.0])
        rep = ConvexSetRep(
            space=space2,
            dim=2,
            points=(CondVector.zero(space2, 2), CondVector.constant(space2, [0.0, 1.0])),
            rays=(r,),
        )
        bounded, witness = bounded_test(rep)
        assert bounded.mask.tolist() == [True, False]
        assert np.allclose(witness.values[1], [1.0, 0.0])
        assert not witness.values[0].any()

    def test_bounded_test_needs_origin(self, space2):
        rep = const_set(space2, [[1.0, 1.0]])
        with pytest.raises(PreconditionError):
            bounded_test(rep)

    def test_interior_membership(self, space2):
        sq = const_set(space2, [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        inside = CondVector.zero(space2, 2)
        edge = CondVector.constant(space2, [1.0, 0.0])
        out = CondVector.constant(space2, [2.0, 0.0])
        assert ri_membership(inside, sq, mode="interior").is_full
        assert ri_membership(edge, sq, mode="interior").is_empty
        assert ri_membership(out, sq, mode="interior").is_empty

    def test_relative_interior_on_segment(self, space2):
        seg = const_set(space2, [[0.0, 0.0], [2.0, 0.0]])
        mid = CondVector.constant(space2, [1.0, 0.0])
        end = CondVector.constant(space2, [0.0, 0.0])
        assert ri_membership(mid, seg, mode="interior").is_empty
        assert ri_membership(mid, seg, mode="relative").is_full
        assert ri_membership(end, seg, mode="relative").is_empty

    def test_interior_matches_hull_oracle(self, space2, rng):
        for _ in range(15):
            P = rng.normal(size=(6, 2))
            x = rng.normal(size=2) * 0.7
            rep = const_set(space2, list(P))
            got = ri_membership(CondVector.constant(space2, x), rep, mode="interior")
            want = oracles.zero_in_interior(P - x[None, :])
            assert got.is_full == want and got.is_empty == (not want)

    def test_strict_tol_must_exceed_the_target_slack(self):
        # the seed of test_solvers.py::test_positivity_margin_both_stages[0]:
        # its vertex target gets a margin of about 9.3e-13 from the EQ_TOL band
        rng = np.random.default_rng([2, 0])
        pts = rng.normal(size=(4, 3))
        space = MeasureSpace(np.ones(2))
        rep = const_set(space, list(pts))
        vertex = CondVector.constant(space, pts[0])
        for tol in (1e-13, EQ_TOL):
            with pytest.raises(PreconditionError, match="EQ_TOL = 1e-12") as err:
                ri_membership(vertex, rep, mode="relative", strict_tol=tol)
            assert err.value.atoms.tolist() == [True, True]
        assert ri_membership(vertex, rep, mode="relative", strict_tol=1.1 * EQ_TOL).is_empty
        assert ri_membership(vertex, rep, mode="relative").is_empty

    def test_discrete_rejected(self, space2):
        s = const_set(space2, [[0.0, 0.0]], discrete=True)
        with pytest.raises(ShapeError):
            ri_membership(CondVector.zero(space2, 2), s)
        with pytest.raises(ShapeError):
            separate(s, s, kind="strong")


# per-atom references for the stacked generator storage -----------------------


def ref_rows(family, k, d):
    """Atom ``k``'s rows as a tuple-of-vectors storage built them."""
    if not family:
        return np.zeros((0, d))
    return np.array([v.values[k] for v in family])


class TestStackedStorage:
    K, D = 5, 3

    def families(self, rng, n_rays, n_lines):
        space = MeasureSpace(np.ones(self.K))
        def fam(n):
            return tuple(CondVector(space, rng.normal(size=(self.K, self.D))) for _ in range(n))
        return space, fam(4), fam(n_rays), fam(n_lines)

    @pytest.mark.parametrize("n_rays, n_lines", [(0, 0), (1, 0), (0, 2), (3, 1)])
    def test_views_match_per_atom_rows(self, rng, n_rays, n_lines):
        space, pts, rays, lines = self.families(rng, n_rays, n_lines)
        rep = ConvexSetRep(space, self.D, pts, rays, lines)
        assert rep.points.shape == (self.K, 4, self.D)
        assert rep.rays.shape == (self.K, n_rays, self.D)
        assert rep.lines.shape == (self.K, n_lines, self.D)
        for k in range(self.K):
            for got, family in zip(rep.generators_at(k), (pts, rays, lines)):
                assert same_bits(got, ref_rows(family, k, self.D))
            p0 = ref_rows(pts, k, self.D)
            dirs = np.vstack([p0[1:] - p0[0], ref_rows(rays, k, self.D), ref_rows(lines, k, self.D)])
            assert rep.affine_dims()[k] == len(ref_direction_frame(dirs))

    def test_arrays_are_read_only_copies(self, rng):
        space, pts, rays, lines = self.families(rng, 1, 1)
        rep = ConvexSetRep(space, self.D, pts, rays, lines)
        for a in (rep.points, rep.rays, rep.lines):
            assert not a.flags.writeable and a.flags.c_contiguous
            with pytest.raises(ValueError):
                a[0, 0, 0] = 1.0
        raw = rng.normal(size=(self.K, 2, self.D))
        from_array = ConvexSetRep(space, self.D, raw)
        raw[0, 0, 0] = 99.0
        assert from_array.points[0, 0, 0] != 99.0
        with pytest.raises(ShapeError):
            ConvexSetRep(space, self.D, raw[:, :, :2])
        with pytest.raises(ShapeError):
            ConvexSetRep(space, self.D, np.zeros((self.K, 0, self.D)))

    def test_translate_matches_per_vector_sum(self, rng):
        space, pts, rays, lines = self.families(rng, 2, 1)
        rep = ConvexSetRep(space, self.D, pts, rays, lines)
        x = CondVector(space, rng.normal(size=(self.K, self.D)))
        moved = rep.translate(x)
        shifted = tuple(p + x for p in pts)
        for k in range(self.K):
            assert same_bits(moved.points[k], ref_rows(shifted, k, self.D))
        assert same_bits(moved.rays, rep.rays) and same_bits(moved.lines, rep.lines)

    def test_bounded_test_matches_first_recession_row(self, rng):
        space, _, rays, lines = self.families(rng, 3, 2)
        # vanish on some atoms, so witnesses come from later rows or none
        rays = tuple(CondVector(space, r.values * (rng.random((self.K, 1)) < 0.4)) for r in rays)
        lines = tuple(CondVector(space, s.values * (rng.random((self.K, 1)) < 0.3)) for s in lines)
        rep = ConvexSetRep(space, self.D, (CondVector.zero(space, self.D),), rays, lines)
        bounded, witness = bounded_test(rep)
        want = np.zeros((self.K, self.D))
        unbounded = np.zeros(self.K, dtype=bool)
        for v in rays + lines:
            nz = np.linalg.norm(v.values, axis=1) > 1e-9
            want[nz & ~unbounded] = v.values[nz & ~unbounded]
            unbounded |= nz
        assert bounded.mask.tolist() == (~unbounded).tolist()
        assert same_bits(witness.values, want)


# per-atom references for the stacked set ops ---------------------------------


def ref_direction_frame(dirs, rank_tol=RANK_TOL):
    """The frame behind ``affine_dim_at`` and the proper-kind normal:
    ``_grow_frames`` on one atom (K = 1)."""
    R = np.atleast_2d(np.asarray(dirs, dtype=float))[None]
    F, c = np.zeros((1, R.shape[2], R.shape[2])), np.zeros(1, dtype=np.int64)
    _grow_frames(R, F, c, rank_tol)
    return F[0, : c[0]]


def ref_difference_rows(c, d, k):
    cp, dp = c.points[k], d.points[k]
    pts = (cp[:, None, :] - dp[None, :, :]).reshape(-1, c.dim)
    return pts, np.vstack([c.rays[k], -d.rays[k]]), np.vstack([c.lines[k], d.lines[k]])


def ref_support_bounds(z, pts, rays, lines, strict_tol):
    vals = pts @ z
    lo, hi = float(np.min(vals)), float(np.max(vals))
    scale = max(1.0, float(np.max(np.abs(vals))))
    tol = strict_tol * scale
    for r in rays:
        s = float(r @ z)
        if s < -tol:
            lo = -np.inf
        if s > tol:
            hi = np.inf
    for l in lines:
        s = float(l @ z)
        if abs(s) > tol:
            lo, hi = -np.inf, np.inf
    return lo, hi


def ref_gap_excess(zrows, c, d, strict_tol=STRICT_TOL):
    K = len(zrows)
    gap, excess = np.zeros(K), np.zeros(K)
    for k in range(K):
        z = zrows[k]
        c_lo, c_hi = ref_support_bounds(z, *c.generators_at(k), strict_tol)
        d_lo, d_hi = ref_support_bounds(z, *d.generators_at(k), strict_tol)
        gap[k] = ext_add(np.array(c_lo), np.array(-d_hi))
        excess[k] = ext_add(np.array(c_hi), np.array(-d_lo))
    return gap, excess


def ref_proper_normal(pts, rays, lines, dim):
    q = ref_direction_frame(np.vstack([pts[1:] - pts[0], rays, lines]))
    p0 = pts[0]
    resid = p0 - (q.T @ (q @ p0) if len(q) else 0.0)
    scale = max(1.0, float(np.max(np.abs(pts))))
    if np.linalg.norm(resid) > RANK_TOL * scale:
        return resid, False
    if len(q) == 0:
        return np.zeros(dim), True
    ineq = np.vstack([pts, rays]) @ q.T
    eq = lines @ q.T if len(lines) else np.zeros((0, len(q)))
    y = nonzero_in_dual_cone(dual_cone_model(ineq[None], eq[None]), 0)
    if y is None:
        return np.zeros(dim), True
    return q.T @ y, False


def ref_member_cutoff(rep, x, k, tol=FEAS_TOL):
    """The old all-atom ``_member_tol`` formula on atom ``k``'s rows."""
    return tol * max(1.0, *(float(np.abs(a).max(initial=0.0))
                            for a in (*rep.generators_at(k), x[k])))


def ref_linprog(c, **lp):
    return linprog(c, method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                               "dual_feasibility_tolerance": 1e-10}, **lp)


def ref_combination_residual(target, points, rays, lines):
    """The former membership LP: the smallest sup-norm slack with which
    ``target`` is a point/ray/line combination; ``inf`` when the LP fails."""
    d = target.size
    cols, simplex_row, box = vrep_block(points[None], rays[None], lines[None])
    cols, n = cols[0], len(box)
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_ub = np.vstack([np.hstack([cols, -np.ones((d, 1))]), np.hstack([-cols, -np.ones((d, 1))])])
    res = ref_linprog(c, A_ub=A_ub, b_ub=np.concatenate([target, -target]),
                      A_eq=np.append(simplex_row, 0.0)[None, :], b_eq=np.array([1.0]),
                      bounds=np.vstack([box, [0.0, np.inf]]))
    return float(res.fun) if res.status == 0 else np.inf


def ref_positivity_margin(target, points, rays, lines):
    """The former two-stage ``positivity_margin``: the margin LP with a
    ``FEAS_TOL`` target slack, then, for a positive margin, the same LP
    with the ``EQ_TOL`` slack, whose infeasibility reads as ``0.0``."""
    target = np.asarray(target, dtype=float)
    d = target.size
    cols, simplex_row, box = vrep_block(points[None], rays[None], lines[None])
    cols, n = cols[0], len(box)
    nonneg_cnt = n - len(lines)
    slack = FEAS_TOL * max(1.0, float(np.max(np.abs(cols))) if cols.size else 1.0,
                           float(np.max(np.abs(target))) if target.size else 1.0)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.vstack([np.hstack([-np.eye(n)[:nonneg_cnt], np.ones((nonneg_cnt, 1))]),
                      np.hstack([cols, np.zeros((d, 1))]), np.hstack([-cols, np.zeros((d, 1))])])
    lp = {"A_ub": A_ub, "A_eq": np.append(simplex_row, 0.0)[None, :], "b_eq": np.array([1.0]),
          "bounds": np.vstack([box, [-np.inf, 1.0]])}
    b_ub = np.concatenate([np.zeros(nonneg_cnt), target + slack, -target + slack])
    res = ref_linprog(c, b_ub=b_ub, **lp)
    if res.status != 0:
        return -np.inf
    if -res.fun <= 0.0:
        return float(-res.fun)
    tight = EQ_TOL * (slack / FEAS_TOL)
    b_ub[nonneg_cnt:] = np.concatenate([target + tight, -target + tight])
    res = ref_linprog(c, b_ub=b_ub, **lp)
    return float(-res.fun) if res.status == 0 else 0.0


def ref_discrete_membership(x, rep, region):
    flags = []
    for k in range(rep.space.natoms):
        pts = rep.points[k]
        flags.append(bool(region[k]) and bool(
            np.min(np.max(np.abs(pts - x[k]), axis=1)) <= ref_member_cutoff(rep, x, k)))
    return np.array(flags)


def ref_discrete_pair(cp, dp):
    dist = np.linalg.norm(cp[:, None, :] - dp[None, :, :], axis=2)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return cp[i], dp[j]


def ref_probe_bad(slopes, labels, frows, vals, tol=QP_TOL):
    probe_bad = np.zeros(len(labels), dtype=bool)
    for k in range(len(labels)):
        yrows = slopes[k]
        for i in range(int(labels[k])):
            u = frows[k, i]
            ci = float(vals[k, i])
            pmax = float(np.max(yrows @ u))
            pmin = float(np.max(yrows @ -u))
            scale = max(1.0, abs(ci), abs(pmax), abs(pmin))
            if ci > pmax + tol * scale or -ci > pmin + tol * scale:
                probe_bad[k] = True
    return probe_bad


def tied_rows(rng, shape):
    """Rows of small integers, signed zeros or Gaussian noise, so values
    tie, cancel to ``0.0`` or ``-0.0``, or stay generic."""
    kind = rng.integers(3)
    if kind == 0:
        return rng.integers(-2, 3, size=shape).astype(float)
    if kind == 1:
        return rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape)
    return rng.normal(size=shape)


def seeded_set_pair(rng, K, d, bounded_second=False):
    """Sets ``C`` and ``D`` with tied rows; ``D`` sits on a vertex of ``C``
    or is one of its points on some atoms, so the difference can touch
    the origin or be ``{0}``.  Ray and line families may be empty, and
    rays vanish on some atoms; with ``bounded_second`` the rays and lines
    of ``D`` are zero-norm rows."""
    space = MeasureSpace(np.ones(K))
    nc, nd = (int(n) for n in rng.integers(1, 5, 2))
    cp, dp = tied_rows(rng, (K, nc, d)), tied_rows(rng, (K, nd, d))
    onto = rng.random(K) < 0.3
    dp[onto] = cp[onto, :1]
    single = rng.random(K) < 0.2
    cp[single] = cp[single, :1]
    cr = tied_rows(rng, (K, int(rng.integers(0, 3)), d))
    cr *= rng.random(cr.shape[:2] + (1,)) < 0.5
    cl = tied_rows(rng, (K, int(rng.integers(0, 2)), d))
    if bounded_second:
        dr = rng.choice([-0.0, 0.0], size=(K, int(rng.integers(0, 3)), d))
        dl = rng.choice([-0.0, 0.0], size=(K, int(rng.integers(0, 2)), d))
    else:
        dr, dl = tied_rows(rng, (K, int(rng.integers(0, 2)), d)), np.zeros((K, 0, d))
    return space, ConvexSetRep(space, d, cp, cr, cl), ConvexSetRep(space, d, dp, dr, dl)


class TestStackedSetOps:
    """The stacked set ops give the bits of the per-atom loops they
    replaced, on seeded sets with ties, ``-0.0``, empty ray and line
    families and vanishing rays."""

    def test_affine_dims_match_per_atom_rank(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            K, d = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            _, c, _ = seeded_set_pair(rng, K, d)
            for tol in (RANK_TOL, 1e-6):
                want = [len(ref_direction_frame(np.vstack(
                    [c.points[k, 1:] - c.points[k, 0], c.rays[k], c.lines[k]]), tol))
                    for k in range(K)]
                assert c.affine_dims(tol).tolist() == want

    @pytest.mark.parametrize("kind", ["strong", "weak", "proper"])
    def test_separate_matches_per_atom_loops(self, kind):
        rng = np.random.default_rng(["strong", "weak", "proper"].index(kind) + 72)
        failures = 0
        for _ in range(25):
            K, d = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            _, c, dd = seeded_set_pair(rng, K, d)
            res = separate(c, dd, kind=kind)
            gap, excess = ref_gap_excess(res.normal.values, c, dd)
            assert same_bits(res.gap.values, gap)
            if kind == "proper":
                assert same_bits(res.strict_excess.values, excess)
                for k in range(K):
                    z, fail = ref_proper_normal(*ref_difference_rows(c, dd, k), d)
                    assert same_bits(res.normal.values[k], z)
                    assert res.failure_set.mask[k] == fail
            failures += res.failure_set.mask.sum()
        assert failures > 0

    def test_support_interval_on_signed_zero_ties(self):
        rng = np.random.default_rng(75)
        for _ in range(200):
            K, d = int(rng.integers(1, 10)), int(rng.integers(1, 5))
            _, c, _ = seeded_set_pair(rng, K, d)
            Z = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(K, d))
            lo, hi = sets._support_interval(Z, c)
            want = np.array([ref_support_bounds(Z[k], *c.generators_at(k), STRICT_TOL)
                             for k in range(K)]).reshape(K, 2)
            assert same_bits(lo, want[:, 0]) and same_bits(hi, want[:, 1])

    def test_discrete_membership_matches_per_atom_loop(self):
        rng = np.random.default_rng(76)
        for _ in range(60):
            K, d, n = int(rng.integers(1, 10)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
            space = MeasureSpace(np.ones(K))
            pts = tied_rows(rng, (K, n, d)) * 10.0 ** rng.integers(-3, 4, (K, 1, 1))
            rep = ConvexSetRep(space, d, pts, discrete=True)
            near = pts[np.arange(K), rng.integers(0, n, K)]
            step = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(K, d))
            cutoff = np.array([ref_member_cutoff(rep, near, k) for k in range(K)])
            # off a point by half, exactly one, or twice the cutoff
            x = near + step * cutoff[:, None] * rng.choice([0.5, 1.0, 2.0], (K, 1))
            region = rng.random(K) < 0.8
            got = membership(CondVector(space, x), rep, MeasurableSet(space, region))
            assert got.mask.tolist() == ref_discrete_membership(x, rep, region).tolist()

    def test_membership_region_must_share_the_space(self, space2, space3):
        seg = const_set(space2, [[0.0, 0.0], [1.0, 0.0]])
        for rep in (seg, ConvexSetRep(space2, 2, seg.points, discrete=True)):
            with pytest.raises(SpaceMismatchError):
                membership(CondVector.zero(space2, 2), rep, space3.full_set())

    def test_discrete_nearest_pair_matches_per_atom_loop(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            K, d = int(rng.integers(1, 12)), int(rng.integers(1, 13))
            nc, nd = (int(n) for n in rng.integers(1, 7, 2))
            space = MeasureSpace(np.ones(K))
            c = ConvexSetRep(space, d, tied_rows(rng, (K, nc, d)), discrete=True)
            dd = ConvexSetRep(space, d, tied_rows(rng, (K, nd, d)), discrete=True)
            xv, yv, gap = nearest_pair(c, dd)
            want = [ref_discrete_pair(c.points[k], dd.points[k]) for k in range(K)]
            assert same_bits(xv.values, np.array([w[0] for w in want]))
            assert same_bits(yv.values, np.array([w[1] for w in want]))
            assert same_bits(gap.values, (xv - yv).norm().values)

    def test_nearest_pair_ignores_zero_norm_rows_of_the_bounded_side(self):
        rng = np.random.default_rng(78)
        for _ in range(10):
            K, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            space, c, dd = seeded_set_pair(rng, K, d, bounded_second=True)
            bare = ConvexSetRep(space, d, dd.points)
            for got, want in zip(nearest_pair(c, dd), nearest_pair(c, bare)):
                assert same_bits(got.values, want.values)

    def test_probe_check_matches_per_atom_loop(self):
        rng = np.random.default_rng(79)
        caught = 0
        for _ in range(30):
            K, d, J = int(rng.integers(1, 10)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
            space = MeasureSpace(np.ones(K))
            Y = tied_rows(rng, (K, J, d))
            L = np.zeros((K, 2, d))
            for k in range(K):
                r = int(rng.integers(0, min(2, d) + 1))
                L[k] = tied_rows(rng, (2, r)) @ tied_rows(rng, (r, d))
            frame = orthonormalize(rank_partition([CondVector(space, L[:, i]) for i in range(2)]))
            # a point of the slope hull, pushed out of it on some atoms
            h = np.einsum("kj,kjd->kd", rng.dirichlet(np.ones(J), K), Y)
            h *= rng.choice([1.0, 1.0, 3.0], (K, 1))
            vals = np.einsum("kid,kd->ki", frame.rows, h)
            vals[np.arange(d)[None, :] >= frame.labels[:, None]] = 0.0
            want = ref_probe_bad(Y, frame.labels, frame.rows, vals)

            def extend(idx):
                sp = MeasureSpace(np.ones(len(idx)))
                lines = [CondVector(sp, L[idx, i]) for i in range(2)]
                e = ConvexSetRep(sp, d, [CondVector.zero(sp, d)], lines=lines)
                p = MaxAffineFn(sp, Y[idx], np.zeros((len(idx), J)))
                hahn_banach_extend(p, e, [CondScalar(sp, vals[idx, i]) for i in range(d)])

            try:
                extend(np.arange(K))
            except PreconditionError as err:
                if "exceed the bound" in str(err):
                    # the error names the union: the probe verdicts, and the
                    # atoms that pass them but have no dominated extension
                    assert (err.atoms | ~want).all()
                    for k in np.flatnonzero(err.atoms & ~want):
                        with pytest.raises(PreconditionError, match="no dominated extension"):
                            extend([k])
                    caught += 1
                    continue
            assert not want.any()
        assert caught >= 5


_SUPPORT_TIE_SCRIPT = """
import hashlib
import numpy as np
from stratalg import ConvexSetRep, CondVector, MaxAffineFn, MeasureSpace, separate
# 17 values a row: one past a multiple of the SIMD width, where the two
# dispatch levels resolve a 0.0/-0.0 tie of a contiguous min differently
K, d, n = 16, 5, 17
space = MeasureSpace(np.ones(K))
# coordinates of the smallest subnormal size: every point's value along a
# normal with entries of size at most 1/2 rounds to 0.0 or -0.0
tiny = [0.0, -0.0, 5e-324, -5e-324]
for seed in range(10):
    rng = np.random.default_rng([90, seed])
    cp, dp = rng.choice(tiny, (K, n, d)), rng.choice(tiny, (K, n, d))
    dp[:, 0] = -1.0  # D reaches out to -(1, ..., 1); the sets touch near 0
    c, dd = ConvexSetRep(space, d, cp), ConvexSetRep(space, d, dp)
    proper = separate(c, dd, "proper")
    out = [separate(c, dd, "weak").gap, proper.gap, proper.strict_excess]
    f = MaxAffineFn(space, rng.choice(tiny, (K, n, d)), rng.choice([0.0, -0.0], (K, n)))
    out.append(f.eval(CondVector(space, rng.choice(tiny, (K, d)))))
    print(*(hashlib.sha256(o.values.tobytes()).hexdigest() for o in out))
"""


class TestSupportTiePortability:
    """``separate``'s support bounds and ``MaxAffineFn.eval`` read a
    ``0.0``/``-0.0`` tie at the first attaining position, so their bytes do
    not depend on numpy's SIMD dispatch level."""

    def test_gap_excess_and_eval_bytes_do_not_depend_on_dispatch(self, both_dispatch_levels):
        default, reduced = both_dispatch_levels(_SUPPORT_TIE_SCRIPT)
        assert len(default) == 10 and default == reduced


class TestRelativeInteriorInOneLP:
    """``ri_membership`` solves only the tight-band margin LP; its verdicts
    are those of the two-stage ``ref_positivity_margin``."""

    def test_verdicts_match_the_two_stage_margin(self, monkeypatch):
        lps = []

        def counted(*args, **kwargs):
            lps.append(1)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(_solvers, "solve_lp", counted)
        verdicts = tested = 0
        for case in range(4):
            rng = np.random.default_rng([19, case])
            K, d = 40, int(rng.integers(1, 5))
            n, nr, nl = (int(rng.integers(lo, hi)) for lo, hi in ((1, 7), (0, 2), (0, 2)))
            space = MeasureSpace(np.ones(K))
            pts = rng.normal(size=(K, n, d))
            rep = ConvexSetRep(space, d, pts, rng.normal(size=(K, nr, d)),
                               rng.normal(size=(K, nl, d)))
            vertex = pts[np.arange(K), rng.integers(0, n, K)]
            other = pts[np.arange(K), rng.integers(0, n, K)]
            noise = rng.normal(size=(K, d)) * 10.0 ** rng.uniform(-13, -7, (K, 1))
            targets = [np.einsum("kn,knd->kd", rng.dirichlet(np.ones(n), K), pts), vertex,
                       (vertex + other) / 2, vertex + 100.0 * rng.normal(size=(K, d)),
                       vertex + noise]
            full = rep.affine_dims() == d
            for x in targets:
                margin = np.array([ref_positivity_margin(x[k], *rep.generators_at(k))
                                   for k in range(K)])
                for mode, strict_tol in itertools.product(("interior", "relative"),
                                                          (1e-9, 1e-6)):
                    del lps[:]
                    got = ri_membership(CondVector(space, x), rep, mode, strict_tol).mask
                    want = (margin > strict_tol) & (full if mode == "interior" else True)
                    assert got.tolist() == want.tolist()
                    # one LP per atom that reaches the margin test
                    assert len(lps) == (full.sum() if mode == "interior" else K)
                    verdicts += K
                    tested += want.sum()
        assert verdicts == 3200 and 0 < tested < verdicts


class TestMembershipByNearestPoint:
    """``membership`` reads the Euclidean norm of the nearest-point QP's
    gap where the former LP read a sup-norm residual; the verdicts agree
    away from the cutoff, and near it the QP can only be the stricter."""

    @staticmethod
    def seeded_queries(rng, K, d):
        space = MeasureSpace(np.ones(K))
        n = int(rng.integers(1, 6))
        pts = tied_rows(rng, (K, n, d)) * 10.0 ** rng.integers(-2, 3, (K, 1, 1))
        rays = tied_rows(rng, (K, int(rng.integers(0, 3)), d))
        lines = tied_rows(rng, (K, int(rng.integers(0, 2)), d))
        rep = ConvexSetRep(space, d, pts, rays, lines)
        vertex = pts[np.arange(K), rng.integers(0, n, K)]
        u = rng.normal(size=(K, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return space, rep, vertex, u

    def test_verdicts_agree_at_least_ten_cutoffs_away(self):
        rng = np.random.default_rng(81)
        checked = {True: 0, False: 0}
        for _ in range(30):
            K, d = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            space, rep, vertex, u = self.seeded_queries(rng, K, d)
            inner = np.einsum("kn,knd->kd", rng.dirichlet(np.ones(rep.points.shape[1]), K),
                              rep.points)
            for x in (inner, vertex + u * rng.uniform(0.1, 10.0, (K, 1))):
                cutoff = np.array([ref_member_cutoff(rep, x, k) for k in range(K)])
                got = membership(CondVector(space, x), rep).mask
                for k in range(K):
                    resid = ref_combination_residual(x[k], *rep.generators_at(k))
                    if resid <= cutoff[k] / 10.0 or resid >= 10.0 * cutoff[k]:
                        assert got[k] == (resid <= cutoff[k])
                        checked[bool(got[k])] += 1
        assert min(checked.values()) >= 50

    def test_distance_verdicts_make_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was built")

        monkeypatch.setattr(_solvers, "solve_lp", no_lp)
        monkeypatch.setattr(functions, "solve_lp", no_lp)
        space, rep, _, u = self.seeded_queries(np.random.default_rng(83), 6, 3)
        rep = rep.translate(CondVector(space, -rep.points[:, 0]))
        x = CondVector(space, u)
        membership(x, rep)
        bounded_test(rep)
        MaxAffineFn(space, rep.points, np.zeros(rep.points.shape[:2]), domain=rep).eval(x)
        hahn_banach_extend(TestHahnBanach().sup_norm_bound(space),
                           hull([CondVector.constant(space, [1.0, 0.0])], "linear"),
                           [CondScalar.constant(space, 0.5)])

    def test_near_the_cutoff_the_qp_only_removes_members(self):
        rng = np.random.default_rng(82)
        changed = close = 0
        for _ in range(40):
            K, d = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            space, rep, vertex, u = self.seeded_queries(rng, K, d)
            cutoff = np.array([ref_member_cutoff(rep, vertex, k) for k in range(K)])
            x = vertex + u * cutoff[:, None] * 10.0 ** rng.uniform(-1.5, 1.5, (K, 1))
            cutoff = np.array([ref_member_cutoff(rep, x, k) for k in range(K)])
            got = membership(CondVector(space, x), rep).mask
            # a point closer than the cutoff to a vertex is a member
            near = np.linalg.norm(x - vertex, axis=1) < cutoff * (1.0 - 1e-9)
            assert got[near].all()
            close += near.sum()
            for k in range(K):
                was = ref_combination_residual(x[k], *rep.generators_at(k)) <= cutoff[k]
                if got[k] != was:
                    one = slice(k, k + 1)  # the QP of atom k alone, a stack of one
                    gap = min_norm_point(rep.points[one] - x[k], rep.rays[one],
                                         rep.lines[one]).point[0]
                    assert was and not got[k]
                    assert np.linalg.norm(gap) > cutoff[k]
                    changed += 1
        assert changed > 0 and close > 0


class TestNoNormalCertificate:
    """``cone_spans`` certifies the atoms of weak and proper separation whose
    difference cone spans its space, so that the dual cone is ``{0}`` and
    ``separate`` skips the dual-cone scan.  A certified atom's scan finds no
    normal; touching pairs and planar differences are never certified."""

    @staticmethod
    def cones(rng, n, kind, depths):
        """The weak-separation cone stacks ``([pts | rays], lines)`` of
        ``C - D`` for ``D = C + (1 - depth) e_1``, rotated: ``C`` is the unit
        cube with two inner points, so the origin lies in ``C - D`` at
        ``depth`` from its boundary.  ``planar`` flattens both sets into a
        hyperplane, and ``lines`` trades the cube's last axis for a line."""
        K = len(depths)
        space = MeasureSpace(np.ones(K))
        cube = np.array(list(itertools.product([0.0, 1.0], repeat=n)))
        pts = np.concatenate([np.broadcast_to(cube, (K,) + cube.shape),
                              rng.uniform(0.0, 1.0, (K, 2, n))], axis=1)
        lines = np.zeros((K, 0, n))
        if kind in ("planar", "lines"):
            pts[:, :, -1] = 0.0
        if kind == "lines":
            lines = np.broadcast_to(np.eye(n)[-1], (K, 1, n))
        q = np.linalg.qr(rng.normal(size=(K, n, n)))[0]
        shift = (1.0 - np.asarray(depths))[:, None] * np.eye(n)[0]
        c = ConvexSetRep(space, n, pts @ q, lines=lines @ q)
        d = ConvexSetRep(space, n, (pts + shift[:, None]) @ q, lines=lines @ q)
        diff_pts, rays, diff_lines = sets._difference(c, d)
        return np.concatenate([diff_pts, rays], axis=1), diff_lines

    @staticmethod
    def normals(ineq, eq) -> list:
        """The atoms on which the dual-cone scan finds a normal."""
        model = dual_cone_model(ineq, eq)
        return [k for k in range(len(ineq)) if nonzero_in_dual_cone(model, k) is not None]

    def test_certified_atoms_have_no_normal(self):
        # overlap depths 2^-j for j = 0..40, each stack at the scales 2^0
        # and 2^+-30; the scan runs on every certified atom at its scale
        rng = np.random.default_rng(91)
        depths = 2.0 ** -np.arange(41)
        certified = {0: 0, 30: 0, -30: 0}
        for n in (2, 3, 4):
            for kind in ("overlap", "lines", "touch", "planar"):
                ineq, eq = self.cones(rng, n, kind, [0.0] if kind == "touch" else depths)
                for e in certified:
                    rows = ineq * 2.0 ** e, eq * 2.0 ** e
                    k = np.flatnonzero(cone_spans(*rows))
                    if kind in ("touch", "planar"):
                        assert not k.size, (n, kind, e)
                    assert self.normals(rows[0][k], rows[1][k]) == [], (n, kind, e)
                    certified[e] += len(k)
                    if e >= 0 and kind in ("overlap", "lines"):
                        assert k[:1].tolist() == [0], (n, kind, e)  # the depth-1 overlap
        assert min(certified[0], certified[30]) >= 24, certified
