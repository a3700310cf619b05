"""Max-affine and grid functions: transforms, derivatives, minimization.

Fixed expected values were computed with the slow reference routines in
``oracles`` (double-loop transforms, brute splittings, hull envelopes,
face enumeration) and frozen into the assertions.
"""

import numpy as np
import pytest

import oracles

from stratalg import (
    ArgminResult,
    CondScalar,
    CondVector,
    ConvexSetRep,
    Grid,
    GridFn,
    MaxAffineFn,
    MeasurableSet,
    MeasureSpace,
    PreconditionError,
    ShapeError,
    SolverError,
    UnboundedError,
    argmin,
    bounded_subgradient,
    conjugate,
    default_dual_grid,
    differentiability_check,
    directional_derivative,
    fenchel_moreau_check,
    inf_convolution,
    infconv_checks,
    subdifferential,
    sublinear_support,
)
from stratalg import functions
from stratalg._solvers import LPResult


def pieces_from(space, slopes, offsets=None):
    offsets = offsets if offsets is not None else [0.0] * len(slopes)
    return tuple(
        (CondVector.constant(space, np.atleast_1d(s)), CondScalar.constant(space, o))
        for s, o in zip(slopes, offsets)
    )


def abs_fn(space, domain=None):
    return MaxAffineFn.from_pieces(pieces_from(space, [1.0, -1.0]), domain=domain)


def box1d(space, lo, hi):
    return ConvexSetRep(
        space=space,
        dim=1,
        points=(CondVector.constant(space, [lo]), CondVector.constant(space, [hi])),
    )


def real_line(space):
    return ConvexSetRep(
        space=space,
        dim=1,
        points=(CondVector.zero(space, 1),),
        lines=(CondVector.constant(space, [1.0]),),
    )


def grid_fn(space, grid, per_node):
    vals = np.tile(np.asarray(per_node, dtype=float), (space.natoms,) + (1,) * np.ndim(per_node))
    return GridFn(space, grid, vals)


class TestMaxAffine:
    def test_eval_matches_manual_max(self, space3, rng):
        slopes = rng.normal(size=(4, 2))
        offs = rng.normal(size=4)
        f = MaxAffineFn.from_pieces(pieces_from(space3, slopes, offs))
        x = CondVector(space3, rng.normal(size=(3, 2)))
        want = (x.values @ slopes.T + offs).max(axis=1)
        assert np.allclose(f.eval(x).values, want)
        assert f.piece_values(x).shape == (3, 4)

    def test_domain_gives_plus_infinity(self, space2):
        f = abs_fn(space2, domain=box1d(space2, 0.0, 1.0))
        inside = CondVector.constant(space2, [0.5])
        outside = CondVector.constant(space2, [2.0])
        assert f.eval(inside).finite_set.is_full
        assert np.all(np.isposinf(f.eval(outside).values))

    def test_active_at(self, space2):
        f = abs_fn(space2)
        at_kink = f.active_at(CondVector.zero(space2, 1))
        assert at_kink.tolist() == [[True, True], [True, True]]
        right = f.active_at(CondVector.constant(space2, [2.0]))
        assert right.tolist() == [[True, False], [True, False]]

    def test_needs_pieces(self):
        with pytest.raises(ShapeError):
            MaxAffineFn.from_pieces(())


class TestGrid:
    def test_axes_and_nodes(self):
        g = Grid((-1.0, 0.0), (1.0, 2.0), (0.5, 1.0))
        assert g.ndim == 2
        assert g.shape == (5, 3)
        assert np.allclose(g.axis(0), [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert g.nodes().shape == (15, 2)
        assert g.origin_offsets() == (2, 0)

    def test_validation(self):
        with pytest.raises(ShapeError):
            Grid((0.0,), (1.0,), (0.3,))  # extent not a whole number of steps
        with pytest.raises(ShapeError):
            Grid((0.0,), (-1.0,), (0.5,))
        with pytest.raises(ShapeError):
            Grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ShapeError):
            Grid((0.5,), (1.5,), (0.5,)).origin_offsets()
        with pytest.raises(ShapeError):
            Grid((0.5,), (2.5,), (0.5,)).origin_offsets()  # 0 on the lattice but off the grid


class TestGridFn:
    def test_node_eval_is_exact(self, space2):
        g = Grid((-1.0,), (1.0,), (0.5,))
        f = grid_fn(space2, g, [2.0, 1.0, 0.0, 1.0, 2.0])
        x = CondVector.constant(space2, [-0.5])
        assert np.array_equal(f.eval(x).values, [1.0, 1.0])

    def test_linear_interpolation(self, space2):
        g = Grid((0.0,), (1.0,), (1.0,))
        f = grid_fn(space2, g, [0.0, 4.0])
        x = CondVector.constant(space2, [0.25])
        assert np.allclose(f.eval(x).values, 1.0)

    def test_bilinear_interpolation(self, space2, rng):
        g = Grid((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
        corner = rng.normal(size=(2, 2))
        f = grid_fn(space2, g, corner)
        for _ in range(10):
            t = rng.uniform(size=2)
            x = CondVector.constant(space2, t)
            want = (
                corner[0, 0] * (1 - t[0]) * (1 - t[1])
                + corner[0, 1] * (1 - t[0]) * t[1]
                + corner[1, 0] * t[0] * (1 - t[1])
                + corner[1, 1] * t[0] * t[1]
            )
            assert np.allclose(f.eval(x).values, want)

    def test_infinite_cell_dominates(self, space2):
        g = Grid((0.0,), (1.0,), (1.0,))
        f = grid_fn(space2, g, [0.0, np.inf])
        x = CondVector.constant(space2, [0.5])
        assert np.all(np.isposinf(f.eval(x).values))
        # at the finite node itself the value stays finite
        assert np.array_equal(f.eval(CondVector.zero(space2, 1)).values, [0.0, 0.0])

    def test_off_grid_rejected(self, space2):
        g = Grid((0.0,), (1.0,), (1.0,))
        f = grid_fn(space2, g, [0.0, 1.0])
        with pytest.raises(PreconditionError):
            f.eval(CondVector.constant(space2, [2.0]))

    def test_proper_set(self, space2):
        g = Grid((0.0,), (1.0,), (1.0,))
        vals = np.array([[0.0, 1.0], [np.inf, np.inf]])
        f = GridFn(space2, g, vals)
        assert f.proper_set.mask.tolist() == [True, False]
        with pytest.raises(ShapeError):
            GridFn(space2, g, np.array([[0.0, np.nan], [0.0, 0.0]]))


class TestConjugate:
    def test_abs_on_grid(self, space2):
        g = Grid((-2.0,), (2.0,), (0.5,))
        xs = g.axis(0)
        f = grid_fn(space2, g, np.abs(xs))
        dual = Grid((-2.0,), (2.0,), (0.5,))
        fstar = conjugate(f, dual)
        ys = dual.axis(0)
        want = np.where(np.abs(ys) <= 1.0, 0.0, 2.0 * (np.abs(ys) - 1.0))
        assert np.allclose(fstar.values, want[None, :], atol=1e-12)

    def test_matches_slow_oracle_1d(self, rng):
        space = MeasureSpace(np.ones(2))
        g = Grid((-1.0,), (1.0,), (0.25,))
        xs = g.axis(0)
        vals = rng.normal(size=(2, len(xs)))
        vals[0, rng.integers(len(xs))] = np.inf
        f = GridFn(space, g, vals)
        dual = Grid((-3.0,), (3.0,), (0.5,))
        fstar = conjugate(f, dual)
        for k in range(2):
            want = oracles.grid_conjugate_slow(xs, vals[k], dual.axis(0))
            assert np.allclose(fstar.values[k], want, atol=1e-12)

    def test_matches_slow_oracle_2d(self, rng):
        space = MeasureSpace(np.ones(1))
        g = Grid((-1.0, -1.0), (1.0, 1.0), (0.5, 0.5))
        vals = rng.normal(size=(1,) + g.shape)
        f = GridFn(space, g, vals)
        dual = Grid((-2.0, -2.0), (2.0, 2.0), (1.0, 1.0))
        fstar = conjugate(f, dual)
        nodes = g.nodes()
        flat = vals[0].ravel()
        for j, y in enumerate(dual.nodes()):
            want = np.max(nodes @ y - flat)
            assert fstar.values[0].ravel()[j] == pytest.approx(want, abs=1e-12)

    def test_max_affine_routes_agree(self, space2):
        # LP route on the true function vs discrete route on its samples
        dom = box1d(space2, -1.0, 1.0)
        f = abs_fn(space2, domain=dom)
        dual = Grid((-2.0,), (2.0,), (0.5,))
        via_lp = conjugate(f, dual)
        g = Grid((-1.0,), (1.0,), (0.25,))
        xs = g.axis(0)
        sampled = grid_fn(space2, g, np.abs(xs))
        via_nodes = conjugate(sampled, dual)
        assert np.allclose(via_lp.values, via_nodes.values, atol=1e-9)
        ys = dual.axis(0)
        want = np.maximum(np.abs(ys) - 1.0, 0.0)
        assert np.allclose(via_lp.values, want[None, :], atol=1e-9)

    def test_unbounded_direction_gives_plus_inf(self, space2):
        f = MaxAffineFn.from_pieces(pieces_from(space2, [1.0]))  # f(x) = x
        dual = Grid((-1.0,), (3.0,), (1.0,))
        fstar = conjugate(f, dual)
        ys = dual.axis(0)
        want = np.where(ys == 1.0, 0.0, np.inf)
        assert np.array_equal(fstar.values, np.tile(want, (2, 1)))

    def test_lp_failures_carry_every_atom(self, monkeypatch):
        # a node LP fails on atoms 1 and 3; the error must name both, and
        # every node of every atom is still solved
        space = MeasureSpace(np.ones(4))
        dual = Grid((-2.0,), (2.0,), (1.0,))
        calls = []
        real = functions.solve_lp

        def fake(c, **kw):
            atom, node = divmod(len(calls), 5)
            calls.append(atom)
            if (atom, node) in ((1, 0), (3, 4)):
                return LPResult(4, None, None)
            return real(c, **kw)

        monkeypatch.setattr(functions, "solve_lp", fake)
        with pytest.raises(SolverError) as err:
            conjugate(abs_fn(space, domain=box1d(space, -1.0, 1.0)), dual)
        assert err.value.atoms.tolist() == [False, True, False, True]
        assert len(calls) == 4 * 5


class TestDefaultDualGrid:
    def test_covers_slopes_oddly(self, space2):
        g = Grid((-2.0,), (2.0,), (0.5,))
        xs = g.axis(0)
        f = grid_fn(space2, g, 3.0 * np.abs(xs))
        dual = default_dual_grid(f)
        assert dual.maxs[0] >= 4.0  # slope 3, plus one
        n = dual.shape[0]
        assert n % 2 == 1
        assert dual.origin_offsets() == (n // 2,)

    def test_requires_1d(self, space2):
        g = Grid((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
        f = grid_fn(space2, g, np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            default_dual_grid(f)


class TestFenchelMoreau:
    def test_convex_data_is_reproduced(self, space2):
        g = Grid((-2.0,), (2.0,), (0.25,))
        xs = g.axis(0)
        f = grid_fn(space2, g, xs**2)
        rep = fenchel_moreau_check(f)
        assert rep.minorant_ok.is_full
        assert rep.idempotent_ok.is_full
        assert np.all(rep.max_deviation.values <= 2.0 * 0.25)
        assert np.allclose(rep.envelope.values, f.values, atol=1e-9)

    def test_nonconvex_data_meets_envelope(self, space2):
        g = Grid((-2.0,), (2.0,), (0.25,))
        xs = g.axis(0)
        vals = (xs**2 - 1.0) ** 2  # double well
        f = grid_fn(space2, g, vals)
        rep = fenchel_moreau_check(f)
        env = oracles.lower_envelope(xs, vals)
        assert np.allclose(rep.envelope.values, env[None, :], atol=1e-9)
        assert rep.minorant_ok.is_full
        assert np.all(rep.max_deviation.values <= 2.0 * 0.25)
        # the biconjugate drops strictly below the data between the wells
        mid = len(xs) // 2
        assert rep.biconjugate.values[0, mid] < vals[mid] - 0.5

    def test_domain_wings(self, space2):
        g = Grid((-2.0,), (2.0,), (0.25,))
        xs = g.axis(0)
        vals = np.where(np.abs(xs) <= 1.0, np.abs(xs), np.inf)
        f = grid_fn(space2, g, vals)
        rep = fenchel_moreau_check(f)
        assert rep.minorant_ok.is_full and rep.idempotent_ok.is_full
        fin = np.isfinite(vals)
        assert np.allclose(rep.biconjugate.values[0][fin], vals[fin], atol=2.0 * 0.25)

    def test_input_validation(self, space2):
        g = Grid((0.0,), (1.0,), (1.0,))
        with pytest.raises(PreconditionError):
            fenchel_moreau_check(GridFn(space2, g, np.array([[0.0, -np.inf]] * 2)))
        g2 = Grid((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ShapeError):
            fenchel_moreau_check(grid_fn(space2, g2, np.zeros((2, 2))))


class TestSubdifferential:
    def test_abs_at_kink_and_away(self, space2):
        f = abs_fn(space2)
        at0 = subdifferential(f, CondVector.zero(space2, 1))
        assert np.allclose(at0.representative.values, 0.0)
        assert at0.active.all()
        at2 = subdifferential(f, CondVector.constant(space2, [2.0]))
        assert np.allclose(at2.representative.values, 1.0)
        assert np.array_equal(at2.generator_rows(0), [[1.0]])

    def test_min_norm_matches_face_enumeration(self, rng):
        space = MeasureSpace(np.ones(2))
        for _ in range(20):
            m, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            slopes = rng.normal(size=(m, d))
            # all pieces pass through the origin: every slope is active
            f = MaxAffineFn.from_pieces(pieces_from(space, slopes))
            rep = subdifferential(f, CondVector.zero(space, d)).representative
            want = oracles.min_norm_in_hull(slopes)
            assert np.linalg.norm(rep.values[0]) == pytest.approx(
                np.linalg.norm(want), abs=1e-6
            )

    def test_requires_relative_interior(self, space2):
        f = abs_fn(space2, domain=box1d(space2, 0.0, 1.0))
        with pytest.raises(PreconditionError):
            subdifferential(f, CondVector.zero(space2, 1))
        got = subdifferential(f, CondVector.constant(space2, [0.5]))
        assert np.allclose(got.representative.values, 1.0)


class TestBoundedSubgradient:
    def test_within_budget(self, space2):
        f = abs_fn(space2)
        y = bounded_subgradient(f, CondVector.zero(space2, 1), CondScalar.constant(space2, 1.0))
        assert np.all(y.norm().values <= 1.0 + 1e-6)
        # the growth bound with slack still admits the zero subgradient
        y2 = bounded_subgradient(f, CondVector.zero(space2, 1), CondScalar.constant(space2, 0.5))
        assert np.all(y2.norm().values <= 0.5 + 1e-6)

    def test_probe_audit_catches_linear_growth(self, space2):
        f = MaxAffineFn.from_pieces(pieces_from(space2, [1.0]))
        with pytest.raises(PreconditionError, match="probe"):
            bounded_subgradient(
                f, CondVector.zero(space2, 1), CondScalar.constant(space2, 0.5)
            )

    def test_slope_geometry_catches_local_violation(self, space2):
        # the violating region is tiny, so distant probes all pass
        f = MaxAffineFn.from_pieces(pieces_from(space2, [-0.6, 1.0], [0.0, -0.1]))
        with pytest.raises(PreconditionError, match="slope geometry"):
            bounded_subgradient(
                f, CondVector.zero(space2, 1), CondScalar.constant(space2, 0.5)
            )


class TestDirectionalDerivative:
    def test_abs_function(self, space2):
        f = abs_fn(space2)
        x0 = CondVector.zero(space2, 1)
        up = CondVector.constant(space2, [1.0])
        down = CondVector.constant(space2, [-1.0])
        assert np.array_equal(directional_derivative(f, x0, up).values, [1.0, 1.0])
        assert np.array_equal(directional_derivative(f, x0, down).values, [1.0, 1.0])
        at2 = CondVector.constant(space2, [2.0])
        assert np.array_equal(directional_derivative(f, at2, down).values, [-1.0, -1.0])

    def test_domain_boundary_blows_up(self, space2):
        f = abs_fn(space2, domain=box1d(space2, 0.0, 1.0))
        x0 = CondVector.zero(space2, 1)
        down = CondVector.constant(space2, [-1.0])
        up = CondVector.constant(space2, [1.0])
        assert np.all(np.isposinf(directional_derivative(f, x0, down).values))
        assert np.array_equal(directional_derivative(f, x0, up).values, [1.0, 1.0])

    def test_outside_domain_rejected(self, space2):
        f = abs_fn(space2, domain=box1d(space2, 0.0, 1.0))
        with pytest.raises(PreconditionError):
            directional_derivative(
                f, CondVector.constant(space2, [5.0]), CondVector.constant(space2, [1.0])
            )


class TestDifferentiability:
    def test_kink_vs_smooth(self, space2):
        f = abs_fn(space2)
        ok, grad = differentiability_check(f, CondVector.zero(space2, 1))
        assert ok.is_empty
        assert not grad.values.any()
        ok2, grad2 = differentiability_check(f, CondVector.constant(space2, [-3.0]))
        assert ok2.is_full
        assert np.allclose(grad2.values, -1.0)

    def test_domain_boundary_not_differentiable(self, space2):
        f = MaxAffineFn.from_pieces(
            pieces_from(space2, [1.0]), domain=box1d(space2, 0.0, 1.0)
        )
        ok, _ = differentiability_check(f, CondVector.zero(space2, 1))
        assert ok.is_empty
        ok2, grad2 = differentiability_check(f, CondVector.constant(space2, [0.5]))
        assert ok2.is_full and np.allclose(grad2.values, 1.0)


class TestArgmin:
    def test_abs_over_intervals(self, space2):
        f = abs_fn(space2)
        res = argmin(f, box1d(space2, -2.0, 3.0))
        assert np.allclose(res.value.values, 0.0, atol=1e-7)
        assert np.allclose(res.minimizer.values, 0.0, atol=1e-7)
        assert res.unique_set.is_full
        res2 = argmin(f, box1d(space2, 1.0, 3.0))
        assert np.allclose(res2.value.values, 1.0, atol=1e-7)
        assert np.allclose(res2.minimizer.values, 1.0, atol=1e-7)

    def test_two_dim_frozen(self, space2):
        slopes = [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        f = MaxAffineFn.from_pieces(pieces_from(space2, slopes))
        sq = ConvexSetRep(
            space=space2,
            dim=2,
            points=tuple(
                CondVector.constant(space2, p)
                for p in ([-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0])
            ),
        )
        res = argmin(f, sq)
        assert np.allclose(res.value.values, 0.0, atol=1e-7)
        assert np.allclose(res.minimizer.values, 0.0, atol=1e-7)
        assert res.unique_set.is_full

    def test_matches_vertex_oracle(self, rng):
        space = MeasureSpace(np.ones(2))
        for _ in range(15):
            P = rng.normal(size=(5, 2)) * 2
            slopes = rng.normal(size=(3, 2))
            offs = rng.normal(size=3)
            f = MaxAffineFn.from_pieces(pieces_from(space, slopes, offs))
            c = ConvexSetRep(
                space=space,
                dim=2,
                points=tuple(CondVector.constant(space, p) for p in P),
            )
            res = argmin(f, c)
            want, _ = oracles.argmin_pl(P, slopes, offs)
            assert np.allclose(res.value.values, want, atol=1e-7)

    def test_stratified_minimizers(self, space2):
        # the feasible box moves per atom, so the minimizer must follow
        f = abs_fn(space2)
        lo = CondVector(space2, [[1.0], [-5.0]])
        hi = CondVector(space2, [[3.0], [-2.0]])
        c = ConvexSetRep(space=space2, dim=1, points=(lo, hi))
        res = argmin(f, c)
        assert np.allclose(res.minimizer.values, [[1.0], [-2.0]], atol=1e-7)
        assert np.allclose(res.value.values, [1.0, 2.0], atol=1e-7)

    def test_flat_face_is_not_unique(self, space2):
        f = MaxAffineFn.from_pieces(pieces_from(space2, [1.0, 0.0]))
        res = argmin(f, box1d(space2, -2.0, 2.0))
        assert np.allclose(res.value.values, 0.0, atol=1e-7)
        assert res.unique_set.is_empty

    def test_empty_feasible_atom_gets_inf(self, space2):
        f = abs_fn(space2, domain=box1d(space2, 2.0, 3.0))
        res = argmin(f, box1d(space2, 0.0, 1.0))
        assert np.all(np.isposinf(res.value.values))
        assert res.unique_set.is_empty

    def test_unbounded_raises_with_witness(self, space2):
        f = MaxAffineFn.from_pieces(pieces_from(space2, [1.0]))
        ray = CondVector.constant(space2, [-1.0])
        c = ConvexSetRep(
            space=space2, dim=1, points=(CondVector.zero(space2, 1),), rays=(ray,)
        )
        with pytest.raises(UnboundedError) as err:
            argmin(f, c)
        assert err.value.atoms.all()
        w = err.value.witness.values
        assert np.all(w @ np.array([1.0]) < 0)

    def test_domain_recession_is_intersected(self, space2):
        # the feasible set is c meets dom, so its recession cone is the
        # intersection: a line in dom must not make a bounded box unbounded
        x = pieces_from(space2, [1.0])
        f = MaxAffineFn.from_pieces(x, domain=real_line(space2))
        res = argmin(f, box1d(space2, -2.0, 3.0))
        assert np.allclose(res.value.values, -2.0, atol=1e-7)
        assert np.allclose(res.minimizer.values, -2.0, atol=1e-7)
        # x over all of R with the domain [0, +inf) is bounded below by 0
        half = ConvexSetRep(
            space=space2,
            dim=1,
            points=(CondVector.zero(space2, 1),),
            rays=(CondVector.constant(space2, [1.0]),),
        )
        res = argmin(MaxAffineFn.from_pieces(x, domain=half), real_line(space2))
        assert np.allclose(res.value.values, 0.0, atol=1e-7)
        assert np.allclose(res.minimizer.values, 0.0, atol=1e-7)

    def test_domain_recession_still_unbounded(self, space2):
        # x over R with the domain (-inf, 0] on atom 1 only: unbounded there
        left = ConvexSetRep(
            space=space2,
            dim=1,
            points=(CondVector.zero(space2, 1),),
            rays=(CondVector(space2, [[0.0], [-1.0]]),),
        )
        f = MaxAffineFn.from_pieces(pieces_from(space2, [1.0]), domain=left)
        with pytest.raises(UnboundedError) as err:
            argmin(f, real_line(space2))
        assert err.value.atoms.tolist() == [False, True]
        assert err.value.witness.values[1, 0] < 0

    @pytest.mark.parametrize("status, error", [(3, UnboundedError), (4, SolverError)])
    def test_lp_failures_carry_every_atom(self, monkeypatch, status, error):
        # atoms 1 and 3 fail; the error must name both, not the first one
        space = MeasureSpace(np.ones(4))
        calls = []
        real = functions.solve_lp

        def fake(c, **kw):
            if c[1] == 1.0:  # the epigraph LP of an atom, not a uniqueness box
                atom = len(calls)
                calls.append(atom)
                if atom in (1, 3):
                    return LPResult(status, None, None)
            return real(c, **kw)

        monkeypatch.setattr(functions, "solve_lp", fake)
        with pytest.raises(error) as err:
            argmin(abs_fn(space), box1d(space, -2.0, 3.0))
        assert err.value.atoms.tolist() == [False, True, False, True]
        assert len(calls) == 4


class TestInfConvolution:
    def grid(self):
        return Grid((-2.0,), (2.0,), (0.5,))

    def test_abs_pair_frozen(self, space2):
        g = self.grid()
        xs = g.axis(0)
        f = grid_fn(space2, g, np.abs(xs))
        res = inf_convolution([f, f])
        want = np.abs(xs)  # |.| is its own min-plus square
        assert np.allclose(res.value.values, want[None, :])
        assert np.all(res.input_convexity_defect.values <= 1e-12)
        assert np.all(res.output_convexity_defect.values <= 1e-12)

    def test_matches_brute_oracle(self, rng):
        space = MeasureSpace(np.ones(2))
        g = self.grid()
        n = g.shape[0]
        (q,) = g.origin_offsets()
        vals1 = rng.normal(size=(2, n))
        vals2 = rng.normal(size=(2, n))
        vals1[:, :2] = np.inf
        vals2[0, -1] = np.inf
        res = inf_convolution([GridFn(space, g, vals1), GridFn(space, g, vals2)])
        for k in range(2):
            want, _ = oracles.brute_infconv(vals1[k], vals2[k], q)
            assert np.array_equal(res.value.values[k], want)

    def test_splitting_reconstructs_value(self, rng):
        space = MeasureSpace(np.ones(1))
        g = self.grid()
        n = g.shape[0]
        vals1 = rng.normal(size=(1, n))
        vals2 = rng.normal(size=(1, n))
        f1, f2 = GridFn(space, g, vals1), GridFn(space, g, vals2)
        res = inf_convolution([f1, f2])
        xs = g.axis(0)
        for node in range(n):
            parts = res.parts_at(node)
            assert len(parts) == 2
            x1, x2 = parts[0].values[0, 0], parts[1].values[0, 0]
            assert x1 + x2 == pytest.approx(xs[node], abs=1e-12)
            i1 = res.split_indices[0][0, node]
            i2 = res.split_indices[1][0, node]
            total = vals1[0, i1] + vals2[0, i2]
            assert res.value.values[0, node] == pytest.approx(total, abs=1e-12)

    def test_three_way_fold_matches_pairwise_oracle(self, rng):
        space = MeasureSpace(np.ones(1))
        g = self.grid()
        n, (q,) = g.shape[0], g.origin_offsets()
        vs = [rng.normal(size=(1, n)) for _ in range(3)]
        fs = [GridFn(space, g, v) for v in vs]
        res = inf_convolution(fs)
        step1, _ = oracles.brute_infconv(vs[0][0], vs[1][0], q)
        want, _ = oracles.brute_infconv(step1, vs[2][0], q)
        assert np.allclose(res.value.values[0], want)
        # splitting indices reconstruct the values through the fold
        xs = g.axis(0)
        for node in range(n):
            ids = [s[0, node] for s in res.split_indices]
            assert sum(xs[i] for i in ids) == pytest.approx(xs[node], abs=1e-12)
            total = sum(v[0, i] for v, i in zip(vs, ids))
            assert res.value.values[0, node] == pytest.approx(total, abs=1e-12)

    def test_origin_indicator_is_neutral(self, space2, rng):
        g = self.grid()
        n, (q,) = g.shape[0], g.origin_offsets()
        vals = rng.normal(size=(2, n))
        f = GridFn(space2, g, vals)
        delta = np.full(n, np.inf)
        delta[q] = 0.0
        d0 = grid_fn(space2, g, delta)
        assert np.array_equal(inf_convolution([f, d0]).value.values, vals)
        assert np.array_equal(inf_convolution([d0, f]).value.values, vals)

    def test_grid_preconditions(self, space2):
        g = self.grid()
        other = Grid((-1.0,), (1.0,), (0.5,))
        f = grid_fn(space2, g, np.zeros(g.shape[0]))
        h = grid_fn(space2, other, np.zeros(other.shape[0]))
        with pytest.raises(ShapeError):
            inf_convolution([f, h])
        shifted = Grid((0.5,), (2.5,), (0.5,))
        s = grid_fn(space2, shifted, np.zeros(5))
        with pytest.raises(ShapeError):
            inf_convolution([s, s])

    def test_nonconvex_input_is_reported(self, space2):
        g = self.grid()
        xs = g.axis(0)
        vals = -np.abs(xs)  # concave kink
        f = grid_fn(space2, g, vals)
        res = inf_convolution([f, f])
        assert np.all(res.input_convexity_defect.values > 0.1)


class TestInfConvChecks:
    def test_convex_pair_passes_all_audits(self, space2):
        g = Grid((-2.0,), (2.0,), (0.25,))
        xs = g.axis(0)
        v1 = np.where(np.abs(xs) <= 0.75, xs**2, np.inf)
        v2 = np.where(np.abs(xs) <= 0.75, np.abs(xs), np.inf)
        f1, f2 = grid_fn(space2, g, v1), grid_fn(space2, g, v2)
        conv = inf_convolution([f1, f2])
        checks = infconv_checks([f1, f2], conv)
        assert np.all(checks.additivity_defect.values <= 2.0 * 0.25)
        assert checks.subdiff_ok.is_full
        assert checks.interior_ok.is_full

    def test_checks_recompute_convolution_when_missing(self, space2):
        g = Grid((-2.0,), (2.0,), (0.25,))
        xs = g.axis(0)
        vals = np.where(np.abs(xs) <= 0.75, xs**2, np.inf)
        f = grid_fn(space2, g, vals)
        checks = infconv_checks([f, f])
        assert np.all(checks.additivity_defect.values <= 2.0 * 0.25)

    def test_truncated_carrier_breaks_additivity(self, space2):
        # the optimal unconstrained split sums outside the carrier, so
        # the conjugate identity must degrade and the audit must say so
        g = Grid((-1.0,), (1.0,), (0.5,))
        xs = g.axis(0)
        f = grid_fn(space2, g, xs**2)
        checks = infconv_checks([f, f])
        assert np.all(checks.additivity_defect.values > 1.0)


class TestSublinearSupport:
    def test_returns_slopes(self, space2):
        slopes = [[1.0, 0.0], [0.0, 1.0]]
        f = MaxAffineFn.from_pieces(pieces_from(space2, slopes))
        got = sublinear_support(f)
        assert len(got) == 2
        assert np.allclose(got[0].values, [[1.0, 0.0], [1.0, 0.0]])

    def test_offsets_rejected(self, space2):
        f = MaxAffineFn.from_pieces(pieces_from(space2, [[1.0, 0.0]], [1.0]))
        with pytest.raises(PreconditionError):
            sublinear_support(f)
