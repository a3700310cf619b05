"""Max-affine and grid functions: transforms, derivatives, minimization.

Fixed expected values were computed with the slow reference routines in
``oracles`` (double-loop transforms, brute splittings, hull envelopes,
face enumeration) and frozen into the assertions.

The grid kernels run stacked over atoms.  The per-atom kernels they
replaced live on below as references (``ref_*``): the dense ``(n, m)``
Legendre table, the per-atom min-plus table with its ``argmin``, the
per-node audit loops and the per-atom, per-corner ``GridFn.eval`` loop.  They are compared by ``tobytes()``, so ``-0.0``
against ``0.0`` counts as a mismatch.
"""

import numpy as np
import pytest

import oracles
from ops import OPS, PRIMAL, assert_rows_local, draw_grid, drawn_by, same_bits, seeded_rows

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
    SpaceMismatchError,
    StratalgError,
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
    ri_membership,
    separate,
    subdifferential,
    sublinear_support,
)
from stratalg import _solvers, functions, sets
from stratalg._solvers import LPResult
from stratalg.core import ext_add
from stratalg.tolerances import EQ_TOL


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

    @pytest.mark.parametrize("weights", [[2.0, 1.0], [1.0, 1.0, 1.0]],
                             ids=["other-weights", "other-K"])
    def test_domain_on_another_space_is_a_space_mismatch(self, space2, weights):
        with pytest.raises(SpaceMismatchError):
            abs_fn(space2, domain=box1d(MeasureSpace(np.array(weights)), 0.0, 1.0))

    def test_domain_of_another_dimension_is_a_shape_error(self, space2):
        dom = ConvexSetRep(space2, 2, np.zeros((2, 1, 2)))
        with pytest.raises(ShapeError, match="dimension"):
            abs_fn(space2, domain=dom)

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


# per-piece references for the stacked max-affine storage ---------------------


def ref_piece_values(x, pieces):
    """One ``einsum`` per piece, as the tuple-of-pieces storage computed it."""
    out = np.empty((x.space.natoms, len(pieces)))
    for j, (y, z) in enumerate(pieces):
        out[:, j] = np.einsum("kd,kd->k", x.values, y.values) + z.values
    return out


def seeded_pieces(rng, space, d, J):
    scale = 10.0 ** rng.integers(-3, 4, (space.natoms, 1))
    return [(CondVector(space, rng.normal(size=(space.natoms, d)) * scale),
             CondScalar(space, rng.normal(size=space.natoms))) for _ in range(J)]


class TestStackedPieces:
    def test_piece_values_match_per_piece_einsum(self):
        rng = np.random.default_rng(40)
        for d in range(1, 9):
            for J in range(1, 9):
                space = MeasureSpace(np.ones(int(rng.integers(1, 50))))
                pieces = seeded_pieces(rng, space, d, J)
                f = MaxAffineFn.from_pieces(pieces)
                x = CondVector(space, rng.normal(size=(space.natoms, d)) * 10.0 ** rng.integers(-3, 4))
                assert f.piece_values(x).tobytes() == ref_piece_values(x, pieces).tobytes(), (d, J)

    @pytest.mark.parametrize("J", [1, 3])
    def test_slices_match_per_atom_rows(self, rng, J):
        space = MeasureSpace(np.ones(4))
        pieces = seeded_pieces(rng, space, 2, J)
        f = MaxAffineFn.from_pieces(pieces)
        assert f.slopes.shape == (4, J, 2) and f.offsets.shape == (4, J) and f.npieces == J
        for k in range(4):
            rows = np.array([y.values[k] for y, _ in pieces])
            assert f.slopes[k].tobytes() == rows.tobytes()
            assert f.offsets[k].tobytes() == np.array([z.values[k] for _, z in pieces]).tobytes()
        x = CondVector(space, rng.normal(size=(4, 2)))
        sub = subdifferential(f, x)
        assert sub.slopes is f.slopes
        for k in range(4):
            rows = np.array([y.values[k] for y, _ in pieces])[sub.active[k]]
            assert sub.generator_rows(k).tobytes() == rows.tobytes()

    def test_arrays_are_read_only(self, rng):
        space = MeasureSpace(np.ones(3))
        f = MaxAffineFn.from_pieces(seeded_pieces(rng, space, 2, 2))
        for a in (f.slopes, f.offsets):
            assert not a.flags.writeable and a.flags.c_contiguous
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        with pytest.raises(ShapeError):
            MaxAffineFn(space, np.zeros((3, 2, 2)), np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            MaxAffineFn(space, np.zeros((3, 0, 2)), np.zeros((3, 0)))


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

    @pytest.mark.parametrize("mins, maxs, steps", [
        ((np.nan,), (1.0,), (0.5,)),  # was a ValueError from round()
        ((0.0,), (np.inf,), (0.5,)),  # was an OverflowError from round()
        ((-np.inf,), (1.0,), (0.5,)),
        ((0.0,), (1.0,), (np.inf,)),  # was a one-node grid of NaN coordinates
        ((0.0, 0.0), (1.0, 1.0), (0.5, np.nan)),
    ])
    def test_non_finite_axis(self, mins, maxs, steps):
        with pytest.raises(ShapeError, match="grid axes must be finite"):
            Grid(mins, maxs, steps)


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

    def test_values_are_a_read_only_copy(self, space2):
        vals = np.array([[0.0, 1.0], [2.0, 3.0]])
        f = GridFn(space2, Grid((0.0,), (1.0,), (1.0,)), vals)
        vals[0, 0] = np.nan
        assert f.values.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        with pytest.raises(ValueError):
            f.values[0, 0] = np.nan


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

    def test_dual_grid_dimension_must_match(self, space2):
        g1 = Grid((-1.0,), (1.0,), (0.5,))
        g2 = Grid((-1.0, -1.0), (1.0, 1.0), (0.5, 0.5))
        with pytest.raises(ShapeError, match="dual grid dimension"):
            conjugate(grid_fn(space2, g1, np.zeros(5)), g2)
        with pytest.raises(ShapeError, match="dual grid dimension"):
            conjugate(grid_fn(space2, g2, np.zeros((5, 5))), g1)

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

    def test_a_grid_past_the_node_cap_raises(self, space2):
        # slopes near 12 000 on a width-4 grid of step 0.01 call for 9 600 001
        # dual nodes; capped at 40 001, fenchel_moreau_check reported a
        # deviation of 0.155 against its bound of 2 * 0.01
        g = Grid((-2.0,), (2.0,), (0.01,))
        f = grid_fn(space2, g, 4000.0 * np.sin(3.0 * g.axis(0)) ** 2)
        with pytest.raises(ShapeError, match=r"needs \d+ nodes .* pass a dual grid"):
            default_dual_grid(f)
        with pytest.raises(ShapeError):
            fenchel_moreau_check(f)
        assert default_dual_grid(f, nodes=101).shape == (101,)

    def test_a_dual_grid_needs_two_nodes(self, space2):
        # nodes=1 used to divide by zero in the step; nodes=0 derives the grid
        g = Grid((-1.0,), (1.0,), (0.5,))
        f = grid_fn(space2, g, g.axis(0) ** 2)
        for nodes in (1, -3):
            with pytest.raises(ShapeError, match="at least 2 nodes"):
                default_dual_grid(f, nodes=nodes)
        assert default_dual_grid(f, nodes=2).shape == (2,)
        assert default_dual_grid(f, nodes=0) == default_dual_grid(f)


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
        # a -inf node on atom 0 and no finite node on atom 1: both named
        g1 = Grid((-1.0,), (1.0,), (0.5,))
        V = np.array([[1.0, -np.inf, 0.0, 0.5, 1.0], [np.inf] * 5])
        with pytest.raises(PreconditionError, match=r"\(-inf, \+inf\] \(atoms \[0, 1\]\)"):
            fenchel_moreau_check(GridFn(space2, g1, V))
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

    def test_x0_outside_the_domain_names_its_atoms(self, space2):
        # the growth audit used to form inf - inf at f(x0) = +inf
        f = abs_fn(space2, domain=box1d(space2, 0.0, 1.0))
        x0 = CondVector(space2, [[0.5], [3.0]])
        with pytest.raises(PreconditionError, match="x0 must lie in the domain") as err:
            bounded_subgradient(f, x0, CondScalar.constant(space2, 1.0))
        assert err.value.atoms.tolist() == [False, True]

    def test_mixed_failures_name_every_failing_atom(self, space2):
        # atom 0 breaks the growth bound only in the slope geometry (every
        # probe leaves the domain); atom 1 sits off the domain
        x0, v = np.array([[0.5], [3.0]]), np.array([1e-3, 1.0])
        f = abs_fn(space2, domain=box1d(space2, 0.0, 1.0))
        with pytest.raises(PreconditionError, match="x0 must lie in the domain") as err:
            bounded_subgradient(f, CondVector(space2, x0), CondScalar(space2, v))
        assert err.value.atoms.tolist() == [True, True]
        one = MeasureSpace(np.ones(1))
        for k, wording in ((0, "slope geometry"), (1, "x0 must lie in the domain")):
            f1 = abs_fn(one, domain=box1d(one, 0.0, 1.0))
            with pytest.raises(PreconditionError, match=wording):
                bounded_subgradient(f1, CondVector(one, x0[[k]]), CondScalar(one, v[[k]]))

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

    def test_matches_per_atom_loop(self):
        # the loop the stacked check replaced, on pieces that tie at x0,
        # differ by about grad_tol, or carry -0.0 entries
        rng = np.random.default_rng(41)
        for _ in range(80):
            K, d, J = int(rng.integers(1, 30)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
            space = MeasureSpace(np.ones(K))
            Y = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(K, J, d)) * 10.0 ** rng.integers(-3, 4)
            if rng.random() < 0.5:
                Y[:, 1:] = Y[:, :1] + rng.choice([0.0, 0.5e-9, 2e-9], size=(K, J - 1, 1))
            x = CondVector(space, rng.choice([-1.0, -0.0, 0.0, 1.0], size=(K, d)))
            f = MaxAffineFn(space, Y, rng.choice([0.0, 1.0], size=(K, J)))
            active = f.active_at(x)
            ok, grad = np.zeros(K, dtype=bool), np.zeros((K, d))
            for k in range(K):
                rows = f.slopes[k][active[k]]
                scale = max(1.0, float(np.max(np.abs(rows))))
                spread = float(np.max(np.abs(rows - rows[0]))) if len(rows) else 0.0
                if spread <= 1e-9 * scale:
                    ok[k] = True
                    grad[k] = rows[0]
            got_ok, got_grad = differentiability_check(f, x)
            assert got_ok.mask.tolist() == ok.tolist()
            assert got_grad.values.tobytes() == grad.tobytes()


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


# LP faults ------------------------------------------------------------------


def _touching_squares(space):
    """``[0, 1]^2`` and ``[-1, 0] x [0, 1]``, which meet along an edge."""
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    left = sq - [1.0, 0.0]
    return (ConvexSetRep(space, 2, np.tile(sq, (space.natoms, 1, 1))),
            ConvexSetRep(space, 2, np.tile(left, (space.natoms, 1, 1))))


def _ri(mode):
    def op(space):
        square = _touching_squares(space)[0]
        return ri_membership(CondVector.constant(space, [0.5, 0.5]), square, mode=mode)
    return op


def _dirderiv(space):
    f = abs_fn(space, domain=box1d(space, -1.0, 1.0))
    return directional_derivative(f, CondVector.zero(space, 1), CondVector.constant(space, [1.0]))


# op on four equal atoms; per_atom call and LP index (within an atom) to fail
LP_FAULT_CASES = {
    "ri_membership-interior": (_ri("interior"), 0, 0),
    "ri_membership-relative": (_ri("relative"), 0, 0),
    "separate-weak": (lambda space: separate(*_touching_squares(space), kind="weak"), 0, 1),
    "separate-proper": (lambda space: separate(*_touching_squares(space), kind="proper"), 0, 1),
    "conjugate-max-affine": (lambda space: conjugate(
        abs_fn(space, domain=box1d(space, -1.0, 1.0)), Grid((-2.0,), (2.0,), (1.0,))), 0, 2),
    "directional_derivative-domain": (_dirderiv, 0, 0),
    "argmin-main": (lambda space: argmin(abs_fn(space), box1d(space, -2.0, 3.0)), 1, 0),
    "argmin-face": (lambda space: argmin(abs_fn(space), box1d(space, -2.0, 3.0)), 1, 1),
    "argmin-descent": (lambda space: argmin(abs_fn(space), real_line(space)), 0, 1),
}


def run_with_lp_fault(monkeypatch, op, fault=None):
    """Run ``op`` on four atoms; return the LPs each ``per_atom`` call
    made per atom, ``counts[j][k]``, and the error raised, if any.

    ``fault = (j, i, status)`` makes LP ``i`` of atoms 1 and 3 in the
    ``j``-th ``per_atom`` call return ``status`` with no solution.
    """
    counts, at = [], {}
    real_lp, real_driver = functions.solve_lp, functions.per_atom

    def driver(atoms, solve, what):
        counts.append({})

        def tracked(k):
            at["k"] = k
            counts[-1][k] = 0
            return solve(k)

        return real_driver(atoms, tracked, what)

    def solve_lp(model, atom, c):
        k, i = at["k"], counts[-1][at["k"]]
        counts[-1][k] += 1
        if fault is not None and fault[:2] == (len(counts) - 1, i) and k in (1, 3):
            return LPResult(fault[2], None, None)
        return real_lp(model, atom, c)

    for mod in (_solvers, sets, functions):
        monkeypatch.setattr(mod, "per_atom", driver)
    for mod in (_solvers, functions):
        monkeypatch.setattr(mod, "solve_lp", solve_lp)
    try:
        op(MeasureSpace(np.ones(4)))
    except StratalgError as exc:
        return counts, exc
    finally:
        monkeypatch.undo()
    return counts, None


@pytest.mark.parametrize("case, status", [(case, status) for case in LP_FAULT_CASES
                                           for status in (1, 4)] + [("argmin-main", 3)])
def test_lp_faults_name_every_atom(monkeypatch, case, status):
    # a limit or numerical status on atoms 1 and 3 raises one SolverError
    # naming both, after every atom is solved: atoms 0 and 2 make all
    # their LPs, atoms 1 and 3 stop at the faulting one.  Status 3 on
    # argmin's epigraph LP is a verdict, raised the same way.
    op, j, i = LP_FAULT_CASES[case]
    clean, err = run_with_lp_fault(monkeypatch, op)
    assert err is None and clean[j] == {k: clean[j][0] for k in range(4)} and clean[j][0] > i
    counts, err = run_with_lp_fault(monkeypatch, op, (j, i, status))
    assert type(err) is (UnboundedError if status == 3 else SolverError)
    assert err.atoms.tolist() == [False, True, False, True]
    if status != 3:
        outcome = {1: "limit", 4: "numerical"}[status]
        assert f"{outcome} on atom 1" in str(err) and f"{outcome} on atom 3" in str(err)
    assert len(counts) == j + 1
    assert counts[j] == {0: clean[j][0], 1: i + 1, 2: clean[j][0], 3: i + 1}


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

    @pytest.mark.parametrize("other", [
        Grid((-1.0,), (1.0,), (0.25,)),   # fewer nodes
        Grid((-1.5,), (2.5,), (0.25,)),   # as many nodes, shifted
    ])
    def test_convolution_on_another_grid_is_rejected(self, space2, other):
        g = Grid((-2.0,), (2.0,), (0.25,))
        f = grid_fn(space2, g, g.axis(0) ** 2)
        h = grid_fn(space2, other, other.axis(0) ** 2)
        with pytest.raises(ShapeError, match="shared grid"):
            infconv_checks([f, f], inf_convolution([h, h]))

    def test_convolution_of_another_number_of_parts_is_rejected(self, space2):
        g = Grid((-2.0,), (2.0,), (0.25,))
        f = grid_fn(space2, g, g.axis(0) ** 2)
        with pytest.raises(ShapeError, match="number of parts"):
            infconv_checks([f, f], inf_convolution([f, f, f]))

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


# per-atom references for the stacked grid kernels ---------------------------


def ref_legendre_1d(xs, vals, ys):
    """The dense per-atom transform: the full ``(n, m)`` term table folded
    row by row in node order.  ``np.maximum`` returns its second operand on
    a tie, so the last node attaining the maximum gives the bits, with one
    dual node as with many (a contiguous ``max`` would leave the sign of a
    ``0.0``/``-0.0`` tie to the SIMD dispatch)."""
    terms = xs[:, None] * ys[None, :] - vals[:, None]
    out = terms[0].copy()
    for row in terms[1:]:
        np.maximum(out, row, out=out)
    return out


def ref_conjugate(f, dual):
    """Per-atom grid conjugate; a 2-d grid takes two passes of 1-d ones."""
    out = np.empty((f.space.natoms,) + dual.shape)
    for k, vals in enumerate(f.values):
        if f.grid.ndim == 1:
            out[k] = ref_legendre_1d(f.grid.axis(0), vals, dual.axis(0))
            continue
        x1, x2 = f.grid.axis(0), f.grid.axis(1)
        y1, y2 = dual.axis(0), dual.axis(1)
        inner = np.array([ref_legendre_1d(x2, row, y2) for row in vals])
        for j in range(len(y2)):
            out[k][:, j] = ref_legendre_1d(x1, -inner[:, j], y1)
    return out


def ref_defect(vals):
    worst = 0.0
    for i in range(1, len(vals) - 1):
        a, b, c = vals[i - 1], vals[i], vals[i + 1]
        if np.isfinite(a) and np.isfinite(b) and np.isfinite(c):
            worst = max(worst, 2.0 * b - a - c)
    return worst


def ref_inf_convolution(fs):
    """Per-atom ``(n, n)`` min-plus tables, ``argmin`` splittings unwound
    node by node, and the midpoint defects: value, splits, in, out."""
    (q,) = fs[0].grid.origin_offsets()
    K, n = fs[0].values.shape
    acc = fs[0].values.copy()
    stage_args = []
    for f in fs[1:]:
        nxt = np.full((K, n), np.inf)
        args = np.zeros((K, n), dtype=np.int64)
        for k in range(K):
            table = np.full((n, n), np.inf)
            for i in range(n):
                lo, hi = max(0, i - q), min(n, i + n - q)
                if lo < hi:
                    js = np.arange(lo - i + q, hi - i + q)
                    table[i, lo:hi] = ext_add(np.full(js.size, acc[k, i]), f.values[k, js])
            nxt[k] = table.min(axis=0)
            args[k] = table.argmin(axis=0)
        stage_args.append(args)
        acc = nxt
    splits = [np.zeros((K, n), dtype=np.int64) for _ in fs]
    for k in range(K):
        for node in range(n):
            target = node
            for s in range(len(stage_args) - 1, -1, -1):
                i = int(stage_args[s][k, target])
                splits[s + 1][k, node] = target - i + q
                target = i
            splits[0][k, node] = target
    in_def = np.array([max(ref_defect(f.values[k]) for f in fs) for k in range(K)])
    out_def = np.array([ref_defect(row) for row in acc])
    return acc, splits, in_def, out_def


def ref_slope_interval(vals, xs, i):
    lo, hi = -np.inf, np.inf
    if i > 0 and np.isfinite(vals[i - 1]):
        lo = (vals[i] - vals[i - 1]) / (xs[i] - xs[i - 1])
    if i + 1 < len(vals) and np.isfinite(vals[i + 1]):
        hi = (vals[i + 1] - vals[i]) / (xs[i + 1] - xs[i])
    return lo, hi


def ref_curvature(vals, xs, i):
    lo, hi = ref_slope_interval(vals, xs, i)
    return max(0.0, hi - lo) if np.isfinite(lo) and np.isfinite(hi) else 0.0


def ref_infconv_audits(fs, conv):
    """Per-atom, per-node subgradient and interior audits: sub_ok, int_ok."""
    g = conv.value
    K, n = g.values.shape
    xs = g.grid.axis(0)
    sub_ok = np.ones(K, dtype=bool)
    int_ok = np.ones(K, dtype=bool)
    for k in range(K):
        gv = g.values[k]
        for node in range(n):
            if not np.isfinite(gv[node]):
                continue
            parts = [int(idx[k, node]) for idx in conv.split_indices]
            if not all(np.isfinite(f.values[k][p]) for f, p in zip(fs, parts)):
                continue
            slack = ref_curvature(gv, xs, node)
            glo, ghi = ref_slope_interval(gv, xs, node)
            ilo, ihi = -np.inf, np.inf
            for f, p in zip(fs, parts):
                lo, hi = ref_slope_interval(f.values[k], xs, p)
                slack = max(slack, ref_curvature(f.values[k], xs, p))
                ilo, ihi = max(ilo, lo), min(ihi, hi)
            if ilo <= ihi:
                if np.isfinite(ilo) and ilo < glo - slack - 1e-9:
                    sub_ok[k] = False
                if np.isfinite(ihi) and ihi > ghi + slack + 1e-9:
                    sub_ok[k] = False
            p0, first = parts[0], fs[0].values[k]
            inner_dom = (0 < p0 < n - 1 and np.isfinite(first[p0 - 1])
                         and np.isfinite(first[p0 + 1]))
            if inner_dom and 0 < node < n - 1:
                if not (np.isfinite(gv[node - 1]) and np.isfinite(gv[node + 1])):
                    int_ok[k] = False
    return sub_ok, int_ok


def ref_eq_scale(*arrays) -> float:
    """Magnitude scale over all entries of the arrays: ``max(1, max |finite entry|)``."""
    m = 1.0
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if a.size:
            finite = a[np.isfinite(a)]
            if finite.size:
                m = max(m, float(np.max(np.abs(finite))))
    return m


def ref_fenchel_moreau_rows(f, fstar, fss, env, fsss, tol=1e-9):
    """Per-atom deviation, minorant and idempotence verdicts."""
    K = f.space.natoms
    dev = np.empty(K)
    minor = np.zeros(K, dtype=bool)
    idem = np.zeros(K, dtype=bool)
    for k in range(K):
        a, b = fss[k], env[k]
        both = np.isfinite(a) & np.isfinite(b)
        dev[k] = float(np.max(np.abs(a[both] - b[both]))) if both.any() else 0.0
        if not (np.isfinite(a) == np.isfinite(b)).all():
            dev[k] = np.inf
        fv = f.values[k]
        fin = np.isfinite(fv)
        scale = ref_eq_scale(fv[fin]) if fin.any() else 1.0
        minor[k] = bool(np.all(a[fin] <= fv[fin] + tol * scale))
        s1, s3 = fstar[k], fsss[k]
        sb = np.isfinite(s1) & np.isfinite(s3)
        sscale = ref_eq_scale(s1[sb]) if sb.any() else 1.0
        idem[k] = bool(np.all(np.isfinite(s1) == np.isfinite(s3))
                       and (not sb.any() or np.max(np.abs(s1[sb] - s3[sb])) <= EQ_TOL * sscale))
    return dev, minor, idem


DUALS = {
    "more_dual_nodes": Grid((-4.0,), (4.0,), (0.125,)),
    "many_dual_nodes": Grid((-4.0,), (4.0,), (1 / 256,)),
    "129_dual_nodes": Grid((-4.0,), (4.0,), (1 / 16,)),
    "fewer_dual_nodes": Grid((-1.0,), (1.0,), (0.5,)),
    "same_grid": PRIMAL,
    "two_dual_nodes": Grid((-1.0,), (0.0,), (1.0,)),
    "one_dual_node": Grid((-1.0,), (-1.0,), (1.0,)),
}


class TestStackedGridKernels:
    @pytest.mark.parametrize("K", [1, 2, 8])
    @pytest.mark.parametrize("dual", sorted(DUALS))
    def test_conjugate_matches_dense_reference(self, dual, K, rng):
        f = GridFn(MeasureSpace(np.ones(K)), PRIMAL, seeded_rows(rng, K, PRIMAL.axis(0)))
        got = conjugate(f, DUALS[dual]).values
        assert same_bits(got, ref_conjugate(f, DUALS[dual]))

    @pytest.mark.parametrize("dual", ["more_dual_nodes", "many_dual_nodes"])
    @pytest.mark.parametrize("K", [1, 8])
    def test_conjugate_chain_with_ties_matches_reference(self, K, dual, rng):
        # f -> f* -> f** -> f***: the transforms of piecewise-linear data
        # have slopes on grid nodes, so exact ties decide the signed zeros
        space = MeasureSpace(np.ones(K))
        dual = DUALS[dual]
        f = GridFn(space, PRIMAL, seeded_rows(rng, K, PRIMAL.axis(0)))
        signed_zeros = set()
        for target in (dual, PRIMAL, dual):
            want = ref_conjugate(f, target)
            f = conjugate(f, target)
            assert same_bits(f.values, want)
            signed_zeros |= set(np.signbit(f.values[f.values == 0.0]).tolist())
        assert signed_zeros == {False, True}

    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("dual", [
        Grid((-2.0, -2.0), (2.0, 2.0), (1.0, 0.5)),   # more dual nodes on both axes
        Grid((-0.5, -3.0), (0.5, 3.0), (1.0, 0.25)),  # fewer on the first, more on the second
        Grid((0.0, -1.0), (0.0, 1.0), (1.0, 1.0)),    # one node on the first axis
    ])
    def test_2d_conjugate_matches_reference(self, dual, K, rng):
        g = Grid((-1.0, -1.5), (1.0, 1.5), (0.5, 0.5))
        V = rng.integers(-2, 3, size=(K,) + g.shape).astype(float)
        V[rng.random(V.shape) < 0.2] = np.inf
        V[:, 2, 3] = 0.0
        f = GridFn(MeasureSpace(np.ones(K)), g, V)
        assert same_bits(conjugate(f, dual).values, ref_conjugate(f, dual))

    @pytest.mark.parametrize("nfn", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 6])
    def test_inf_convolution_matches_reference(self, K, nfn, rng):
        space = MeasureSpace(np.ones(K))
        xs = PRIMAL.axis(0)
        fs = [GridFn(space, PRIMAL, seeded_rows(rng, K, xs)[::-1]) for _ in range(nfn)]
        res = inf_convolution(fs)
        value, splits, in_def, out_def = ref_inf_convolution(fs)
        assert same_bits(res.value.values, value)
        assert len(res.split_indices) == nfn
        for got, want in zip(res.split_indices, splits):
            assert same_bits(got, want)
        assert same_bits(res.input_convexity_defect.values, in_def)
        assert same_bits(res.output_convexity_defect.values, out_def)

    def test_tied_splittings_match_reference(self, rng):
        # constant rows tie every splitting, and argmin's rule keeps the
        # first node of the first function; rows of 0.0 and -0.0 in random
        # order tie in value but not in sign, so the fold order shows
        space = MeasureSpace(np.ones(4))
        n, (q,) = PRIMAL.shape[0], PRIMAL.origin_offsets()
        const = GridFn(space, PRIMAL, np.array([[0.0], [-0.0], [1.5], [-2.0]]) * np.ones(n))
        zeros = [GridFn(space, PRIMAL, np.where(rng.random((4, n)) < 0.5, -0.0, 0.0))
                 for _ in range(3)]
        first = np.maximum(0, np.arange(n) - q)
        assert (inf_convolution([const, const]).split_indices[0] == first).all()
        for fs in ([const, const], [const, const, const], zeros[:2], zeros):
            res, (value, splits, _, _) = inf_convolution(fs), ref_inf_convolution(fs)
            assert same_bits(res.value.values, value)
            for got, want in zip(res.split_indices, splits):
                assert same_bits(got, want)

    def test_audits_match_reference(self, rng):
        K = 12
        space = MeasureSpace(np.ones(K))
        xs = PRIMAL.axis(0)
        dual = DUALS["more_dual_nodes"]
        fs = [GridFn(space, PRIMAL, seeded_rows(rng, K, xs)),
              GridFn(space, PRIMAL, seeded_rows(rng, K, xs)[::-1])]
        conv = inf_convolution(fs)
        checks = infconv_checks(fs, conv, dual)
        sub_ok, int_ok = ref_infconv_audits(fs, conv)
        assert same_bits(checks.subdiff_ok.mask, sub_ok)
        assert same_bits(checks.interior_ok.mask, int_ok)
        assert not sub_ok.all() and sub_ok.any()
        stars = [ref_conjugate(f, dual) for f in fs]
        total = stars[0] + stars[1]  # finite or +inf, so plain addition is exact
        gstar = ref_conjugate(conv.value, dual)
        both = np.isfinite(gstar) & np.isfinite(total)
        want = [float(np.max(np.abs(a[m] - b[m]))) if m.any() else 0.0
                for a, b, m in zip(gstar, total, both)]
        assert same_bits(checks.additivity_defect.values, np.array(want))

        rep = fenchel_moreau_check(fs[0], dual)
        fstar, fsss = rep.conjugate.values, conjugate(rep.biconjugate, dual).values
        want = ref_fenchel_moreau_rows(fs[0], fstar, rep.biconjugate.values,
                                       rep.envelope.values, fsss)
        assert same_bits(rep.max_deviation.values, want[0])
        assert same_bits(rep.minorant_ok.mask, want[1])
        assert same_bits(rep.idempotent_ok.mask, want[2])
        assert np.isinf(want[0]).any() and np.isfinite(want[0]).any()

    def test_default_dual_grid_reads_consecutive_finite_nodes(self, space2):
        # the steepest slope, 6, joins nodes 1 and 3 across the +inf node 2
        g = Grid((0.0,), (4.0,), (1.0,))
        f = GridFn(space2, g, np.array([[0.0, 1.0, np.inf, 13.0, 12.0],
                                        [np.inf, 0.0, 2.0, np.inf, np.inf]]))
        assert default_dual_grid(f, nodes=5).maxs == (7.0,)


def ref_legendre(xs, V, ys):
    """``ref_legendre_1d`` row by row, for the stacked kernel's inputs."""
    return np.array([ref_legendre_1d(xs, row, ys) for row in V]).reshape(len(V), len(ys))


def workload_rows(rng, K, xs):
    """Rows shaped like the benchmark's grid functions: a quadratic plus a
    kink and a tilt, half of them with a sine on top, every fourth with
    ``+inf`` outside an interval, rounded to six decimals."""
    V = np.empty((K, len(xs)))
    for k in range(K):
        m1, m2 = rng.uniform(-1.0, 1.0, 2)
        v = rng.uniform(0.5, 3.0) * (xs - m1) ** 2 + rng.uniform(0.0, 2.0) * np.abs(xs - m2)
        v += rng.uniform(-1.0, 1.0) * xs
        if k % 2:
            v += rng.uniform(0.5, 1.0) * np.sin(rng.uniform(6.0, 10.0) * xs + rng.uniform(0, 6.3))
        if k % 4 == 3:
            v[(xs < rng.uniform(-1.8, -0.6)) | (xs > rng.uniform(0.6, 1.8))] = np.inf
        V[k] = (v * 4.0).round(6)
    return V


def near_tie_rows(rng, K):
    """Rows within a few ulps of one line, seen from dual nodes around its
    slope: the largest terms are decided by rounding alone."""
    xs = 1024.0 + 0.001 * np.arange(int(rng.integers(3, 9)))
    y0 = 1.0 + rng.uniform(0.0, 1e-4)
    ys = y0 + 5e-11 * np.arange(-40, 41)
    noise = rng.uniform(0.0, 8 * 2.0**-53 * 1024.0 * y0, size=(K, len(xs)))
    return xs, (xs - 1024.0) * y0 + noise, ys


class TestPrunedLegendre:
    """The pruned fold against the dense per-atom fold, byte for byte, on
    the inputs where pruning could go wrong: exact ties and signed zeros,
    slopes equal to dual nodes, ``+inf`` carriers, rows without a finite
    node, scaled rows and ties decided by rounding."""

    def test_conjugate_chain_on_the_default_dual_grid(self, rng):
        K, grid = 16, Grid((-2.0,), (2.0,), (0.02,))
        f = GridFn(MeasureSpace(np.ones(K)), grid, workload_rows(rng, K, grid.axis(0)))
        dual = default_dual_grid(f)
        assert dual.shape[0] > 1000
        for target in (dual, grid, dual):
            want = ref_conjugate(f, target)
            f = conjugate(f, target)
            assert same_bits(f.values, want)

    def test_signed_zero_ties_from_integer_data(self, rng):
        xs, ys = np.arange(-3.0, 4.0), np.arange(-4.0, 5.0)
        V = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, 3.0], size=(200, len(xs)))
        got = functions._legendre(xs, V, ys)
        assert same_bits(got, ref_legendre(xs, V, ys))
        zeros = got[got == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    def test_carriers_single_nodes_and_rows_without_finite_nodes(self, rng):
        xs, ys = PRIMAL.axis(0), DUALS["more_dual_nodes"].axis(0)
        V = seeded_rows(rng, 12, xs)
        V[4] = np.inf
        V[5, :] = np.inf
        V[5, 7] = -0.0  # one finite node
        V[6, :] = np.inf
        V[6, 16] = 3.0  # one finite node, at the end
        V[7, 3] = -np.inf  # a -inf node makes the row +inf
        got = functions._legendre(xs, V, ys)
        assert same_bits(got, ref_legendre(xs, V, ys))
        assert np.isneginf(got[4]).all() and np.isposinf(got[7]).all()
        assert same_bits(functions._legendre(xs, np.full((3, 17), np.inf), ys),
                          np.full((3, len(ys)), -np.inf))

    @pytest.mark.parametrize("K", [1, 4])
    def test_2d_rows_without_finite_nodes(self, K, rng):
        # whole x1-slices at +inf give inner rows of -inf, which the second
        # pass reads as +inf nodes
        g = Grid((-1.0, -1.5), (1.0, 1.5), (0.5, 0.25))
        V = rng.integers(-2, 3, size=(K,) + g.shape).astype(float)
        V[:, ::2, :] = np.inf
        V[:, 1, rng.random(g.shape[1]) < 0.5] = np.inf
        f = GridFn(MeasureSpace(np.ones(K)), g, V)
        for dual in (Grid((-2.0, -2.0), (2.0, 2.0), (1.0, 0.5)), Grid((0.0, -1.0), (0.0, 1.0), (1.0, 1.0))):
            assert same_bits(conjugate(f, dual).values, ref_conjugate(f, dual))

    @pytest.mark.parametrize("dual_step", [1.0, 0.5, 0.25, 1 / 64])
    def test_slopes_equal_to_dual_nodes(self, dual_step, rng):
        # piecewise-linear rows with integer slopes between kinks at random
        # nodes: every slope is a dual node, and whole pieces tie there
        xs = PRIMAL.axis(0)
        piece = np.cumsum(rng.random((24, len(xs) - 1)) < 0.3, axis=1)
        slopes = rng.integers(-4, 5, size=(24, len(xs)))[np.arange(24)[:, None], piece]
        slopes[::2] = np.sort(slopes[::2], axis=1)  # convex rows and others in turn
        V = np.concatenate([np.zeros((24, 1)), (slopes * 0.25).cumsum(axis=1)], axis=1)
        ys = np.arange(-8.0, 8.0 + dual_step / 2, dual_step)
        assert same_bits(functions._legendre(xs, V, ys), ref_legendre(xs, V, ys))
        assert same_bits(functions._legendre(xs, -V[:, ::-1], ys), ref_legendre(xs, -V[:, ::-1], ys))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_non_convex_rows(self, seed):
        rng = np.random.default_rng([17, seed])
        n, m = int(rng.integers(2, 60)), int(rng.integers(1, 90))
        xs = np.sort(rng.uniform(-3.0, 3.0, n)) if seed % 2 else np.linspace(-1.0, 2.0, n)
        ys = np.sort(rng.normal(size=m) * 4.0)
        V = rng.normal(size=(30, n)) * rng.choice([1e-3, 1.0, 50.0], size=(30, 1))
        V[rng.random(V.shape) < 0.15] = np.inf
        assert same_bits(functions._legendre(xs, V, ys), ref_legendre(xs, V, ys))

    @pytest.mark.parametrize("j", range(-20, 41, 4))
    def test_rows_scaled_by_powers_of_two(self, j, rng):
        xs, ys = PRIMAL.axis(0), DUALS["129_dual_nodes"].axis(0)
        V = seeded_rows(rng, 8, xs) * 2.0**j
        got = functions._legendre(xs, V, ys)
        assert same_bits(got, ref_legendre(xs, V, ys))

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_decided_by_rounding(self, seed):
        # a copy of the fold with its guard or its slope tolerance shrunk
        # 4x, or with no slope tolerance or no near-hull nodes, fails here
        xs, V, ys = near_tie_rows(np.random.default_rng([19, seed]), 64)
        assert same_bits(functions._legendre(xs, V, ys), ref_legendre(xs, V, ys))

    def test_one_dual_node_bytes_do_not_depend_on_dispatch(self, both_dispatch_levels):
        default, reduced = both_dispatch_levels(_ONE_NODE_TIE_SCRIPT)
        assert default == reduced
        assert any(line.split()[1] != "0" for line in default)


def ref_lower_envelope(xs, vals):
    """The per-atom envelope that the stacked one replaced: a monotone chain
    over one row's finite nodes, kept as lists, then ``np.interp``."""
    fin = np.isfinite(vals)
    out = np.full_like(vals, np.inf)
    if not fin.any():
        return out
    hull = []
    for x, v in ((xs[i], vals[i]) for i in np.flatnonzero(fin)):
        hull.append((x, v))
        while len(hull) >= 3:
            (x0, v0), (x1, v1), (x2, v2) = hull[-3:]
            # drop the middle point when it lies on or above the chord
            if (v1 - v0) * (x2 - x1) >= (v2 - v1) * (x1 - x0):
                hull.pop(-2)
            else:
                break
    lo, hi = np.flatnonzero(fin)[[0, -1]]
    out[lo:hi + 1] = np.interp(xs[lo:hi + 1], [h[0] for h in hull], [h[1] for h in hull])
    return out


class TestLowerEnvelopes:
    """The envelope of ``fenchel_moreau_check``, all rows from one hull
    pass, against the per-row monotone chain, byte for byte."""

    @staticmethod
    def check(xs, V):
        got = functions._lower_envelopes(xs, V)
        assert same_bits(got, np.array([ref_lower_envelope(xs, v) for v in V]))
        return got

    def test_collinear_runs(self, rng):
        # integer slopes held over runs of nodes, convex rows and others in turn
        xs = PRIMAL.axis(0)
        piece = np.cumsum(rng.random((40, len(xs) - 1)) < 0.3, axis=1)
        slopes = rng.integers(-3, 4, size=(40, len(xs)))[np.arange(40)[:, None], piece]
        slopes[::2] = np.sort(slopes[::2], axis=1)
        V = np.concatenate([np.zeros((40, 1)), (slopes * 0.25).cumsum(axis=1)], axis=1)
        self.check(xs, V)
        self.check(xs, V[:, ::-1] + 0.5)

    def test_signed_zeros_at_hull_vertices(self, rng):
        xs = np.arange(-4.0, 5.0)
        got = self.check(xs, rng.choice([0.0, -0.0, 1.0, 2.0], size=(200, len(xs))))
        assert np.signbit(got[got == 0.0]).any()

    def test_holes_single_nodes_and_rows_without_finite_nodes(self, rng):
        xs = PRIMAL.axis(0)
        V = seeded_rows(rng, 24, xs)
        V[rng.random(V.shape) < 0.3] = np.inf  # holes inside the carrier
        V[3], V[4], V[5] = np.inf, np.inf, np.inf
        V[3, 7], V[4, 0] = -0.0, 2.5  # one finite node
        got = self.check(xs, V)
        assert np.isposinf(got[5]).all() and same_bits(got[3, 7], -0.0)

    @pytest.mark.parametrize("j", range(-20, 41, 12))
    def test_rows_scaled_by_powers_of_two(self, j, rng):
        xs = PRIMAL.axis(0)
        self.check(xs, seeded_rows(rng, 16, xs) * 2.0**j)

    def test_one_low_node_beside_a_long_convex_chain(self):
        # the shape that takes _lower_hulls a round per chain node
        xs = np.linspace(-2.0, 2.0, 4401)
        V = np.tile(xs**2, (32, 1)) * (1.0 + np.arange(32) / 32)[:, None]
        V[np.arange(32), 2200 + np.arange(32)] = -1e6
        self.check(xs, V)


_ONE_NODE_TIE_SCRIPT = """
import hashlib
import numpy as np
from stratalg import Grid, GridFn, MeasureSpace, conjugate
space = MeasureSpace(np.ones(64))
grid = Grid((-4.0,), (-0.25,), (0.25,))  # x < 0, so x * 0.0 is -0.0
for seed in range(8):
    V = np.random.default_rng(seed).choice([0.0, -0.0, 1.0, 2.0], (64, 16))
    out = conjugate(GridFn(space, grid, V), Grid((0.0,), (0.0,), (1.0,))).values
    print(hashlib.sha256(out.tobytes()).hexdigest(), int(np.signbit(out).sum()))
"""


class TestGridAtomLocality:
    """Row ``k`` of every grid op's output depends on the data of atom
    ``k`` alone; the entries are in ``ops.OPS``."""

    @pytest.mark.parametrize("op", drawn_by(draw_grid))
    def test_other_atoms_do_not_reach_row_k(self, op):
        assert_rows_local(OPS[op])


def ref_grid_eval(f, x):
    """The per-atom, per-corner interpolation loop, kept as the reference.

    Returns the values, or the mask of off-grid atoms.
    """
    K, g = f.space.natoms, f.grid
    out = np.empty(K)
    oob = np.zeros(K, dtype=bool)
    for k in range(K):
        idx, frac = [], []
        for i in range(g.ndim):
            lo, st, n = g.mins[i], g.steps[i], g.shape[i]
            t = (x.values[k, i] - lo) / st
            if t < -1e-9 or t > n - 1 + 1e-9:
                oob[k] = True
                break
            t = min(max(t, 0.0), float(n - 1))
            i0 = min(int(np.floor(t)), n - 2) if n > 1 else 0
            idx.append(i0)
            frac.append(t - i0)
        if oob[k]:
            continue
        corners, weights = [], []
        for corner in range(2 ** g.ndim):
            sel, w = [], 1.0
            for i in range(g.ndim):
                hi = (corner >> i) & 1
                if g.shape[i] == 1:
                    sel.append(0)
                    w *= 1.0 if hi == 0 else 0.0
                else:
                    sel.append(idx[i] + hi)
                    w *= frac[i] if hi else (1.0 - frac[i])
            corners.append(f.values[(k, *sel)])
            weights.append(w)
        corners, weights = np.array(corners), np.array(weights)
        live = weights > 0.0
        if np.any(np.isposinf(corners[live])):
            out[k] = np.inf
        elif np.any(np.isneginf(corners[live])):
            out[k] = -np.inf
        else:
            out[k] = float(weights[live] @ corners[live])
    return oob if oob.any() else out


def grid_eval_case(rng):
    """A grid function and points: one- and two-dimensional grids, one-node
    axes, points on nodes, on cell faces and off the grid, ``+-0`` and
    ``+-inf`` node values."""
    ndim = int(rng.integers(1, 3))
    shape = tuple(int(rng.choice([1, 2, 3, 5])) for _ in range(ndim))
    steps = tuple(float(rng.choice([0.25, 0.5, 1.0, 0.3])) for _ in range(ndim))
    mins = tuple(float(rng.choice([0.0, -1.0, -0.75, 0.1])) for _ in range(ndim))
    grid = Grid(mins, tuple(lo + (n - 1) * st for lo, st, n in zip(mins, steps, shape)), steps)
    K = int(rng.integers(1, 13))
    space = MeasureSpace(np.ones(K))
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf])
    V = np.where(rng.random((K,) + grid.shape) < 0.5,
                 rng.choice(pool, (K,) + grid.shape), rng.normal(size=(K,) + grid.shape))
    X = np.empty((K, ndim))
    kinds = 5 if rng.random() < 0.25 else 4  # kind 4 may leave the grid
    for i, (lo, st, n) in enumerate(zip(mins, steps, grid.shape)):
        node = lo + st * rng.integers(0, n, K)
        kind = rng.integers(0, kinds, K)
        X[:, i] = np.select(
            [kind == 0, kind == 1, kind == 2, kind == 3],
            [node, lo + rng.uniform(0.0, (n - 1) * st, K), np.where(lo == 0.0, -0.0, lo),
             lo + (n - 1) * st + rng.choice([-1e-10, 1e-10], K)],
            lo + rng.uniform(-0.5, (n - 1) * st + 0.5, K),  # may leave the grid
        )
    return GridFn(space, grid, V), CondVector(space, X)


class TestGridEvalMatchesReference:
    """The interpolation stacked over atoms and corners gives the per-atom
    loop's bits, and the loop's off-grid mask."""

    def test_bit_identical(self):
        rng = np.random.default_rng(5151)
        seen = {"off_grid": 0, "zero": 0, "inf": 0, "one_node": 0}
        for _ in range(600):
            f, x = grid_eval_case(rng)
            want = ref_grid_eval(f, x)
            if want.dtype == bool:
                with pytest.raises(PreconditionError) as err:
                    f.eval(x)
                assert same_bits(err.value.atoms, want)
                seen["off_grid"] += 1
                continue
            got = f.eval(x).values
            assert same_bits(got, want)
            seen["zero"] += bool(np.any(want == 0))
            seen["inf"] += bool(np.any(np.isinf(want)))
            seen["one_node"] += 1 in f.grid.shape
        assert min(seen.values()) > 10, seen

    def test_no_warning_on_infinite_corners(self):
        g = Grid((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
        space = MeasureSpace(np.ones(3))
        V = np.array([[[np.inf, -np.inf], [0.0, 1.0]],
                      [[-np.inf, 2.0], [np.inf, np.inf]],
                      [[np.inf, 0.0], [-np.inf, -0.0]]])
        x = CondVector(space, [[0.5, 0.5], [0.0, 1.0], [1.0, 1.0]])
        f = GridFn(space, g, V)
        with np.errstate(all="raise"):
            got = f.eval(x).values
        assert same_bits(got, ref_grid_eval(f, x))
        assert got[0] == np.inf and got[1] == 2.0 and got[2] == 0.0
