"""``solve_lp`` against ``scipy.optimize.linprog``, LP by LP.

``solve_lp`` hands each LP straight to the HiGHS core that scipy bundles
(``scipy.optimize._highspy._core``).  An ``LPModel`` holds the constraint
stacks of every atom of a stratum and one HiGHS instance, reloaded per
atom.  Each test below drives one call site on seeded data, records every
LP it solves, read from the model's stacks in ``linprog``'s argument form,
and checks that ``linprog(method="highs")`` with the options the package
always used gives the same status and a bit-identical ``fun`` and ``x``,
both for the result the call site got, from a model reused across costs
and atoms, and for the cost solved alone on a new one-atom ``LPModel``.
Every atom's model, loaded into one reused instance, equals field by
field the HiGHS model built from that atom's LP alone.  On degenerate
dual-cone families, where a warm re-run from the kept basis returns
another vertex, every cost solved on a reused model must equal the bytes
of a HiGHS instance built in the test that gets the cost with the atom's
model, which only ``clearSolver`` gives.  argmin's uniqueness-box LPs run
hot: they must match linprog's status and its ``fun`` to 1e-9 relative,
give the verdicts of the cold-only loop (``ref_box_widths``), and solve a
width within ``BOX_BAND`` of its threshold again cold.  The count of
live HiGHS instances does not grow with the atom count, and argmin over
a bounded set builds its epigraph model alone.  Hand-made LPs
cover the statuses and argument forms the call sites rarely reach.  A
scipy release that changes the private HiGHS binding fails here.

Each test's LPs are also pinned, element for element, by a sha256 per LP
in ``tests/golden/lp_digests.json``: HiGHS's vertex on a degenerate LP
depends on column order, row order, signs and bounds, and separating
normals and minimizers are read off that vertex, so a reordered column
or a flipped row fails here even when it happens to leave the vertex
unchanged.  A change that alters the LPs on purpose rewrites the file
with ``PYTHONPATH=src python tests/test_solvers.py`` and says why.

The stacked nearest-point QP ``min_norm_point`` reaches the residual of
``scipy.optimize.nnls`` on nonnegative least squares problems, which are
nearest-point problems of a point plus a cone.  It is compared on every
atom, bit for bit, with ``ref_cone_least_squares``, the same active set
on one atom with index lists, on seeded stacks with ties, signed zeros,
free lines, equality rows with and without a start that meets them, and
short round budgets.  Seeded starts on every column force line-search
drops, exactly tied ones included, support sizes that split and merge
between rounds, and supports on which the equality rows fail, which
``kkt_fail`` must report; a stack mixes atoms whose KKT solve fails at
large scale with good ones, and an atom without an accepted round
returns its last iterate.  Subprocess tests check that a fresh ``import
stratalg.cli`` loads no compiled scipy module, that HiGHS loads on the
first LP model and a QP loads none, without the ``scipy`` package ever
being imported, that HiGHS is shared with a ``scipy.optimize`` imported
before or after, and that the pinned ``lstsq`` gufunc matches
``np.linalg.lstsq`` bit for bit.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import linprog, nnls as scipy_nnls
from scipy.optimize._highspy import _core as _highs
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from stratalg import (
    CondScalar,
    CondVector,
    ConvexSetRep,
    Grid,
    MaxAffineFn,
    MeasurableSet,
    MeasureSpace,
    argmin,
    conjugate,
    directional_derivative,
    membership,
    ri_membership,
    separate,
)
import stratalg
from stratalg import _solvers, functions
from stratalg._solvers import (
    LPModel,
    cone_least_squares,
    dual_cone_model,
    min_norm_point,
    nonzero_in_dual_cone,
    positivity_margin,
    solve_lp,
)
from stratalg.tolerances import QP_TOL, STRICT_TOL
from stratalg.functions import (
    _conj_node_lp,
    _descent_recession,
    _epigraph_lp,
    _feasible_direction_mask,
)

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "lp_digests.json")
LINPROG_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
SEEDS = range(6)


def linprog_arrays(n, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """An LP in ``linprog``'s argument form as dense arrays: ``None``
    blocks become empty ones, ``bounds`` (``x >= 0`` by default, ``None``
    meaning unbounded) an ``(n, 2)`` box with ``±inf``."""
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float).reshape(-1, n)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
    box = np.broadcast_to(
        np.array((0.0, np.inf) if bounds is None else bounds, dtype=float).reshape(-1, 2),
        (n, 2),
    )
    box = np.stack([np.where(np.isnan(box[:, 0]), -np.inf, box[:, 0]),
                    np.where(np.isnan(box[:, 1]), np.inf, box[:, 1])], axis=1)
    return A_ub, b_ub, A_eq, b_eq, box


def one_atom_model(n, **lp) -> LPModel:
    """A one-atom ``LPModel`` of an LP in ``linprog``'s argument form."""
    return LPModel(*(a[None] for a in linprog_arrays(n, **lp)))


def linprog_form(model: LPModel, k: int) -> dict:
    """Atom ``k``'s LP in ``model`` as ``linprog`` keywords, an empty row
    block as ``None``: the form the call sites passed before they built
    stacks, so its digests are the ones in ``DIGESTS``."""
    lp = {"A_ub": model.A_ub[k], "b_ub": model.b_ub[k], "A_eq": model.A_eq[k],
          "b_eq": model.b_eq[k]}
    lp = {key: np.array(a) if len(a) else None for key, a in lp.items()}
    return {**lp, "bounds": np.array(model.box[k])}


def ref_highs_lp(n, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """The HiGHS model of one LP in ``linprog``'s argument form, built on
    its own: the column-wise nonzeros of ``[A_ub; A_eq]``, rows ascending
    in each column, zero costs and ``kHighsInf`` for infinite bounds."""
    A_ub, b_ub, A_eq, b_eq, box = linprog_arrays(n, A_ub, b_ub, A_eq, b_eq, bounds)
    m_ub, m = len(b_ub), len(b_ub) + len(b_eq)

    def highs_inf(a):
        return np.where(np.isinf(a), np.copysign(_highs.kHighsInf, a), a)

    At = np.vstack([A_ub, A_eq]).T
    col, row = np.nonzero(At)
    lp = _highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=n))])
    lp.a_matrix_.index_ = row
    lp.a_matrix_.value_ = At[col, row]
    lp.col_lower_ = highs_inf(box[:, 0])
    lp.col_upper_ = highs_inf(box[:, 1])
    lp.row_lower_ = highs_inf(np.concatenate([np.full(m_ub, -np.inf), b_eq]))
    lp.row_upper_ = highs_inf(np.concatenate([b_ub, b_eq]))
    lp.col_cost_ = np.zeros(n)
    return lp


def assert_matches_linprog(lp: dict) -> int:
    """Solve ``lp`` on a new one-atom ``LPModel`` and compare with linprog;
    a ``result`` recorded at the call site must match too, bit for bit if
    it was solved cold, and in status and in ``fun`` to 1e-9 relative if
    it was solved hot."""
    lp = dict(lp)
    hot = lp.pop("hot", False)
    results = [lp.pop("result")] if "result" in lp else []
    c = lp.pop("c")
    results.append(solve_lp(one_atom_model(len(c), **lp), 0, c))
    want = linprog(c, method="highs", options=LINPROG_OPTIONS, **lp)
    for i, got in enumerate(results):
        assert got.status == want.status
        if want.x is None:
            assert got.x is None and got.fun is None
        elif hot and i == 0:
            assert abs(got.fun - want.fun) <= 1e-9 * max(1.0, abs(want.fun))
        else:
            assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
            assert got.x.tobytes() == want.x.tobytes()
    return results[-1].status


def check_all(lps: list) -> list:
    assert lps, "the call site built no LP"
    return [assert_matches_linprog(lp) for lp in lps]


def lp_digest(lp: dict) -> str:
    """sha256 of an LP's arrays and ``(n, 2)`` bounds; ``-0.0`` counts as
    ``0.0``."""
    h = hashlib.sha256()
    for key in ("c", "A_ub", "b_ub", "A_eq", "b_eq"):
        a = lp[key]
        h.update(f"{key}:{None if a is None else a.shape};".encode())
        if a is not None:
            h.update((a + 0.0).tobytes())
    h.update(b"bounds;" + (lp["bounds"] + 0.0).tobytes())
    return h.hexdigest()


# test name -> LP digests, filled instead of checked by the rewrite below
REWRITE: dict | None = None


@pytest.fixture
def lps(monkeypatch, request):
    """Every LP the call sites solve during a test, as linprog keywords:
    the cost, its atom's constraints and bounds read from the model's
    stacks (``linprog_form``), the ``result`` the call site got, from a
    model reused across costs and atoms, and whether it asked for a
    ``hot`` solve.

    At teardown their digests must equal the test's entry in
    ``DIGESTS``, in the order the LPs were solved.
    """
    seen = []

    def record(model, k, c, hot=False):
        seen.append({"c": np.array(c, dtype=float), **linprog_form(model, k)})
        seen[-1]["result"] = solve_lp(model, k, c, hot=hot)
        seen[-1]["hot"] = hot
        return seen[-1]["result"]

    monkeypatch.setattr(_solvers, "solve_lp", record)
    monkeypatch.setattr(functions, "solve_lp", record)
    yield seen
    digests = [lp_digest(lp) for lp in seen]
    if REWRITE is not None:
        REWRITE[request.node.name] = digests
        return
    with open(DIGESTS, encoding="utf-8") as fh:
        assert digests == json.load(fh)[request.node.name]


def generators(rng, d, npts, nrays, nlines):
    return (rng.normal(size=(npts, d)), rng.normal(size=(nrays, d)),
            rng.normal(size=(nlines, d)))


def pieces(space, slopes, offsets):
    """Max-affine pieces from (K, J, d) slopes and (K, J) offsets."""
    return tuple(
        (CondVector(space, slopes[:, j]), CondScalar(space, offsets[:, j]))
        for j in range(slopes.shape[1])
    )


def vset(space, pts, rays=None, lines=None):
    """Set from (K, n, d) point, ray and line arrays."""
    def family(a):
        return () if a is None else tuple(CondVector(space, a[:, i]) for i in range(a.shape[1]))

    return ConvexSetRep(space=space, dim=pts.shape[2], points=family(pts), rays=family(rays),
                        lines=family(lines))


@pytest.mark.parametrize("seed", SEEDS)
def test_positivity_margin_both_stages(seed, lps):
    # one LP per atom: only the tight target band is solved.  Atoms:
    # an interior target, a vertex and a point far outside
    rng = np.random.default_rng([2, seed])
    pts, rays, lines = generators(rng, 3, 4, seed % 2, 0)
    targets = np.array([(0.1 + rng.dirichlet(np.ones(4))) / 1.4 @ pts, pts[0],
                        pts.sum(axis=0) * 5.0])
    margin = positivity_margin(np.ones(3, dtype=bool), targets,
                               *(np.broadcast_to(a, (3,) + a.shape) for a in (pts, rays, lines)))
    assert margin[0] > 0.0 and margin[1] < 1e-9 and margin[2] < 1e-9
    assert len(lps) == 3
    statuses = check_all(lps)
    if not len(rays):
        assert statuses[-1] == 2  # far outside the simplex


@pytest.mark.parametrize("seed", SEEDS)
def test_nonzero_in_dual_cone(seed, lps):
    rng = np.random.default_rng([3, seed])
    ineq = rng.normal(size=(5, 3)) + [2.0, 0.0, 0.0]
    eq = rng.normal(size=(seed % 2, 3))
    nonzero_in_dual_cone(dual_cone_model(ineq[None], eq[None]), 0)
    # rows +-e_i leave only z = 0
    box = dual_cone_model(np.vstack([np.eye(3), -np.eye(3)])[None], np.zeros((1, 0, 3)))
    assert nonzero_in_dual_cone(box, 0) is None
    check_all(lps)


@pytest.mark.parametrize("seed", SEEDS)
def test_conj_node_lp(seed, lps):
    rng = np.random.default_rng([4, seed])
    d = 2
    yrows, zoff = rng.normal(size=(3, d)), rng.normal(size=3)
    pts, rays, lines = generators(rng, d, 3, seed % 2, int(seed % 3 == 1))
    space = MeasureSpace(np.ones(1))
    with_set = LPModel(*_epigraph_lp(yrows[None], zoff[None],
                                     [vset(space, pts[None], rays[None], lines[None])]))
    free = LPModel(*_epigraph_lp(yrows[None], zoff[None], []))
    for y in (rng.normal(size=d), yrows.mean(axis=0), yrows.max(axis=0) + 1.0):
        _conj_node_lp(y, with_set, 0)
        _conj_node_lp(y, free, 0)
    assert 3 in check_all(lps)  # an unconstrained node outside the slope hull


@pytest.mark.parametrize("seed", SEEDS)
def test_feasible_direction_mask(seed, lps):
    rng = np.random.default_rng([5, seed])
    space = MeasureSpace(np.ones(3))
    pts = rng.normal(size=(3, 4, 2))
    rays = rng.normal(size=(3, seed % 2, 2))
    dom = vset(space, pts, rays)
    x0 = np.einsum("kn,knd->kd", rng.dirichlet(np.ones(4), size=3), pts)
    x0[0] = pts[0, 0]  # a vertex, where some directions leave the domain
    x = rng.normal(size=(3, 2))
    _feasible_direction_mask(dom, CondVector(space, x0), CondVector(space, x))
    check_all(lps)


@pytest.mark.parametrize("seed", SEEDS)
def test_argmin_main_and_box_lps(seed, lps):
    rng = np.random.default_rng([6, seed])
    K, d = 3, 2
    space = MeasureSpace(np.ones(K))
    f_pieces = pieces(space, rng.normal(size=(K, 3, d)), rng.normal(size=(K, 3)))
    c = vset(space, rng.normal(size=(K, 5, d)) * 2)
    argmin(MaxAffineFn.from_pieces(f_pieces), c)
    assert len(lps) > K  # uniqueness boxes ran
    dom = vset(space, rng.normal(size=(K, 4, d)) * 2)
    argmin(MaxAffineFn.from_pieces(f_pieces, domain=dom), c)
    check_all(lps)


@pytest.mark.parametrize("seed", SEEDS)
def test_descent_recession(seed, lps):
    rng = np.random.default_rng([7, seed])
    K, d = 3, 2
    space = MeasureSpace(np.ones(K))
    f = MaxAffineFn.from_pieces(pieces(space, rng.normal(size=(K, 3, d)), rng.normal(size=(K, 3))))
    c = vset(space, rng.normal(size=(K, 2, d)), rays=rng.normal(size=(K, 1 + seed % 2, d)),
             lines=rng.normal(size=(K, int(seed % 3 == 2), d)))
    _descent_recession(f, c)
    check_all(lps)


HAND_MADE = {
    "infeasible": dict(c=[1.0, 0.0], A_ub=[[1.0, 1.0]], b_ub=[-1.0]),
    "unbounded": dict(c=[-1.0, 0.0], A_ub=[[1.0, -1.0]], b_ub=[0.0], bounds=[(None, None)] * 2),
    "no_A_ub": dict(c=[1.0, 2.0, 0.0], A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0]),
    "no_A_eq": dict(c=[1.0, 1.0], A_ub=[[-1.0, -2.0], [-3.0, -1.0]], b_ub=[-2.0, -3.0]),
    "no_constraints": dict(c=[1.0, -1.0], bounds=[(-1.0, 1.0), (-2.0, 3.0)]),
    "free_variables": dict(c=[0.0, 0.0, 1.0], A_ub=[[1.0, 0.0, -1.0], [-1.0, 0.0, -1.0]],
                           b_ub=[2.0, -2.0], A_eq=[[1.0, 1.0, 0.0]], b_eq=[0.5],
                           bounds=[(None, None), (None, None), (0.0, None)]),
    "boxed_variables": dict(c=[-1.0, -1.0, 0.5], A_ub=[[1.0, 2.0, 1.0]], b_ub=[2.5],
                            bounds=[(0.0, 1.0), (-1.0, 0.75), (0.25, 0.25)]),
    "infeasible_box": dict(c=[1.0], A_eq=[[1.0]], b_eq=[3.0], bounds=[(0.0, 1.0)]),
    # HiGHS rejects these models (kModelError), which linprog reports as 2
    "model_error_bound": dict(c=[1.0], bounds=[(None, -np.inf)]),
    "model_error_matrix": dict(c=[1.0, 1.0], A_ub=[[1e30, 1.0]], b_ub=[1.0]),
}
HAND_STATUS = {"infeasible": 2, "unbounded": 3, "infeasible_box": 2, "model_error_bound": 2,
               "model_error_matrix": 2}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_hand_made(name):
    assert assert_matches_linprog(HAND_MADE[name]) == HAND_STATUS.get(name, 0)


def test_status_map_is_linprogs():
    _solvers._load_highs()
    for status in _highs.HighsModelStatus.__members__.values():
        assert _solvers._LP_STATUS.get(status, 4) == _highs_to_scipy_status_message(status, "")[0]


def test_result_shape():
    res = solve_lp(one_atom_model(2, A_ub=[[-1.0, -1.0]], b_ub=[-1.0]), 0, [1.0, 1.0])
    assert res.status == 0 and isinstance(res.fun, float)
    assert res.x.dtype == np.float64 and res.x.shape == (2,)
    assert solve_lp(one_atom_model(1, bounds=[(0.0, None)]), 0, [-1.0]) == (3, None, None)


@pytest.mark.parametrize("field", ["col_value", "row_value"])
def test_post_check_downgrades_a_violated_optimum(monkeypatch, field):
    # HiGHS calls the answer optimal but it misses a bound or a row by
    # 1e-3, beyond linprog's check tolerance: both report status 4
    class Shifted(_highs._Highs):
        def getSolution(self):
            sol = super().getSolution()
            setattr(sol, field, [v + 1e-3 for v in getattr(sol, field)])
            return sol

    monkeypatch.setattr(_highs, "_Highs", Shifted)
    lp = dict(c=[-1.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=[(0.0, 1.0)] * 2)
    assert assert_matches_linprog(lp) == 4


def solved_families(monkeypatch, call) -> list:
    """Run ``call`` with ``solve_lp`` recorded; return each model atom that
    was solved for more than one cost, as ``(model, k, runs)`` with its
    costs and results in order."""
    families: dict = {}

    def record(model, k, c, hot=False):
        res = solve_lp(model, k, c, hot=hot)
        families.setdefault((id(model), k), (model, k, []))[2].append(
            (np.array(c, dtype=float), res))
        return res

    monkeypatch.setattr(_solvers, "solve_lp", record)
    monkeypatch.setattr(functions, "solve_lp", record)
    call()
    monkeypatch.undo()
    return [f for f in families.values() if len(f[2]) > 1]


def highs_with_cost(model: LPModel, k: int, c):
    """A new ``_Highs`` instance that gets ``c`` inside ``passModel`` with
    atom ``k``'s model."""
    lp = ref_highs_lp(model.n, **linprog_form(model, k))
    lp.col_cost_ = c
    h = _highs._Highs()
    h.passOptions(_solvers._LP_OPTIONS)
    assert h.passModel(lp) != _highs.HighsStatus.kError
    return h


def warm_xs(model: LPModel, k: int, costs: list) -> list:
    """The ``x`` of each cost re-run on one ``_Highs`` instance that keeps
    its basis between costs: ``solve_lp`` without ``clearSolver``."""
    h = highs_with_cost(model, k, costs[0])
    xs = []
    for i, c in enumerate(costs):
        if i:
            h.changeColsCost(model.n, np.arange(model.n, dtype=np.int32), c)
        h.run()
        xs.append(np.array(h.getSolution().col_value))
    return xs


def dual_cone_family(seed):
    # integer rows: ties and degenerate vertices on the unit box
    rng = np.random.default_rng([40, seed])
    ineq = rng.integers(-1, 2, size=(8, 4)).astype(float)
    eq = rng.integers(-1, 2, size=(seed % 2, 4)).astype(float)
    return lambda: nonzero_in_dual_cone(dual_cone_model(ineq[None], eq[None]), 0)


def argmin_box_data(seed):
    # integer slopes, offsets and points: flat optimal faces with ties
    rng = np.random.default_rng([41, seed])
    K, d = 4, 2
    space = MeasureSpace(np.ones(K))
    f = MaxAffineFn(space, rng.integers(-1, 2, size=(K, 3, d)).astype(float),
                    rng.integers(-1, 2, size=(K, 3)).astype(float))
    return f, ConvexSetRep(space, d, rng.integers(-2, 3, size=(K, 5, d)).astype(float))


def argmin_box_family(seed):
    f, c = argmin_box_data(seed)
    return lambda: argmin(f, c)


def ref_box_widths(f, c) -> list:
    """argmin's uniqueness box from the loop it ran before its box LPs went
    hot: every atom's optimal face a one-atom model of its own, and every
    LP cold.  Per atom, ``None`` without an optimum, else per axis the
    width (``inf`` on an unbounded face) and ``|xstar[axis]|``."""
    d = f.dim
    lp = LPModel(*_epigraph_lp(f.slopes, f.offsets, [c] + ([] if f.domain is None else [f.domain])))
    c_obj = np.zeros(lp.n)
    c_obj[d] = 1.0
    boxes = []
    for k in range(len(lp.A_ub)):
        res = solve_lp(lp, k, c_obj)
        if res.status:
            boxes.append(None)
            continue
        vstar = float(res.fun)
        face = LPModel(np.concatenate([lp.A_ub[k], c_obj[None]])[None],
                       np.append(lp.b_ub[k], vstar + STRICT_TOL * max(1.0, abs(vstar)))[None],
                       lp.A_eq[k:k + 1], lp.b_eq[k:k + 1], lp.box[k:k + 1])
        box = []
        for axis in range(d):
            ends = [solve_lp(face, 0, sign * np.eye(lp.n)[axis]) for sign in (1.0, -1.0)]
            width = np.inf if any(r.status == 3 for r in ends) else abs(ends[0].fun + ends[1].fun)
            box.append((width, abs(res.x[axis])))
        boxes.append(box)
    return boxes


def ref_unique_set(f, c, tol=QP_TOL) -> list:
    return [box is not None and all(w <= tol * max(1.0, x) for w, x in box)
            for box in ref_box_widths(f, c)]


@pytest.mark.parametrize("family", [dual_cone_family, argmin_box_family])
def test_a_reused_model_runs_each_cost_from_a_cleared_solver(family, monkeypatch):
    # every cost solved on a reused model, the first one included, has the
    # bits of an instance that got the cost with the model, while a warm
    # re-run from the kept basis gives another x on some LP.  argmin's box
    # LPs read only values and run hot, so there the verdicts must be the
    # cold-only loop's
    if family is argmin_box_family:
        verdicts = []
        for seed in range(10):
            f, c = argmin_box_data(seed)
            got = argmin(f, c).unique_set.mask.tolist()
            assert got == ref_unique_set(f, c), seed
            verdicts += got
        assert 0 < sum(verdicts) < len(verdicts), verdicts
        return
    solved = warm_moved = 0
    for seed in range(10):
        for model, k, runs in solved_families(monkeypatch, family(seed)):
            for c, res in runs:
                h = highs_with_cost(model, k, c)
                h.run()
                assert h.getModelStatus() == _highs.HighsModelStatus.kOptimal
                assert res.status == 0
                want_fun = np.float64(h.getInfo().objective_function_value)
                assert np.float64(res.fun).tobytes() == want_fun.tobytes()
                assert res.x.tobytes() == np.array(h.getSolution().col_value).tobytes()
                solved += 1
            warm = warm_xs(model, k, [c for c, _ in runs])
            warm_moved += sum(res.x is not None and x.tobytes() != res.x.tobytes()
                              for x, (_, res) in zip(warm, runs))
    assert solved >= 60 and warm_moved >= 1, (solved, warm_moved)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_a_box_width_near_its_threshold_is_solved_again_cold(side, monkeypatch):
    # seeded data, drawn once: tol puts the cold box width of atom 0's
    # widest axis (relative to its threshold) 0.3% above (side -1) or below
    # (side 1) the threshold, inside BOX_BAND, so that axis pair is solved
    # again cold, and the verdicts are the cold-only loop's
    rng = np.random.default_rng([43, 0])
    K, d = 4, 2
    space = MeasureSpace(np.ones(K))
    f = MaxAffineFn(space, rng.normal(size=(K, 3, d)), rng.normal(size=(K, 3)))
    c = vset(space, rng.normal(size=(K, 5, d)) * 2)
    ratio = [w / max(1.0, x) for w, x in ref_box_widths(f, c)[0]]
    axis = int(np.argmax(ratio))
    assert 0.0 < ratio[axis] < np.inf
    tol = ratio[axis] * (1.0 + side * 0.003)
    events = []  # per LP: the atom's epigraph LP, or the axis of a cold box LP

    def record(model, k, cost, hot=False):
        if not hot:
            events.append("epigraph" if cost[d] else int(np.flatnonzero(cost)[0]))
        return solve_lp(model, k, cost, hot=hot)

    monkeypatch.setattr(functions, "solve_lp", record)
    got = argmin(f, c, tol=tol).unique_set.mask.tolist()
    monkeypatch.undo()
    assert got == ref_unique_set(f, c, tol)
    assert got[0] == (side > 0)
    atom0 = events[1:events.index("epigraph", 1)]
    assert atom0.count(axis) == 2, events


def lp_strata(reps: int) -> dict:
    """Four d = 2 strata, each atom repeated ``reps`` times: ``C`` is the
    unit square (flattened to a segment on atom 3) and ``D = C + shift``
    touches it (atom 0), overlaps it (atom 1), stays apart (atom 2) or
    touches it along a line (atom 3).  ``R`` is ``C`` with the ray
    ``(1, 1)``, and ``f`` and ``g`` are the sup norm on ``C`` and on ``R``."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    pts = np.repeat(np.array([square, square, square, flat]), reps, axis=0)
    shift = np.repeat([[1.0, 0.0], [0.5, 0.5], [3.0, 0.0], [1.0, 0.0]], reps, axis=0)
    x = np.repeat([[0.5, 0.5], [0.0, 0.0], [5.0, 5.0], [0.5, 0.0]], reps, axis=0)
    K = len(pts)
    space = MeasureSpace(np.ones(K))
    c, r = ConvexSetRep(space, 2, pts), ConvexSetRep(space, 2, pts, np.ones((K, 1, 2)))
    slopes = np.broadcast_to([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], (K, 4, 2))
    return {"C": c, "D": ConvexSetRep(space, 2, pts + shift[:, None]), "R": r,
            "x": CondVector(space, x), "f": MaxAffineFn(space, slopes, np.zeros((K, 4)), c),
            "g": MaxAffineFn(space, slopes, np.zeros((K, 4)), r)}


# every LP family on lp_strata: margins, dual cones, epigraphs, optimal
# faces, feasible steps and descent cones
STRATA_OPS = {
    "ri_membership": lambda s: ri_membership(s["x"], s["C"], mode="relative"),
    "separate-weak": lambda s: separate(s["C"], s["D"], "weak"),
    "separate-proper": lambda s: separate(s["C"], s["D"], "proper"),
    "argmin": lambda s: argmin(s["g"], s["R"]),
    "conjugate": lambda s: conjugate(s["f"], Grid((-1.0, -1.0), (1.0, 1.0), (1.0, 1.0))),
    "directional_derivative": lambda s: directional_derivative(
        s["f"], CondVector(s["x"].space, s["C"].points[:, 0]), s["x"]),
}
LP_FIELDS = ("a_matrix_.start_", "a_matrix_.index_", "a_matrix_.value_", "col_lower_",
             "col_upper_", "row_lower_", "row_upper_")


@pytest.mark.parametrize("op", sorted(STRATA_OPS))
def test_each_atom_loads_its_per_atom_model(op, monkeypatch):
    # the column form worked out for the whole stack hands every atom the
    # HiGHS model built from that atom's LP alone, field for field, in a
    # reused instance that loads the atoms forwards and back
    models = {}

    def record(model, k, c, hot=False):
        models[id(model)] = model
        return solve_lp(model, k, c, hot=hot)

    monkeypatch.setattr(_solvers, "solve_lp", record)
    monkeypatch.setattr(functions, "solve_lp", record)
    STRATA_OPS[op](lp_strata(1))
    monkeypatch.undo()
    assert max(len(model.A_ub) for model in models.values()) == 4
    for model in models.values():
        K = len(model.A_ub)
        for k in [*range(K), *reversed(range(K))]:
            assert not model.load(k)
            got, want = model.highs.getLp(), ref_highs_lp(model.n, **linprog_form(model, k))
            assert (got.num_col_, got.num_row_) == (want.num_col_, want.num_row_)
            for field in LP_FIELDS:
                path = field.split(".")
                a, b = (np.asarray(functools.reduce(getattr, path, lp)) for lp in (got, want))
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (field, k)


def test_live_highs_instances_do_not_grow_with_the_atom_count(monkeypatch):
    # one HiGHS instance per model, reloaded per atom: each op's peak count
    # of live instances is the same on 4 atoms and on 40 atoms of the same
    # strata (an instance per atom would hold the peak RSS of a job at K)
    live = [0, 0]  # now, peak

    class Counted(_highs._Highs):
        def __init__(self):
            super().__init__()
            live[0] += 1
            live[1] = max(live[1], live[0])

        def __del__(self):
            live[0] -= 1

    monkeypatch.setattr(_highs, "_Highs", Counted)
    peaks = {}
    for reps in (1, 10):
        strata = lp_strata(reps)
        for name, op in STRATA_OPS.items():
            live[1] = live[0]
            op(strata)
            peaks.setdefault(name, []).append(live[1])
    assert all(lo == hi for lo, hi in peaks.values()), peaks
    assert max(hi for _, hi in peaks.values()) <= 2, peaks


def test_argmin_over_a_bounded_set_builds_one_model(monkeypatch):
    # each atom's near-optimal face is its epigraph model with a lowered
    # bound on s (LPModel.narrow), and a bounded set has no recession LPs,
    # so argmin builds the epigraph model alone, whatever the atom count
    built = []
    init = LPModel.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LPModel, "__init__", counted)
    for seed in range(3):
        f, c = argmin_box_data(seed)
        built.clear()
        assert argmin(f, c).value.values.size == 4
        assert len(built) == 1, seed


def test_narrow_lowers_one_bound_in_the_stacks_and_the_instance():
    # x0 + x1 <= 2, x >= 0 on two atoms of a read-only box: narrowing the
    # held atom changes the instance in place, narrowing the other one
    # reaches it at its next load, and the caller's box stays as it was
    box = np.broadcast_to([0.0, np.inf], (2, 2, 2))
    model = LPModel(np.ones((2, 1, 2)), np.full((2, 1), 2.0), np.zeros((2, 0, 2)),
                    np.zeros((2, 0)), box)
    c = np.array([-1.0, 0.0])
    assert solve_lp(model, 0, c).fun == -2.0
    model.narrow(0, 0, 1.0)
    model.narrow(1, 0, 0.5)
    assert model.held == 0 and solve_lp(model, 0, c, hot=True).fun == -1.0
    assert box[0, 0, 1] == np.inf
    for k, want in ((0, -1.0), (1, -0.5), (0, -1.0)):
        res = solve_lp(model, k, c)
        ref = linprog(c, method="highs", options=LINPROG_OPTIONS, **linprog_form(model, k))
        assert res.fun == want == ref.fun and res.x.tobytes() == ref.x.tobytes()


def assert_solves_nnls(A, b):
    """``min |A[k] x - b[k]|`` over ``x >= 0`` is the nearest point of
    ``-b[k] + cone(A[k]'s columns)``: one stacked ``min_norm_point`` call
    reaches scipy's residual on every item, and its ``x`` where ``A[k]``
    has full column rank, so that ``x`` is unique."""
    sol = min_norm_point(-b[:, None], A.swapaxes(1, 2))
    for k in range(len(A)):
        x, rnorm = scipy_nnls(A[k], b[k])
        scale = max(1.0, np.abs(A[k]).max(), np.abs(b[k]).max())
        assert not sol.kkt_fail[k]
        assert abs(sol.coeffs[k, 0] - 1.0) <= 1e-9
        assert abs(np.linalg.norm(sol.point[k]) - rnorm) <= 1e-9 * scale
        if np.linalg.matrix_rank(A[k]) == A.shape[2]:
            assert np.allclose(sol.coeffs[k, 1:], x, rtol=1e-7, atol=1e-9 * scale)


@pytest.mark.parametrize("seed", range(40))
def test_nnls_matches_scipy(seed):
    rng = np.random.default_rng([8, seed])
    m, n = rng.integers(1, 9, size=2)
    A = rng.normal(size=(m, n))
    if seed % 4 == 1:
        A[:, -1] = A[:, 0] * 2.0  # rank deficient
    assert_solves_nnls(A[None], rng.normal(size=(1, m)) * 10.0 ** (seed % 5 - 2))


def test_stacked_nnls_is_scipys_per_item():
    rng = np.random.default_rng(11)
    A, b = rng.normal(size=(30, 6, 5)), rng.normal(size=(30, 6))
    A[::3, :, -1] = A[::3, :, 0] * 2.0  # rank deficient
    assert_solves_nnls(A, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_nnls_matches_scipy_on_nearest_point_systems(seed):
    # a point, rays and free lines: scipy's nnls, with each line split
    # into two nonnegative columns, reaches the same distance
    rng = np.random.default_rng([9, seed])
    for d in (2, 3):
        pt = rng.normal(size=(4, 1, d)) + 0.5  # often away from the origin
        rays = rng.normal(size=(4, seed % 3 + 1, d))
        lines = rng.normal(size=(4, int(seed % 2 == 0), d))
        sol = min_norm_point(pt, rays, lines)
        for k in range(4):
            rnorm = scipy_nnls(np.concatenate([rays[k], lines[k], -lines[k]]).T, -pt[k, 0])[1]
            assert not sol.kkt_fail[k]
            assert abs(np.linalg.norm(sol.point[k]) - rnorm) <= 1e-9 * max(1.0, np.abs(pt[k]).max())


def least_norm_start(rows):
    """Each atom's start: a unit weight on its row of least norm."""
    return np.eye(rows.shape[1])[np.sum(rows * rows, axis=2).argmin(axis=1)]


def ref_simplex_min_norm(rows, eq_mat=None, eq_rhs=None):
    """The QP entry for a convex combination of rows, straight into
    ``cone_least_squares``, on a stack."""
    K, n, _ = rows.shape
    E, e = [np.ones((K, 1, n))], [np.ones((K, 1))]
    if eq_mat is not None and eq_mat.shape[1]:
        E.append(np.matmul(eq_mat, rows.swapaxes(1, 2)))
        e.append(eq_rhs)
    return cone_least_squares(rows, n, np.concatenate(E, axis=1), np.concatenate(e, axis=1),
                              least_norm_start(rows))


def assert_same_stack(got, want):
    assert got.point.tobytes() == want.point.tobytes()
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert got.kkt_fail.tobytes() == want.kkt_fail.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_min_norm_point_matches_simplex_entry(seed):
    rng = np.random.default_rng([12, seed])
    for d in (1, 2, 3, 5):
        K, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        rows = [rng.normal(size=(K, n, d)) + 0.5,
                rng.integers(-2, 3, size=(K, n, d)).astype(float),
                rng.choice([-1.0, -0.0, 0.0, 1.0], size=(K, n, d)),
                np.repeat(rng.normal(size=(K, 1, d)), n, axis=1)][seed % 4]
        r = int(rng.integers(1, d + 1))
        u = np.stack([np.linalg.qr(rng.normal(size=(d, d)))[0][:r] for _ in range(K)])
        mix = rng.dirichlet(np.ones(n), K)
        cvals = np.stack([u[k] @ (mix[k] @ rows[k]) for k in range(K)])
        for eq in ({}, {"eq_mat": u, "eq_rhs": cvals},
                   {"eq_mat": u[:, :0], "eq_rhs": cvals[:, :0]}):
            assert_same_stack(min_norm_point(rows, **eq), ref_simplex_min_norm(rows, **eq))


@dataclass
class RefQP:
    """One atom's result of the reference solver."""

    point: np.ndarray
    coeffs: np.ndarray
    kkt_ok: bool


def ref_cone_least_squares(gens, nonneg, eq_mat, eq_rhs, start, events=None):
    """The active set of ``cone_least_squares`` on one atom: any list of
    nonnegative indices, index lists scattered by loops, a set for the
    support and a separate polish.  ``events`` counts line-search drops,
    drops among exactly tied step lengths and exhausted round budgets, and
    lists each call's support size round by round under ``"supports"``."""
    events = {} if events is None else events
    gens = np.asarray(gens, dtype=float)
    n, d = gens.shape
    eq_mat = np.asarray(eq_mat, dtype=float).reshape(-1, n)
    eq_rhs = np.asarray(eq_rhs, dtype=float).reshape(-1)
    nonneg = sorted(set(int(i) for i in nonneg))
    x = np.array(start, dtype=float)
    support = set(i for i in range(n) if i not in nonneg or x[i] > 0.0)
    opt_tol = 1e-9 * (float(np.max(np.sum(gens * gens, axis=1))) if n else 0.0)
    sizes = []
    events.setdefault("supports", []).append(sizes)
    for _ in range(_solvers._QP_ROUNDS):
        sizes.append(len(support))
        w, rho = ref_polish(gens, eq_mat, eq_rhs, sorted(support))
        bad = [i for i in sorted(support) if i in nonneg and w[i] < -1e-11]
        if bad:
            # step from x toward w until the first coefficient reaches zero
            steps = [x[i] / (x[i] - w[i]) for i in bad]
            t = min(steps)
            events["drops"] = events.get("drops", 0) + 1
            if steps.count(t) > 1:
                events["tied_drops"] = events.get("tied_drops", 0) + 1
            j = bad[steps.index(t)]
            x = x + t * (w - x)
            x[j] = 0.0
            support.discard(j)
            continue
        x = w
        z = gens.T @ w
        sigma = 2.0 * (gens @ z) - eq_mat.T @ rho
        entering = None
        for i in nonneg:
            if i in support:
                continue
            if sigma[i] < -opt_tol and (entering is None or sigma[i] < sigma[entering]):
                entering = i
        if entering is None:
            return RefQP(point=z, coeffs=np.where(np.abs(w) < 1e-15, 0.0, w), kkt_ok=True)
        support.add(entering)
    events["exhausted"] = events.get("exhausted", 0) + 1
    return RefQP(point=gens.T @ x, coeffs=x, kkt_ok=False)


def ref_polish(gens, eq_mat, eq_rhs, support):
    n, s = gens.shape[0], len(support)
    Gs, Es = gens[support], eq_mat[:, support]
    m = Es.shape[0]
    kkt = np.zeros((s + m, s + m))
    kkt[:s, :s] = 2.0 * (Gs @ Gs.T)
    kkt[:s, s:] = Es.T
    kkt[s:, :s] = Es
    sol, *_ = np.linalg.lstsq(kkt, np.concatenate([np.zeros(s), eq_rhs]), rcond=None)
    w = np.zeros(n)
    w[support] = sol[:s]
    return w, -sol[s:]


def qp_system(points, rays=(), lines=(), eq_mat=None, eq_rhs=None):
    """The columns and the equality rows ``E w = e`` of one atom's
    ``min_norm_point`` problem."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    cols, simplex_row, _ = _solvers.vrep_block(
        *(np.asarray(a, dtype=float).reshape(1, -1, points.shape[1])
          for a in (points, rays, lines)))
    cols = cols[0]
    E, e = [simplex_row[None, :]], [np.array([1.0])]
    if eq_mat is not None and len(eq_mat):
        E.append(np.asarray(eq_mat, dtype=float) @ cols)
        e.append(np.asarray(eq_rhs, dtype=float))
    return cols, np.vstack(E), np.concatenate(e)


def equalities_hold(coeffs, E, e):
    return np.abs(E @ coeffs - e).max(initial=0.0) <= 1e-9 * max(1.0, np.abs(e).max())


def ref_min_norm_point(points, rays=(), lines=(), eq_mat=None, eq_rhs=None, start=None,
                       events=None):
    cols, E, e = qp_system(points, rays, lines, eq_mat, eq_rhs)
    if start is None:  # min_norm_point's: a unit weight on the point of least norm
        start = np.zeros(cols.shape[1])
        start[np.sum(np.square(points), axis=-1).argmin()] = 1.0
    sol = ref_cone_least_squares(cols.T, range(len(points) + len(rays)), E, e, start, events)
    sol.kkt_ok = sol.kkt_ok and equalities_hold(sol.coeffs, E, e)
    return sol


def seeded_qp_stack(rng, K):
    """``K`` nearest-point systems of one shape with ties: duplicated
    points, the differences ``p_i + p_j - 2 v`` of a set touching a vertex
    ``v``, signed zeros, integer or Gaussian rows (drawn per atom), rays,
    free lines and equality rows on the point, half of them with a start
    that meets them."""
    d = int(rng.integers(1, 6))
    n = int(rng.integers(1, 7))

    def points():
        return [rng.normal(size=(n, d)) + rng.normal(size=d),
                rng.integers(-2, 3, size=(n, d)).astype(float),
                rng.choice([-1.0, -0.0, 0.0, 1.0], size=(n, d)),
                rng.normal(size=(n, d))][int(rng.integers(4))]

    pts = np.stack([points() for _ in range(K)])
    shape = int(rng.integers(3))
    if shape == 1:  # duplicated points
        extra = int(rng.integers(1, 4))
        pts = np.stack([p[rng.integers(0, n, size=n + extra)] for p in pts])
    elif shape == 2:  # a difference set touching the origin
        v = pts[:, 0, None, None, :]
        pts = (pts[:, :, None, :] + pts[:, None, :, :] - 2.0 * v).reshape(K, -1, d)
    rays = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(K, int(rng.integers(0, 3)), d))
    lines = rng.normal(size=(K, int(rng.integers(0, 2)), d))
    eq = {}
    if rng.random() < 0.3:
        r = int(rng.integers(1, d + 1))
        u = np.stack([np.linalg.qr(rng.normal(size=(d, d)))[0][:r] for _ in range(K)])
        mix = rng.dirichlet(np.ones(pts.shape[1]), K)
        eq = {"eq_mat": u, "eq_rhs": np.stack([u[k] @ (mix[k] @ pts[k]) for k in range(K)])}
        if rng.random() < 0.5:
            eq["start"] = np.concatenate([mix, np.zeros((K, rays.shape[1] + lines.shape[1]))],
                                         axis=1)
    return pts, rays, lines, eq


def full_support(pts, rays, lines):
    """A start on every column: equal weights on the points, a unit weight
    on every ray and none on the lines."""
    K, p, _ = pts.shape
    return np.concatenate([np.full((K, p), 1.0 / p), np.ones((K, rays.shape[1])),
                           np.zeros((K, lines.shape[1]))], axis=1)


def assert_same_qp(got, k, want):
    """Atom ``k`` of a stacked solution has the bits of the reference."""
    assert got.point[k].tobytes() == want.point.tobytes()
    assert got.coeffs[k].tobytes() == want.coeffs.tobytes()
    assert bool(got.kkt_fail[k]) == (not want.kkt_ok)


def assert_matches_reference(pts, rays, lines, eq, events=None):
    """The stacked solve against the reference on every atom alone."""
    got = min_norm_point(pts, rays, lines, **eq)
    for k in range(len(pts)):
        one = {name: a[k] for name, a in eq.items()}
        assert_same_qp(got, k, ref_min_norm_point(pts[k], rays[k], lines[k], events=events, **one))
    assert got.kkt_ok == (not got.kkt_fail.any()) and type(got.kkt_ok) is bool
    return got


@pytest.mark.parametrize("seed", range(10))
def test_min_norm_point_matches_the_index_list_solver(seed):
    rng = np.random.default_rng([14, seed])
    for _ in range(50):
        assert_matches_reference(*seeded_qp_stack(rng, int(rng.integers(1, 9))))


def split_and_merge(supports):
    """Whether two atoms' support sizes part (``split``) or meet
    (``merge``) from one polish round to the next."""
    split = merge = False
    for t in range(1, max(map(len, supports))):
        now = [s[t - 1:t + 1] for s in supports if len(s) > t]
        for a0, a1 in now:
            for b0, b1 in now:
                split |= a0 == b0 and a1 != b1
                merge |= a0 != b0 and a1 == b1
    return split, merge


@pytest.mark.parametrize("rounds", [1, 2, 3, _solvers._QP_ROUNDS])
def test_min_norm_point_matches_the_index_list_solver_from_a_full_support(rounds, monkeypatch):
    # a start on every column makes the polish step back and drop
    # coefficients, often tied ones of duplicated points, and a short
    # round budget runs out
    monkeypatch.setattr(_solvers, "_QP_ROUNDS", rounds)
    rng = np.random.default_rng([16, rounds])
    events = {}
    for _ in range(60):
        pts, rays, lines, eq = seeded_qp_stack(rng, int(rng.integers(2, 9)))
        eq["start"] = full_support(pts, rays, lines)
        assert_matches_reference(pts, rays, lines, eq, events=events)
    assert events.get("drops", 0) > 0
    assert events.get("exhausted", 0) > 0 or rounds == _solvers._QP_ROUNDS


def test_tied_drops_take_the_first_index():
    # every integer point twice and a start on all of them: on some atoms
    # two coefficients reach zero at the same step, and the first index
    # must go, as in the per-atom solver
    events = {}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        base = rng.integers(-2, 3, size=(8, n, d)).astype(float)
        pts, none = np.concatenate([base, base], axis=1), np.zeros((8, 0, d))
        assert_matches_reference(pts, none, none, {"start": full_support(pts, none, none)},
                                 events=events)
    assert events.get("tied_drops", 0) > 0


def test_support_sizes_split_and_merge_across_rounds():
    # atoms of one stack start on supports of different sizes, which grow
    # and shrink at their own pace: atoms of one size go apart and atoms of
    # different sizes meet, so the polish groups change between rounds
    rng = np.random.default_rng(18)
    events, splits, merges = {}, 0, 0
    for _ in range(60):
        K = int(rng.integers(2, 9))
        pts, rays, lines, eq = seeded_qp_stack(rng, K)
        # a start on every column on the atoms whose first entry is positive
        start = np.where(pts[:, :1, :1].reshape(K, 1) > 0, full_support(pts, rays, lines),
                         eq.get("start", ref_start(pts, rays, lines)))
        assert_matches_reference(pts, rays, lines, {**eq, "start": start}, events=events)
        split, merge = split_and_merge(events["supports"][-K:])
        splits, merges = splits + split, merges + merge
    assert splits > 0 and merges > 0


def ref_start(pts, rays, lines):
    """``min_norm_point``'s own start: a unit weight on each atom's point
    of least norm."""
    K = len(pts)
    return np.concatenate([least_norm_start(pts), np.zeros((K, rays.shape[1] + lines.shape[1]))],
                          axis=1)


def test_kkt_ok_needs_the_equality_rows_to_hold():
    # a start on every column misses the extra equality rows; the drops
    # can leave a support on which E w = e has no solution, and the
    # least-squares compromise there must not pass as a KKT point
    infeasible = 0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            pts, rays, lines, eq = seeded_qp_stack(rng, int(rng.integers(1, 9)))
            eq["start"] = full_support(pts, rays, lines)
            sol = min_norm_point(pts, rays, lines, **eq)
            for k in range(len(pts)):
                one = {name: a[k] for name, a in eq.items() if name != "start"}
                if not equalities_hold(sol.coeffs[k], *qp_system(pts[k], rays[k], lines[k],
                                                                 **one)[1:]):
                    infeasible += 1
                    assert sol.kkt_fail[k]
    assert infeasible > 0


def test_a_qp_without_an_accepted_round_returns_its_last_iterate(monkeypatch):
    # from both points of the segment [(1, 0), (2, 0)] the first round
    # solves to w = (2, -1), the origin; the line search stops at (1, 0)
    # and drops the second point.  With one round that iterate comes back,
    # flagged, never the origin; with more, the next round accepts it
    seg, start = np.array([[[1.0, 0.0], [2.0, 0.0]]]), np.array([[0.5, 0.5]])
    for rounds, failed in ((1, True), (2, False)):
        monkeypatch.setattr(_solvers, "_QP_ROUNDS", rounds)
        sol = min_norm_point(seg, start=start)
        assert np.allclose(sol.point, [[1.0, 0.0]]) and np.allclose(sol.coeffs, [[1.0, 0.0]])
        assert sol.kkt_fail.tolist() == [failed]
    # the default start: the point of least norm, with the line in the support
    sol = min_norm_point([[[1.0, 2.0], [3.0, -1.0]]], lines=[[[0.0, 1.0]]])
    assert np.allclose(sol.point, [[1.0, 0.0]]) and sol.kkt_ok


def test_kkt_fail_names_exactly_the_failing_atoms():
    # integer polytopes away from the origin; on the even atoms the data
    # are scaled by 2**10, where the KKT polish fails today (ROADMAP
    # item 1), and one stack holds both kinds
    rng = np.random.default_rng(3)
    K = 40
    pts = rng.integers(-3, 4, size=(K, 6, 3)).astype(float)
    x = rng.integers(-3, 4, size=(K, 3)) + rng.choice([-8.0, 8.0], size=(K, 3))
    scaled = np.arange(K) % 2 == 0
    pts = (pts - x[:, None]) * np.where(scaled, 2.0 ** 10, 1.0)[:, None, None]
    none = np.zeros((K, 0, 3))
    sol = assert_matches_reference(pts, none, none, {})
    assert sol.kkt_fail.tolist() == scaled.tolist() and not sol.kkt_ok


def test_empty_stacks_solve_to_empty_results():
    sol = min_norm_point(np.zeros((0, 4, 2)), np.zeros((0, 1, 2)))
    assert sol.point.shape == (0, 2) and sol.coeffs.shape == (0, 5)
    assert sol.kkt_fail.shape == (0,) and sol.kkt_ok
    # a membership query on an empty region solves an empty stack
    rng = np.random.default_rng(4)
    space = MeasureSpace(np.ones(3))
    rep = ConvexSetRep(space, 2, rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 1, 2)))
    x = CondVector(space, rng.normal(size=(3, 2)))
    assert not membership(x, rep, MeasurableSet(space, np.zeros(3, dtype=bool))).mask.any()


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this stratalg."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stratalg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# the prelude of the core-loading tests: one LP, one QP, and the compiled
# scipy modules a fresh interpreter has loaded (the QP needs none)
CORES = """
        import sys
        import numpy as np
        from stratalg import _solvers
        HIGHS, SLSQP = "scipy.optimize._highspy._core", "scipy.optimize._slsqplib"
        def lp():
            model = _solvers.LPModel(np.array([[[-1.0, -1.0]]]), np.array([[-1.0]]),
                                     np.zeros((1, 0, 2)), np.zeros((1, 0)),
                                     np.array([[[0.0, np.inf]] * 2]))
            assert _solvers.solve_lp(model, 0, [1.0, 2.0]).status == 0
        def qp():
            sol = _solvers.min_norm_point(np.array([[[1.0, 0.0], [2.0, 0.0]]]))
            assert np.allclose(sol.point, [[1.0, 0.0]]) and sol.kkt_ok
        def cores():
            assert "scipy" not in sys.modules, "the scipy package was imported"
            return [name for name in (HIGHS, SLSQP) if name in sys.modules]
"""


def test_cli_import_leaves_scipy_optimize_out():
    # no core loads at import; HiGHS loads on the first LP model, a QP
    # loads none, and the scipy package is never imported
    run_fresh(CORES + """
        import stratalg.cli
        assert not any(name.split(".")[0] == "scipy" for name in sys.modules), "loaded at import"
        qp()
        assert cores() == [], cores()
        lp()
        qp()
        assert cores() == [HIGHS], cores()
    """)


def test_a_qp_only_process_loads_no_core():
    run_fresh(CORES + """
        qp()
        qp()
        assert cores() == [], cores()
    """)


def test_lp_only_process_never_loads_slsqplib():
    run_fresh(CORES + """
        lp()
        lp()
        assert cores() == [HIGHS], cores()
    """)


def test_scipy_optimize_after_stratalg_reuses_the_cores():
    run_fresh(CORES + """
        lp()
        qp()
        assert cores() == [HIGHS], cores()
        highs = sys.modules[HIGHS]
        assert _solvers._highs is highs
        from scipy.optimize import linprog
        from scipy.optimize._highspy import _core
        assert _core is highs
        res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
        assert res.status == 0 and res.x.tolist() == [1.0, 0.0]
        lp()
        qp()
        assert sys.modules[HIGHS] is highs
    """)


def test_stratalg_after_scipy_optimize_reuses_its_cores():
    run_fresh(CORES + """
        from scipy.optimize._highspy import _core
        lp()
        qp()
        assert _solvers._highs is _core
        assert _solvers._load_scipy_extension(HIGHS) is _core
    """)


def test_lstsq_gufunc_matches_numpys_lstsq():
    # the gufunc pinned at import, on seeded stacks of square systems:
    # Gaussian, singular, and the KKT systems of one support point with
    # |g| about 6 700 beside the sum w = 1 row, which lstsq rank-cuts
    # (ROADMAP item 1)
    run_fresh("""
        import numpy as np
        from stratalg import _solvers
        rng = np.random.default_rng(5)
        stacks = []
        for n in (1, 2, 3, 5):
            a = rng.normal(size=(40, n, n))
            a[::4, :, -1] = a[::4, :, 0]
            a[1::4] = 0.0
            stacks.append((a, rng.normal(size=(40, n, 1))))
        g = rng.integers(-3, 4, size=(40, 3)) * 2.0 ** rng.integers(0, 14, size=(40, 1))
        kkt = np.zeros((40, 2, 2))
        kkt[:, 0, 0] = 2.0 * np.einsum("kd,kd->k", g, g)
        kkt[:, 0, 1] = kkt[:, 1, 0] = 1.0
        stacks.append((kkt, np.broadcast_to([[0.0], [1.0]], (40, 2, 1))))
        for a, b in stacks:
            got = _solvers._lstsq(a, b)
            for k in range(len(a)):
                want = np.linalg.lstsq(a[k], b[k, :, 0], rcond=None)[0]
                assert got[k, :, 0].tobytes() == want.tobytes(), (a.shape, k)
        # an SVD that fails on one item raises for the stack, as lstsq does
        # for that item (LAPACK reports the NaN on the console)
        a, b = stacks[1]
        a[3, 0, 0] = np.nan
        for solve in (lambda: _solvers._lstsq(a, b),
                      lambda: np.linalg.lstsq(a[3], b[3, :, 0], rcond=None)):
            try:
                solve()
            except np.linalg.LinAlgError as err:
                assert str(err) == "SVD did not converge in Linear Least Squares", err
            else:
                raise AssertionError("no LinAlgError")
    """)


def test_missing_lstsq_gufunc_names_the_numpy_version():
    run_fresh("""
        import types
        import numpy as np
        import numpy.linalg
        numpy.linalg._umath_linalg = types.ModuleType("numpy.linalg._umath_linalg")
        try:
            import stratalg._solvers
        except ImportError as err:
            assert f"numpy {np.__version__}" in str(err), str(err)
        else:
            raise AssertionError("no ImportError")
    """)


def test_missing_core_names_the_scipy_version():
    # the version is read on the error path without importing scipy; the
    # test imports it afterwards to compare
    run_fresh("""
        import sys
        from stratalg._solvers import _load_scipy_extension
        try:
            _load_scipy_extension("scipy.optimize._no_such_core")
        except ImportError as err:
            assert err.name == "scipy.optimize._no_such_core"
            assert "scipy" not in sys.modules, "the error path imported scipy"
            import scipy
            assert f"scipy {scipy.__version__} " in str(err), str(err)
        else:
            raise AssertionError("no ImportError")
    """)


if __name__ == "__main__":
    import test_solvers  # the module pytest collects, not this __main__ copy

    test_solvers.REWRITE = {}
    code = pytest.main([test_solvers.__file__, "-q", "-p", "no:cacheprovider"])
    if code != 0:
        sys.exit(code)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(test_solvers.REWRITE.items())), fh, indent=1)
        fh.write("\n")
