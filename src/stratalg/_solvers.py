"""Polyhedral subproblem solvers: per-atom LPs and one stacked QP.

Everything here is classical finite-dimensional numerics; no conditional
structure enters.  The quadratic solver is one algorithm, a primal active
set started from a feasible point (Wolfe's, for the nearest point of a
polytope), whose rounds solve the KKT system on the support exactly, so
solutions of the small nearest-point problems are accurate to
linear-solve roundoff and fully deterministic.  It takes a stack of atoms
that share one problem shape: one call solves a whole stratum, with the
bits that each atom gets when solved alone.

The LP core, HiGHS (``scipy.optimize._highspy._core``), comes from a
private scipy module, loaded from its file by ``_load_scipy_extension``.
Neither ``scipy`` nor ``scipy.optimize`` is imported (``find_spec``
locates scipy without running its ``__init__``): those imports would be
most of a CLI process's start-up.  HiGHS loads on the first LP model,
never at import, with the LP options and status table (``_load_highs``),
so a process that solves no LP (grid transforms, bases, sequences,
nearest points) never loads it.  The module is registered in
``sys.modules`` under its own name, so a later ``import scipy.optimize``
in the same process reuses the same module object, and one loaded
earlier is reused here.  (When this module loaded it first, only its
attribute on the parent package stays unset; ``from``-imports find it in
``sys.modules``.)  The QP needs no compiled core of its own: its rounds
solve through numpy's private least-squares gufunc, the one
``np.linalg.lstsq`` calls per system, pinned at import as ``_LSTSQ``
(``lstsq`` in numpy 2, ``lstsq_m`` in numpy 1); a numpy without it fails
the import with an ``ImportError`` that names the numpy version.
``test_solvers`` checks HiGHS against ``linprog`` and the gufunc against
``np.linalg.lstsq`` bit for bit.

Linear programs go to HiGHS one LP per call.  Kept from
``scipy.optimize.linprog(method="highs")``: the model handed to HiGHS,
the options (presolve on, dual simplex, feasibility tolerances 1e-10),
the mapping of HiGHS model statuses to linprog's 0-4 codes and the
post-solve feasibility check (``LP_FEAS_TOL`` and ``LP_CHECK_TOL``; every
threshold here is a name of ``tolerances``).  Every LP therefore gives the
same status and a bit-identical ``fun`` and ``x`` as linprog; skipped are only
linprog's per-call input validation, option checking and result
packaging, which cost several times the solve itself on these small LPs.
Every LP family states its constraints once per stratum, as atom-first
stacks, in one ``LPModel`` that owns one HiGHS instance, reloaded per
atom (only argmin's descent-cone models are one atom each).  In every
family whose ``x`` is read (epigraph, dual-cone, margin, step and
recession LPs) every cost, the first one included, is set on that
instance and run from a cleared solver, so nothing a previous solve left
behind can influence which optimal vertex comes back, and every result
has the bits of an instance that got the cost with the atom's model
(``test_solvers`` pins this).  argmin's uniqueness box reads only values:
its near-optimal face is the atom's epigraph model with the epigraph
variable's upper bound lowered by ``LPModel.narrow``, and its LPs run hot
from the epigraph optimum's basis (``solve_lp(..., hot=True)``); the
caller solves again cold a hot LP that is not optimal, or a width near its
threshold.  Weak and proper separation skip the dual-cone scan on the
atoms that ``cone_spans`` certifies, whose dual cone is ``{0}``; that
certificate is a stacked QP.

Every per-atom LP runs inside ``per_atom``, and each call site passes its
result through ``expect`` with the statuses it reads as verdicts:
infeasible in ``positivity_margin`` (``-inf``), in the feasible-direction
test (no step) and in argmin's epigraph LP (value ``+inf``); unbounded in
a conjugate node LP (``+inf``), argmin's epigraph LP (unbounded below)
and its optimal-face LPs (not unique).  Any other non-optimal status is
a fault, and ``per_atom`` raises one ``SolverError`` for all such atoms.

Every LP over a set in V-representation,
``conv(points) + cone(rays) + span(lines)``, here and in ``functions``,
takes its generator columns, its ``sum lam = 1`` row and its bounds from
``vrep_block``, and the nearest-point QP lays out its columns in the same
order.  ``min_norm_point`` is the one nearest-point QP entry: every
caller, the minimal-norm subgradient and the dominated extension
included, passes it the ``(K, ., d)`` stacks of one stratum (atoms with
the same generator counts) and gets one ``cone_least_squares`` call.  It
also answers every distance verdict: set membership and the dominated
extension's feasibility check read the Euclidean norm of a nearest
point, so no LP measures how far a point is from a set.  A QP result
holds per-atom ``point`` and ``coeffs`` rows and the mask ``kkt_fail`` of
atoms whose returned solution is not a KKT point; ``kkt_ok`` is the plain
``bool`` that no atom failed.  ``cone_spans`` is the one caller that reads
``kkt_fail``: a failed item never certifies its atom.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from types import ModuleType
from typing import NamedTuple, Optional

import numpy as np

from .core import _strata
from .errors import SolverError
from .tolerances import (DROP_TOL, EQ_TOL, FEAS_TOL, LP_CHECK_TOL, LP_FEAS_TOL, SPAN_MASS,
                         SPAN_REACH, STRICT_TOL, TIE_TOL, row_scale)


def _load_scipy_extension(name: str) -> ModuleType:
    """The compiled scipy module ``name`` (``scipy.<path>``), loaded from
    its file without importing ``scipy`` or any package above it.

    A module already in ``sys.modules`` is returned as it is; a newly
    loaded one is registered there under ``name``.  A missing file raises
    an ``ImportError`` that names the installed scipy version.
    """
    if name in sys.modules:
        return sys.modules[name]
    scipy = find_spec("scipy")  # the package's location; its __init__ does not run
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    base = os.path.join(os.path.dirname(scipy.origin), *name.split(".")[1:])
    path = next((base + s for s in EXTENSION_SUFFIXES if os.path.isfile(base + s)), None)
    if path is None:
        from importlib.metadata import version
        raise ImportError(
            f"compiled module {name} not found in scipy {version('scipy')} "
            f"(looked for {base}{{{','.join(EXTENSION_SUFFIXES)}}})",
            name=name,
        )
    loader = ExtensionFileLoader(name, path)
    module = module_from_spec(spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


def _pin_lstsq():
    """numpy's private least-squares gufunc, the one ``np.linalg.lstsq``
    calls: ``lstsq`` since numpy 2.0, and ``lstsq_m`` before, which served
    ``m <= n`` and so every square system.  Missing, it raises an
    ``ImportError`` that names the numpy version."""
    try:
        from numpy.linalg import _umath_linalg
    except ImportError:
        _umath_linalg = None
    gufunc = getattr(_umath_linalg, "lstsq", None) or getattr(_umath_linalg, "lstsq_m", None)
    if gufunc is None:
        raise ImportError(f"numpy {np.__version__} has no least-squares gufunc "
                          "numpy.linalg._umath_linalg.lstsq (or lstsq_m)")
    return gufunc


_LSTSQ = _pin_lstsq()

_QP_ROUNDS = 60

def _load_highs() -> None:
    """Load HiGHS once, and set the LP options and statuses.

    linprog's HiGHS options: presolve on, dual simplex, feasibility
    enforced well below the package's strict-inequality tolerances so
    that LP-derived margins cannot fake interiority, no console output.
    HiGHS model statuses map to linprog's (0 optimal, 1 limit reached,
    2 infeasible, 3 unbounded); every other status, kUnboundedOrInfeasible
    included, is 4.
    """
    if "_highs" in globals():
        return
    highs = _load_scipy_extension("scipy.optimize._highspy._core")
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = LP_FEAS_TOL
    options.dual_feasibility_tolerance = LP_FEAS_TOL
    options.output_flag = False
    options.log_to_console = False
    ms = highs.HighsModelStatus
    status = {ms.kOptimal: 0, ms.kTimeLimit: 1, ms.kIterationLimit: 1, ms.kInfeasible: 2,
              ms.kModelError: 2, ms.kUnbounded: 3}
    globals().update(_highs=highs, _LP_OPTIONS=options, _MS=ms, _LP_STATUS=status)


_OUTCOMES = ("ok", "limit", "infeasible", "unbounded", "numerical")  # by status


class LPResult(NamedTuple):
    """``status`` as in linprog; ``fun`` and ``x`` are None unless a
    solution was returned (status 0, or 4 when the check downgraded it)."""

    status: int
    fun: Optional[float]
    x: Optional[np.ndarray]


def _highs_inf(a: np.ndarray) -> np.ndarray:
    return np.where(np.isinf(a), np.copysign(_highs.kHighsInf, a), a)


class LPModel:
    """The constraint sets ``A_ub[k] x <= b_ub[k]``, ``A_eq[k] x = b_eq[k]``,
    ``box[k, :, 0] <= x <= box[k, :, 1]`` of a family of LPs over ``n``
    variables, one per atom: float stacks ``(K, m_ub, n)``, ``(K, m_ub)``,
    ``(K, m_eq, n)``, ``(K, m_eq)`` and ``(K, n, 2)``, ``±inf`` unbounded.

    The stacks are kept as given, for the post-solve feasibility check;
    only ``narrow`` changes ``box``.  Every atom's HiGHS rows ``row_lower
    <= [A_ub; A_eq] x <= row_upper``, column-wise with rows ascending in
    each column, are worked out in one pass; ``load(k)`` hands atom ``k``'s
    model, with the bounds in ``box`` and zero costs, to the model's own
    ``_Highs`` instance unless the instance holds it.
    """

    def __init__(self, A_ub, b_ub, A_eq, b_eq, box):
        _load_highs()
        self.A_ub, self.b_ub, self.A_eq, self.b_eq, self.box = A_ub, b_ub, A_eq, b_eq, box
        K, self.m_ub, self.n = A_ub.shape
        self.row_upper = np.concatenate([b_ub, b_eq], axis=1)
        self._row_lower = _highs_inf(np.concatenate([np.full(b_ub.shape, -np.inf), b_eq], axis=1))
        self._row_upper = _highs_inf(self.row_upper)
        At = np.concatenate([A_ub, A_eq], axis=1).transpose(0, 2, 1)
        atom, col, self._index = np.nonzero(At)
        self._value = At[atom, col, self._index]
        counts = np.bincount(atom * self.n + col, minlength=K * self.n).reshape(K, self.n)
        self._start = np.zeros((K, self.n + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=self._start[:, 1:])
        self._nz = np.concatenate([[0], np.cumsum(self._start[:, -1])])
        self.highs = _highs._Highs()
        self.highs.passOptions(_LP_OPTIONS)
        self.held = None  # the atom whose model the instance holds
        self.rejected = None

    def load(self, k: int) -> bool:
        """Load atom ``k``'s model into the instance unless it holds it;
        True when HiGHS rejected it (kModelError)."""
        if self.held != k:
            n, m, nz = self.n, self.row_upper.shape[1], slice(self._nz[k], self._nz[k + 1])
            lp = _highs.HighsLp()
            lp.num_col_ = lp.a_matrix_.num_col_ = n
            lp.num_row_ = lp.a_matrix_.num_row_ = m
            lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
            lp.a_matrix_.start_ = self._start[k]
            lp.a_matrix_.index_ = self._index[nz]
            lp.a_matrix_.value_ = self._value[nz]
            lp.col_lower_, lp.col_upper_ = _highs_inf(self.box[k].T)
            lp.row_lower_ = self._row_lower[k]
            lp.row_upper_ = self._row_upper[k]
            lp.col_cost_ = np.zeros(n)  # HiGHS rejects a model without costs
            self.held = k
            self.rejected = self.highs.passModel(lp) == _highs.HighsStatus.kError
        return self.rejected

    def narrow(self, k: int, col: int, upper: float) -> None:
        """Lower atom ``k``'s upper bound on column ``col`` to ``upper`` in
        ``box`` (copied once if read-only) and, if it holds atom ``k``, in
        the instance: ``changeColBounds`` keeps the last solve's basis for
        ``solve_lp(self, k, c, hot=True)``.  A refused change reloads."""
        if not self.box.flags.writeable:
            self.box = self.box.copy()
        self.box[k, col, 1] = upper
        if self.held == k and self.highs.changeColBounds(
                col, *_highs_inf(self.box[k, col])) == _highs.HighsStatus.kError:
            self.held = None


def solve_lp(model: LPModel, k: int, c, hot: bool = False) -> LPResult:
    """``min c x`` over atom ``k``'s constraint set in ``model``.

    The cost is set by ``changeColsCost`` on the model's HiGHS instance,
    loaded with atom ``k``, and run from a cleared solver: ``clearSolver``
    drops the basis, the solution and the presolve state an earlier solve
    left, so every LP starts cold, and status, ``fun`` and ``x`` have the
    bits of an instance that got the cost with the atom's model.  A warm
    start would not: on a degenerate LP the kept basis can change the
    optimal vertex, and canonical outputs such as separating normals are
    read off that vertex.  ``hot=True`` is for a family that reads only
    ``fun`` or the status: where the instance already holds atom ``k``
    (loaded, then perhaps narrowed), the LP runs from the basis the last
    solve left, which HiGHS solves without presolve.  Its ``fun`` agrees
    with a cold solve's to the solver's tolerances, not bit for bit.
    Statuses are linprog's (0 optimal, 1 limit, 2 infeasible, 3 unbounded,
    4 other); a model that HiGHS rejected is 2, and a reported optimum that
    violates a bound or constraint by more than linprog's check tolerance
    is downgraded to 4, as linprog does.
    """
    c = np.array(c, dtype=float).reshape(-1)
    h = model.highs
    hot = hot and model.held == k
    if (not hot and model.load(k)) or (
            h.changeColsCost(model.n, np.arange(model.n, dtype=np.int32), c)
            == _highs.HighsStatus.kError):
        return LPResult(_LP_STATUS[_MS.kModelError], None, None)
    if not hot:
        h.clearSolver()
    run_failed = h.run() == _highs.HighsStatus.kError
    model_status = h.getModelStatus()
    if run_failed or model_status != _MS.kOptimal:
        return LPResult(_LP_STATUS.get(model_status, 4), None, None)

    solution = h.getSolution()
    x = np.array(solution.col_value)
    fun = h.getObjectiveValue()
    slack = model.row_upper[k] - np.array(solution.row_value)
    tol = LP_CHECK_TOL
    feasible = not (
        np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
        or not np.all((x >= model.box[k, :, 0] - tol) & (x <= model.box[k, :, 1] + tol))
        or (slack[:model.m_ub] < -tol).any()
        or (np.abs(slack[model.m_ub:]) > tol).any()
    )
    return LPResult(0 if feasible else 4, fun, x)


class _LPFault(Exception):
    """An LP outcome that its call site does not read as a verdict."""


def expect(res: LPResult, *verdicts: str) -> LPResult:
    """``res`` if it is optimal or its outcome is one of ``verdicts``
    (``"infeasible"``, ``"unbounded"``); any other status is a fault of
    the atom that ``per_atom`` is solving."""
    if res.status and _OUTCOMES[res.status] not in verdicts:
        raise _LPFault(_OUTCOMES[res.status])
    return res


def per_atom(atoms: np.ndarray, solve, what: str) -> list:
    """``[solve(k) for k in np.flatnonzero(atoms)]``, and no LP fault lost.

    An atom stops at its first LP fault, the others are still solved, and
    then one ``SolverError`` names every faulted atom with its outcome.
    """
    out, faults = [], {}
    for k in np.flatnonzero(atoms):
        try:
            out.append(solve(k))
        except _LPFault as fault:
            faults[k] = fault.args[0]
    if faults:
        raise SolverError(f"{what} LP failed: " + ", ".join(
            f"{outcome} on atom {k}" for k, outcome in faults.items()),
            np.isin(np.arange(len(atoms)), list(faults)))
    return out


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(a[k], b[k], rcond=None)[0]`` for every item of a
    stack of square systems, through the one gufunc call that
    ``np.linalg.lstsq`` makes per system, with its ``rcond`` and error
    state: LAPACK ``gelsd`` runs per item, so the bits are the per-system
    call's, and an SVD that does not converge raises ``LinAlgError``."""
    n = a.shape[-1]
    if not n:
        return np.zeros(b.shape)
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _LSTSQ(a, b, np.finfo(np.float64).eps * n, signature="ddd->ddid")[0]


@dataclass(eq=False)
class QPSolution:
    """Per-atom solutions of ``min |G^T w|^2`` s.t. ``E w = e``, ``w_i >= 0``
    on a prefix, atom axis first."""

    point: np.ndarray        # (K, d): the minimizing combinations G^T w
    coeffs: np.ndarray       # (K, n): w in the original variable order
    kkt_fail: np.ndarray     # (K,) bool: the returned w is not primal and dual feasible

    @property
    def kkt_ok(self) -> bool:
        """True when no atom failed the KKT check."""
        return not self.kkt_fail.any()


def cone_least_squares(
    gens: np.ndarray,
    nonneg: int,
    eq_mat: np.ndarray,
    eq_rhs: np.ndarray,
    start: np.ndarray,
) -> QPSolution:
    """Minimize ``|gens[k]^T w|`` subject to ``eq_mat[k] w = eq_rhs[k]`` and
    ``w_i >= 0`` for the first ``nonneg`` coefficients, on every atom ``k``
    of the ``(K, n, d)``, ``(K, m, n)`` and ``(K, m)`` stacks.

    ``gens[k]`` has one generator per row, in ``vrep_block``'s order:
    points, then rays (the nonnegative prefix), then lines (free).  A
    primal active set (Wolfe's, for the nearest point of a polytope) runs
    from the feasible ``(K, n)`` coefficients ``start``, whose support is
    their positive nonnegative coefficients and every free one.  Each round
    solves the equality-constrained least squares on the support exactly.
    Where a coefficient falls below ``-DROP_TOL``, the coefficients step
    from the current ones toward that solution until the first of those
    reaches zero (the first index among ties), and its column leaves the
    support.  Otherwise the solution is accepted, and the excluded column
    whose dual most violates the KKT conditions (the first index among
    ties) enters, if its dual is below ``-FEAS_TOL * max |g|^2`` over the
    atom's generators.  An atom whose rounds run out returns its last
    iterate.  ``kkt_fail[k]`` is set unless an accepted round admits no
    entering column and ``|eq_mat[k] w - eq_rhs[k]|`` is at most
    ``FEAS_TOL * row_scale(eq_rhs)[k]`` in the sup norm.

    The rounds run over the atoms still solving, grouped by support
    size: each group builds its KKT systems as one stack and solves them in
    one ``_lstsq`` call.  Every matrix product is a ``matmul`` whose items
    have the shape and strides of the per-atom product, so each atom's
    result has the bits of the same rounds run on that atom alone
    (``test_solvers`` pins them against a per-atom reference).
    """
    gens = np.asarray(gens, dtype=float)
    eq_mat = np.asarray(eq_mat, dtype=float)
    eq_rhs = np.asarray(eq_rhs, dtype=float)
    K, n, d = gens.shape
    m = eq_rhs.shape[1]
    x = np.array(start, dtype=float)  # each atom's current feasible coefficients
    on = np.ones((K, n), dtype=bool)
    on[:, :nonneg] = x[:, :nonneg] > 0.0

    opt_tol = FEAS_TOL * np.sum(gens * gens, axis=2).max(axis=1, initial=0.0)
    eq_tol = FEAS_TOL * row_scale(eq_rhs)
    point, coeffs = np.zeros((K, d)), np.zeros((K, n))
    kkt_fail, live = np.ones(K, dtype=bool), np.ones(K, dtype=bool)
    for _ in range(_QP_ROUNDS):
        atoms = np.flatnonzero(live)
        if not atoms.size:
            break
        for s, at in _strata(on[atoms].sum(axis=1)):
            grp = atoms[at]
            # KKT systems on the supports: 2 Q w + E^T lam = 0, E w = e
            support = np.nonzero(on[grp])[1].reshape(len(grp), s)
            G, E = gens[grp], eq_mat[grp]
            Gs = G[np.arange(len(grp))[:, None], support]
            Es = np.take_along_axis(E, support[:, None, :], axis=2)
            kkt = np.zeros((len(grp), s + m, s + m))
            kkt[:, :s, :s] = 2.0 * (Gs @ Gs.swapaxes(1, 2))
            kkt[:, :s, s:] = Es.swapaxes(1, 2)
            kkt[:, s:, :s] = Es
            rhs = np.zeros((len(grp), s + m, 1))
            rhs[:, s:, 0] = eq_rhs[grp]
            sol = _lstsq(kkt, rhs)[:, :, 0]
            w = np.zeros((len(grp), n))
            np.put_along_axis(w, support, sol[:, :s], axis=1)

            # line search: the first coefficient to reach zero on the way
            # from x to w leaves the support
            neg = w[:, :nonneg] < -DROP_TOL
            drop = neg.any(axis=1)
            if drop.any():
                k, xk, wk = grp[drop], x[grp[drop]], w[drop]
                head = xk[:, :nonneg]
                ratio = np.divide(head, head - wk[:, :nonneg], out=np.full(head.shape, np.inf),
                                  where=neg[drop])
                j = ratio.argmin(axis=1)
                x[k] = xk + ratio[np.arange(len(k)), j, None] * (wk - xk)
                x[k, j], on[k, j] = 0.0, False

            keep = ~drop
            k, G, E, w, lam = grp[keep], G[keep], E[keep], w[keep], sol[keep, s:]
            x[k] = w
            z = np.matmul(G.swapaxes(1, 2), w[:, :, None])[:, :, 0]
            # dual feasibility on the excluded nonnegative coefficients
            sigma = (2.0 * np.matmul(G, z[:, :, None])[:, :, 0]
                     + np.matmul(E.swapaxes(1, 2), lam[:, :, None])[:, :, 0])
            entering = ~on[k, :nonneg] & (sigma[:, :nonneg] < -opt_tol[k, None])
            c = np.where(np.abs(w) < TIE_TOL, 0.0, w)
            primal = np.abs(np.matmul(E, c[:, :, None])[:, :, 0] - eq_rhs[k])
            enters = entering.any(axis=1)
            point[k], coeffs[k] = z, c
            kkt_fail[k] = enters | ~(primal.max(axis=1, initial=0.0) <= eq_tol[k])
            live[k[~enters]] = False
            if enters.any():
                j = np.where(entering[enters], sigma[enters, :nonneg], np.inf).argmin(axis=1)
                on[k[enters], j] = True

    # atoms whose rounds ran out return their last iterate
    k = np.flatnonzero(live)
    point[k] = np.matmul(gens[k].swapaxes(1, 2), x[k, :, None])[:, :, 0]
    coeffs[k] = x[k]
    return QPSolution(point=point, coeffs=coeffs, kkt_fail=kkt_fail)


def vrep_block(points, rays, lines) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LP block of ``x = P^T lam + R^T mu + L^T nu``, ``sum lam = 1``,
    ``lam, mu >= 0``, ``nu`` free, for ``conv(points)+cone(rays)+span(lines)``.

    Returns, from the ``(K, ., d)`` stacks, ``cols`` (``(K, d, n)``, one
    column per generator, in the column order ``[lam | mu | nu]``), the
    ``sum lam = 1`` row over those columns and their ``(n, 2)`` bounds.
    The caller places the block in its LP; ``min_norm_point`` stacks its
    QP columns in the same order.
    """
    cols = np.concatenate([points, rays, lines], axis=1).swapaxes(1, 2)
    p, nonneg, i = points.shape[1], points.shape[1] + rays.shape[1], np.arange(cols.shape[2])
    box = np.where(i[:, None] < nonneg, [0.0, np.inf], [-np.inf, np.inf])
    return cols, np.where(i < p, 1.0, 0.0), box


def min_norm_point(points, rays=None, lines=None, eq_mat=None, eq_rhs=None,
                   start=None) -> QPSolution:
    """Nearest point to the origin of ``conv(points[k]) + cone(rays[k]) +
    span(lines[k])`` on every atom ``k``, one ``cone_least_squares`` call
    for the stack.

    The families are ``(K, ., d)`` stacks; missing ``rays`` or ``lines``
    mean none.  The columns are in ``vrep_block``'s order, ``[points |
    rays | lines]``.  Each atom starts from its point of least norm (the
    first among ties).  Optional extra equalities constrain the point
    ``z`` itself: the ``(K, r, d)`` rows of ``eq_mat`` dot ``z`` must equal
    the ``(K, r)`` ``eq_rhs``.  That point need not meet them, so a caller
    that has coefficients which do passes them as the ``(K, n)``
    ``start``, as ``hahn_banach_extend`` passes those of its gap QP.
    """
    points = np.asarray(points, dtype=float)
    K, p, d = points.shape
    fams = [np.zeros((K, 0, d)) if a is None else np.asarray(a, dtype=float)
            for a in (rays, lines)]
    gens = np.concatenate([points, *fams], axis=1)
    E = np.zeros((K, 1, gens.shape[1]))
    E[:, 0, :p] = 1.0
    e = np.ones((K, 1))
    if eq_mat is not None and np.shape(eq_mat)[1]:
        # <u_i, cols w> = c_i is linear in the coefficients w
        E = np.concatenate([E, np.matmul(eq_mat, gens.swapaxes(1, 2))], axis=1)
        e = np.concatenate([e, eq_rhs], axis=1)
    if start is None:
        start = np.zeros(gens.shape[:2])
        start[np.arange(K), np.sum(points * points, axis=2).argmin(axis=1)] = 1.0
    return cone_least_squares(gens, p + fams[0].shape[1], E, e, start)


def positivity_margin(
    atoms: np.ndarray,
    target: np.ndarray,
    points: np.ndarray,
    rays: np.ndarray,
    lines: np.ndarray,
) -> np.ndarray:
    """On each atom of the mask ``atoms``, the largest ``t`` such that the
    target admits a combination whose point and ray coefficients all sit
    at or above ``t``; the arguments are ``(K, d)`` and ``(K, ., d)`` stacks.

    One LP per atom, matching the target to ``EQ_TOL`` (scaled): a looser
    match would let a boundary target borrow a positive margin from the
    slack.  Interior targets get a margin above a small threshold,
    boundary ones at most about ``EQ_TOL``; ``-inf`` means infeasible, the
    target outside the set; any other non-optimal status is a fault,
    raised by ``per_atom``.
    """
    cols, simplex_row, box = vrep_block(points, rays, lines)
    K, d, n = cols.shape
    nonneg = n - lines.shape[1]
    slack = FEAS_TOL * row_scale(cols, target)
    # written as a rescaled FEAS_TOL slack, which pins the bits of b_ub
    tight = (EQ_TOL * (slack / FEAS_TOL))[:, None]
    # variables [w (n), t]; maximize t.  Rows: t <= w_i for every
    # nonnegative coefficient, then |cols w - target| <= tight.
    A_ub = np.zeros((K, nonneg + 2 * d, n + 1))
    A_ub[:, :nonneg] = np.hstack([-np.eye(n)[:nonneg], np.ones((nonneg, 1))])
    A_ub[:, nonneg:, :n] = np.concatenate([cols, -cols], axis=1)
    b_ub = np.concatenate([np.zeros((K, nonneg)), target + tight, -target + tight], axis=1)
    A_eq = np.broadcast_to(np.append(simplex_row, 0.0), (K, 1, n + 1))
    box = np.broadcast_to(np.vstack([box, [-np.inf, 1.0]]), (K, n + 1, 2))
    model = LPModel(A_ub, b_ub, A_eq, np.ones((K, 1)), box)
    c = np.zeros(n + 1)
    c[-1] = -1.0

    def solve(k):
        res = expect(solve_lp(model, k, c), "infeasible")
        return -np.inf if res.status == 2 else float(-res.fun)

    return np.array(per_atom(atoms, solve, "relative-interior"), dtype=float)


def dual_cone_model(ineq_rows: np.ndarray, eq_rows: np.ndarray) -> LPModel:
    """The cone ``ineq_rows[k] z >= 0``, ``eq_rows[k] z = 0`` of every atom
    of the ``(K, ., n)`` stacks, cut to the unit box: the constraint set
    that ``nonzero_in_dual_cone`` scans."""
    K, _, n = ineq_rows.shape
    return LPModel(-ineq_rows, np.zeros(ineq_rows.shape[:2]), eq_rows,
                   np.zeros(eq_rows.shape[:2]), np.broadcast_to([-1.0, 1.0], (K, n, 2)))


def cone_spans(ineq_rows: np.ndarray, eq_rows: np.ndarray) -> np.ndarray:
    """Atoms of the ``(K, ., n)`` stacks certified to have ``cone(ineq_rows[k])
    + span(eq_rows[k]) = R^n`` with room for the LP tolerance, so that the
    scan of the ``dual_cone_model`` of the same stacks finds only ``z = 0``.

    One stacked ``min_norm_point`` call over the rows scaled to unit length
    measures the distance from each of the ``2n`` vectors ``+-e_i`` to that
    cone.  An atom is certified when every distance is at most
    ``SPAN_REACH / sqrt(n)``, no QP item failed its KKT check, and every
    item's coefficients, read back in the given rows, have a mass ``M``
    (the sum of their magnitudes) of at most ``SPAN_MASS``.

    The distances prove the cone spans ``R^n`` (Davis' positive-spanning
    theorem): a unit ``z`` in the dual cone has some ``|z_i| >= 1 /
    sqrt(n)``, and the point ``v`` of the cone nearest ``s e_i``, with
    ``s = -sign(z_i)``, would then give ``<z, v> <= -|z_i| + SPAN_REACH /
    sqrt(n) < 0`` (``SPAN_REACH`` is 0.5).  The mass bounds what the
    scan's LPs can accept: a ``z`` that meets every row to the feasibility
    tolerance ``tau`` has ``|z|_inf <= 2 tau M``, while every nonzero
    vertex of the scan's LP has ``|z|_inf = 1``.  Near the boundary of the
    cone, where ``M`` grows as the inverse of the origin's depth, the atom
    is left to the scan.
    """
    K, m, n = ineq_rows.shape
    rows = np.concatenate([ineq_rows, eq_rows], axis=1)
    norm = np.linalg.norm(rows, axis=2, keepdims=True)
    unit = np.repeat(np.divide(rows, norm, out=np.zeros(rows.shape), where=norm > 0.0), 2 * n,
                     axis=0)
    # problem (k, j): the cone of atom k shifted by -(+-e_j)
    signed = np.concatenate([np.eye(n), -np.eye(n)])
    sol = min_norm_point(np.broadcast_to(-signed[:, None], (K, 2 * n, 1, n)).reshape(-1, 1, n),
                         unit[:, :m], unit[:, m:])
    scale = np.repeat(norm[:, :, 0], 2 * n, axis=0)
    mass = np.divide(np.abs(sol.coeffs[:, 1:]), scale, out=np.zeros(scale.shape),
                     where=scale > 0.0).sum(axis=1)
    near = np.linalg.norm(sol.point, axis=1) <= SPAN_REACH / np.sqrt(n)
    return (near & ~sol.kkt_fail & (mass <= SPAN_MASS)).reshape(K, 2 * n).all(axis=1)


def nonzero_in_dual_cone(model: LPModel, k: int) -> Optional[np.ndarray]:
    """A canonical nonzero ``z`` in atom ``k``'s cone of ``model`` (a
    ``dual_cone_model``), or ``None`` when only ``z = 0`` qualifies.

    Scans the coordinate objectives ``+-e_i`` over the cone intersected
    with the unit box and keeps the lexicographically smallest normalized
    maximizer, which makes the choice reproducible.  The LPs are feasible
    and bounded: any other status is a fault, raised by ``per_atom``.
    """
    best = None
    for axis in range(model.n):
        for sign in (1.0, -1.0):
            c = np.zeros(model.n)
            c[axis] = -sign
            res = expect(solve_lp(model, k, c))
            nz = np.linalg.norm(res.x)
            if -float(res.fun) > STRICT_TOL and nz > STRICT_TOL and (
                    best is None or _lex_less(res.x / nz, best)):
                best = res.x / nz
    return best


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    lt, gt = a < b - EQ_TOL, a > b + EQ_TOL
    return bool(lt[np.argmax(lt | gt)])  # at the first coordinate that differs
