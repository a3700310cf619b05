"""Command-line scenario runner.

One interchange document in, one result document out on stdout.  Every
subcommand resolves named objects from the scenario, invokes the
corresponding library operation, and emits a result document carrying a
``certificates`` block with the residuals and failure sets that justify
the answer.  Exit codes: 0 success, 1 malformed input, 2 precondition
failure (including nonempty failure sets under ``--strict``).

Defaults: ``--tol`` falls back to each operation's documented tolerance,
``--seed 7`` drives the probe-based certificate audits.  ``--tol`` must be
a finite number > 0, ``--seed`` an integer >= 0 and ``--probes`` an
integer >= 1; any other value is a malformed flag (exit 1).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import linalg, sets
from .core import CondVector
from .errors import AtomSetError, StratalgError
from .functions import (
    Grid,
    GridFn,
    MaxAffineFn,
    argmin,
    bounded_subgradient,
    conjugate,
    fenchel_moreau_check,
    inf_convolution,
    infconv_checks,
    subdifferential,
)
from .io import ParseError, Scenario, build_scenario, emit_document, load_document
from .sequences import bw_extract, cauchy_limit
from .tolerances import QP_TOL, RANK_TOL, STRICT_TOL

__all__ = ["main"]


def _result_doc(scn: Scenario) -> dict:
    return {
        "weights": [float(w) for w in scn.space.weights],
        "d": scn.d,
        "vectors": {},
        "sets": {},
        "scalars": {},
        "integers": {},
        "certificates": {},
    }


def _set_out(ms) -> list:
    return [1 if b else 0 for b in ms.mask]


def _floats(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"expected comma-separated numbers, got {text!r}") from exc


def _grid_record(g: GridFn) -> dict:
    return {
        "type": "grid",
        "mins": list(g.grid.mins),
        "maxs": list(g.grid.maxs),
        "steps": list(g.grid.steps),
        "values": g.values.tolist(),
    }


def _dual_grid(args) -> Grid | None:
    given = [args.mins, args.maxs, args.steps]
    if all(v is None for v in given):
        return None
    if any(v is None for v in given):
        raise ParseError("--mins, --maxs and --steps must be given together")
    return Grid(_floats(args.mins), _floats(args.maxs), _floats(args.steps))


def _grid_fn(scn: Scenario, name: str) -> GridFn:
    f = scn.function(name)
    if not isinstance(f, GridFn):
        raise ParseError(f"function {name!r} must be a grid function")
    return f


def _max_affine(scn: Scenario, name: str) -> MaxAffineFn:
    f = scn.function(name)
    if not isinstance(f, MaxAffineFn):
        raise ParseError(f"function {name!r} must be max-affine")
    return f


def _probe_rows(seed: int, count: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, dim))
    rows /= np.maximum(1e-12, np.linalg.norm(rows, axis=1, keepdims=True))
    return rows


def _cmd_basis(scn: Scenario, args) -> tuple[dict, int]:
    gens = [scn.vector(n) for n in args.generators]
    basis = linalg.rank_partition(gens, rank_tol=args.tol or RANK_TOL)
    doc = _result_doc(scn)
    doc["integers"]["labels"] = basis.labels.tolist()
    for i, v in enumerate(basis.vectors):
        doc["vectors"][f"X_{i + 1}"] = v.values.tolist()
    doc["certificates"] = {
        "generator_count": len(gens),
        "top_rank": basis.top_rank,
        "picks": basis.picks.tolist(),
    }
    return doc, 0


def _cmd_orthonormalize(scn: Scenario, args) -> tuple[dict, int]:
    gens = [scn.vector(n) for n in args.generators]
    frame = linalg.orthonormalize(
        linalg.rank_partition(gens, rank_tol=args.tol or RANK_TOL)
    )
    doc = _result_doc(scn)
    doc["integers"]["labels"] = frame.labels.tolist()
    for i in range(frame.dim):
        doc["vectors"][f"U_{i + 1}"] = frame.vector(i).values.tolist()
    doc["scalars"]["gram_defect"] = frame.gram_defect().values.tolist()
    doc["certificates"] = {
        "max_gram_defect": float(frame.gram_defect().values.max())
    }
    return doc, 0


def _cmd_decompose(scn: Scenario, args) -> tuple[dict, int]:
    x = scn.vector(args.vector)
    gens = [scn.vector(n) for n in args.generators]
    frame = linalg.orthonormalize(
        linalg.rank_partition(gens, rank_tol=args.tol or RANK_TOL)
    )
    y, z = linalg.decompose(x, frame)
    overlap = np.zeros(scn.space.natoms)
    for g in gens:
        overlap = np.maximum(overlap, np.abs(z.inner(g).values))
    doc = _result_doc(scn)
    doc["vectors"]["Y"] = y.values.tolist()
    doc["vectors"]["Z"] = z.values.tolist()
    doc["scalars"]["orthogonality"] = overlap.tolist()
    doc["scalars"]["norm_Y"] = y.norm().values.tolist()
    doc["scalars"]["norm_Z"] = z.norm().values.tolist()
    doc["certificates"] = {"max_orthogonality_defect": float(overlap.max())}
    return doc, 0


def _cmd_separate(scn: Scenario, args) -> tuple[dict, int]:
    res = sets.separate(
        scn.convex_set(args.first),
        scn.convex_set(args.second),
        kind=args.kind,
        zero_tol=args.tol or QP_TOL,
    )
    doc = _result_doc(scn)
    doc["vectors"]["Z"] = res.normal.values.tolist()
    doc["scalars"]["gap"] = res.gap.values.tolist()
    doc["sets"]["failure_set"] = _set_out(res.failure_set)
    if res.distance is not None:
        doc["scalars"]["distance"] = res.distance.values.tolist()
    if res.strict_excess is not None:
        doc["scalars"]["strict_excess"] = res.strict_excess.values.tolist()
    failures = int(res.failure_set.mask.sum())
    doc["certificates"] = {"kind": args.kind, "failure_atom_count": failures}
    code = 2 if (args.strict and failures) else 0
    return doc, code


def _cmd_hahn_banach(scn: Scenario, args) -> tuple[dict, int]:
    p = _max_affine(scn, args.bound)
    e = scn.convex_set(args.subspace)
    values = [scn.scalar(n) for n in args.values]
    h = sets.hahn_banach_extend(p, e, values, tol=args.tol or QP_TOL)
    probes = _probe_rows(args.seed, args.probes, scn.d)
    excess = np.full(scn.space.natoms, -np.inf)
    for row in probes:
        probe = CondVector.constant(scn.space, row)
        margin = h.inner(probe).values - p.eval(probe).values
        excess = np.maximum(excess, margin)
    doc = _result_doc(scn)
    doc["vectors"]["h"] = h.values.tolist()
    doc["scalars"]["probe_excess"] = excess.tolist()
    doc["certificates"] = {
        "max_probe_excess": float(excess.max()),
        "probe_count": args.probes,
    }
    return doc, 0


def _cmd_conjugate(scn: Scenario, args) -> tuple[dict, int]:
    f = scn.function(args.function)
    dual = _dual_grid(args)
    if dual is None:
        raise ParseError("conjugate needs --mins, --maxs and --steps")
    g = conjugate(f, dual)
    doc = _result_doc(scn)
    doc["functions"] = {"result": _grid_record(g)}
    doc["certificates"] = {"dual_shape": list(dual.shape)}
    return doc, 0


def _cmd_fenchel_moreau(scn: Scenario, args) -> tuple[dict, int]:
    f = _grid_fn(scn, args.function)
    rep = fenchel_moreau_check(f, _dual_grid(args))
    doc = _result_doc(scn)
    doc["functions"] = {
        "biconjugate": _grid_record(rep.biconjugate),
        "conjugate": _grid_record(rep.conjugate),
        "envelope": _grid_record(rep.envelope),
    }
    doc["scalars"]["max_deviation"] = rep.max_deviation.values.tolist()
    doc["sets"]["minorant_ok"] = _set_out(rep.minorant_ok)
    doc["sets"]["idempotent_ok"] = _set_out(rep.idempotent_ok)
    all_ok = rep.minorant_ok.is_full and rep.idempotent_ok.is_full
    doc["certificates"] = {
        "max_deviation_overall": float(rep.max_deviation.values.max()),
        "grid_step": f.grid.steps[0],
        "all_ok": all_ok,
    }
    return doc, 2 if (args.strict and not all_ok) else 0


def _cmd_subgrad(scn: Scenario, args) -> tuple[dict, int]:
    f = _max_affine(scn, args.function)
    x0 = scn.vector(args.point)
    if args.bound is not None:
        y = bounded_subgradient(f, x0, scn.scalar(args.bound), seed=args.seed)
        active = f.active_at(x0)
    else:
        sd = subdifferential(f, x0)
        y, active = sd.representative, sd.active
    probes = _probe_rows(args.seed, args.probes, scn.d)
    f0 = f.eval(x0).values
    violation = np.full(scn.space.natoms, -np.inf)
    for row in probes:
        h = CondVector.constant(scn.space, row)
        fx = f.eval(x0 + h).values
        # subgradient inequality: f(x0+h) >= f(x0) + <h, y>
        violation = np.maximum(violation, f0 + h.inner(y).values - fx)
    doc = _result_doc(scn)
    doc["vectors"]["Y"] = y.values.tolist()
    doc["integers"]["active_count"] = active.sum(axis=1).tolist()
    doc["scalars"]["rep_norm"] = y.norm().values.tolist()
    doc["scalars"]["probe_violation"] = violation.tolist()
    doc["certificates"] = {
        "max_probe_violation": float(violation.max()),
        "probe_count": args.probes,
    }
    return doc, 0


def _cmd_argmin(scn: Scenario, args) -> tuple[dict, int]:
    f = _max_affine(scn, args.function)
    r = argmin(f, scn.convex_set(args.set), tol=args.tol or QP_TOL)
    doc = _result_doc(scn)
    doc["vectors"]["minimizer"] = r.minimizer.values.tolist()
    doc["scalars"]["value"] = r.value.values.tolist()
    doc["sets"]["unique_set"] = _set_out(r.unique_set)
    feasible = bool(r.value.finite_set.is_full)
    doc["certificates"] = {"feasible_everywhere": feasible}
    return doc, 2 if (args.strict and not feasible) else 0


def _cmd_infconv(scn: Scenario, args) -> tuple[dict, int]:
    fs = [_grid_fn(scn, n) for n in args.functions]
    r = inf_convolution(fs)
    doc = _result_doc(scn)
    doc["functions"] = {"result": _grid_record(r.value)}
    for j, idx in enumerate(r.split_indices):
        doc["integers"][f"split_{j + 1}"] = idx.tolist()
    doc["scalars"]["input_convexity_defect"] = r.input_convexity_defect.values.tolist()
    doc["scalars"]["output_convexity_defect"] = r.output_convexity_defect.values.tolist()
    doc["certificates"] = {
        "max_output_convexity_defect": float(r.output_convexity_defect.values.max())
    }
    if args.check:
        checks = infconv_checks(fs, r)
        doc["scalars"]["additivity_defect"] = checks.additivity_defect.values.tolist()
        doc["sets"]["subdiff_ok"] = _set_out(checks.subdiff_ok)
        doc["sets"]["interior_ok"] = _set_out(checks.interior_ok)
        doc["certificates"]["max_additivity_defect"] = float(
            checks.additivity_defect.values.max()
        )
    return doc, 0


def _cmd_bw(scn: Scenario, args) -> tuple[dict, int]:
    seq = scn.sequence(args.sequence)
    r = bw_extract(seq, args.depth, args.slack)
    doc = _result_doc(scn)
    for j, idx in enumerate(r.indices):
        doc["integers"][f"N_{j + 1}"] = idx.values.tolist()
    doc["vectors"]["limit"] = r.limit.values.tolist()
    doc["vectors"]["stage_liminfs"] = r.stage_liminfs.values.tolist()
    doc["certificates"] = {"depth": args.depth, "slack": float(args.slack)}
    return doc, 0


def _cmd_cauchy(scn: Scenario, args) -> tuple[dict, int]:
    seq = scn.sequence(args.sequence)
    schedule = [scn.scalar(n) for n in args.eps]
    r = cauchy_limit(seq, schedule)
    doc = _result_doc(scn)
    doc["sets"]["cauchy_on"] = _set_out(r.cauchy_on)
    doc["vectors"]["limit"] = r.limit.values.tolist()
    for j, (cut, dia) in enumerate(zip(r.cuts, r.tail_diameters)):
        doc["integers"][f"cut_{j + 1}"] = cut.tolist()
        doc["scalars"][f"tail_diameter_{j + 1}"] = dia.tolist()
    passing = int(r.cauchy_on.mask.sum())
    doc["certificates"] = {"passing_atom_count": passing}
    code = 2 if (args.strict and not r.cauchy_on.is_full) else 0
    return doc, code


def _cmd_bounded_test(scn: Scenario, args) -> tuple[dict, int]:
    bounded_on, witness = sets.bounded_test(
        scn.convex_set(args.set), rank_tol=args.tol or RANK_TOL
    )
    doc = _result_doc(scn)
    doc["sets"]["bounded_on"] = _set_out(bounded_on)
    doc["vectors"]["witness"] = witness.values.tolist()
    unbounded = int((~bounded_on.mask).sum())
    doc["certificates"] = {"unbounded_atom_count": unbounded}
    return doc, 2 if (args.strict and unbounded) else 0


def _cmd_ri_test(scn: Scenario, args) -> tuple[dict, int]:
    ms = sets.ri_membership(
        scn.vector(args.point),
        scn.convex_set(args.set),
        mode=args.mode,
        strict_tol=args.tol or STRICT_TOL,
    )
    doc = _result_doc(scn)
    doc["sets"]["member_set"] = _set_out(ms)
    doc["certificates"] = {"mode": args.mode, "member_atom_count": int(ms.mask.sum())}
    return doc, 2 if (args.strict and not ms.is_full) else 0


_HANDLERS = {
    "basis": _cmd_basis,
    "orthonormalize": _cmd_orthonormalize,
    "decompose": _cmd_decompose,
    "separate": _cmd_separate,
    "hahn-banach": _cmd_hahn_banach,
    "conjugate": _cmd_conjugate,
    "fenchel-moreau": _cmd_fenchel_moreau,
    "subgrad": _cmd_subgrad,
    "argmin": _cmd_argmin,
    "infconv": _cmd_infconv,
    "bw": _cmd_bw,
    "cauchy": _cmd_cauchy,
    "bounded-test": _cmd_bounded_test,
    "ri-test": _cmd_ri_test,
}


def _checked(convert, ok, what: str):
    """An argparse ``type=`` that converts a flag value and demands ``ok``."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


_TOL = _checked(float, lambda x: np.isfinite(x) and x > 0, "a finite number > 0")
_SEED = _checked(int, lambda n: n >= 0, "an integer >= 0")
_COUNT = _checked(int, lambda n: n >= 1, "an integer >= 1")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="path to an interchange document")
    common.add_argument("--tol", type=_TOL, default=None, help="override the operation tolerance")
    common.add_argument("--seed", type=_SEED, default=7, help="seed for probe-based certificates")
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when a failure set is nonempty or a demanded check fails",
    )
    parser = argparse.ArgumentParser(
        prog="stratalg",
        description="Scenario runner for conditional analysis on finite atom spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add("basis", help="stratified rank partition of generators")
    p.add_argument("--generators", nargs="+", required=True)
    p = add("orthonormalize", help="orthonormal frame adapted to generators")
    p.add_argument("--generators", nargs="+", required=True)
    p = add("decompose", help="project a vector onto the generated submodule")
    p.add_argument("--vector", required=True)
    p.add_argument("--generators", nargs="+", required=True)
    p = add("separate", help="separate two convex sets")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--kind", choices=["strong", "weak", "proper"], default="strong")
    p = add("hahn-banach", help="dominated linear extension from a submodule")
    p.add_argument("--bound", required=True, help="sublinear max-affine function name")
    p.add_argument("--subspace", required=True, help="linear convex-set name")
    p.add_argument("--values", nargs="+", required=True, help="scalar names, one per frame vector")
    p.add_argument("--probes", type=_COUNT, default=200)
    p = add("conjugate", help="convex conjugate on a dual grid")
    p.add_argument("--function", required=True)
    p.add_argument("--mins", help="comma-separated dual grid minima")
    p.add_argument("--maxs", help="comma-separated dual grid maxima")
    p.add_argument("--steps", help="comma-separated dual grid steps")
    p = add("fenchel-moreau", help="biconjugation audit of a grid function")
    p.add_argument("--function", required=True)
    p.add_argument("--mins")
    p.add_argument("--maxs")
    p.add_argument("--steps")
    p = add("subgrad", help="subdifferential representative at a point")
    p.add_argument("--function", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--bound", help="growth-constant scalar name (bounded variant)")
    p.add_argument("--probes", type=_COUNT, default=200)
    p = add("argmin", help="minimize a max-affine function over a convex set")
    p.add_argument("--function", required=True)
    p.add_argument("--set", required=True)
    p = add("infconv", help="inf-convolution of grid functions")
    p.add_argument("--functions", nargs="+", required=True)
    p.add_argument("--check", action="store_true", help="include conjugate additivity audits")
    p = add("bw", help="measurable subsequence extraction")
    p.add_argument("--sequence", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--slack", type=float, required=True)
    p = add("cauchy", help="finite-horizon Cauchy test")
    p.add_argument("--sequence", required=True)
    p.add_argument("--eps", nargs="+", required=True, help="scalar names forming the schedule")
    p = add("bounded-test", help="recession-based boundedness test")
    p.add_argument("--set", required=True)
    p = add("ri-test", help="(relative) interior membership test")
    p.add_argument("--point", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--mode", choices=["interior", "relative"], default="interior")
    return parser


def _error_doc(exc: Exception) -> dict:
    doc = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, AtomSetError):
        doc["error"]["atoms"] = np.flatnonzero(exc.atoms).tolist()
    return doc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        scn = build_scenario(load_document(args.scenario))
        doc, code = _HANDLERS[args.command](scn, args)
    except AtomSetError as exc:
        sys.stdout.write(emit_document(_error_doc(exc)))
        return 2
    except (ParseError, StratalgError) as exc:
        sys.stdout.write(emit_document(_error_doc(exc)))
        return 1
    sys.stdout.write(emit_document(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
