"""Command-line scenario runner.

One interchange document in, one result document out on stdout.  Every
subcommand resolves named objects from the scenario, invokes the
corresponding library operation, and returns its result objects with a
``certificates`` block of the residuals and failure sets that justify
the answer; ``io.emit_document`` writes them in the layout the scenario
readers read.  Exit codes: 0 success, 1 malformed input, 2 precondition
failure (including nonempty failure sets under ``--strict``).
``python -m stratalg.cli`` and the ``stratalg`` script enter through
``run``: it writes the document whole and ends the process without
teardown, and a reader that leaves early makes the exit nonzero.

A command computes each distinct atom once: it runs on the quotient of
the scenario by the blocks of atoms that agree in every entry its flag
values reach (``io.Scenario.quotient``), and the document places each
block's rows at every atom of the block.  Every op is local to its atom,
so this gives the rows of the run on all atoms bit for bit; certificates
count the document's atoms.  A run on the quotient that raises runs again
on all atoms, so an error document names the document's atoms.

A subcommand takes only the shared flags its handler reads: ``--tol``
overrides the operation's documented tolerance, ``--seed 7`` drives the
probe-based certificate audits.  ``--tol`` must be a finite number > 0
(for ``ri-test``, > ``EQ_TOL`` = 1e-12), ``--seed`` an integer >= 0 and
``--probes`` an integer in [1, 2**16]; any other value, or a flag the
subcommand does not take, is malformed (exit 1).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import linalg, sets
from .core import CondVector
from .errors import AtomSetError, StratalgError
from .functions import (
    Grid,
    GridFn,
    MaxAffineFn,
    _probe_directions,
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
from .tolerances import EQ_TOL, QP_TOL, RANK_TOL, STRICT_TOL

__all__ = ["main", "run"]


def _floats(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"expected comma-separated numbers, got {text!r}") from exc


def _dual_grid(args) -> Grid | None:
    given = [args.mins, args.maxs, args.steps]
    if all(v is None for v in given):
        return None
    if any(v is None for v in given):
        raise ParseError("--mins, --maxs and --steps must be given together")
    return Grid(_floats(args.mins), _floats(args.maxs), _floats(args.steps))


_KINDS = {GridFn: "a grid function", MaxAffineFn: "max-affine"}


def _function(scn: Scenario, name: str, kind: type):
    """The scenario's function ``name``, which must be of type ``kind``."""
    f = scn.function(name)
    if not isinstance(f, kind):
        raise ParseError(f"function {name!r} must be {_KINDS[kind]}")
    return f


def _frame(gens: list, tol) -> linalg.OrthonormalFrame:
    """The orthonormal frame adapted to ``gens``, at rank tolerance ``tol``."""
    rank_tol = tol or RANK_TOL
    return linalg.orthonormalize(linalg.rank_partition(gens, rank_tol=rank_tol), rank_tol=rank_tol)


def _result(scn: Scenario, certificates: dict, **sections) -> dict:
    """A result document: the scenario's header, the named result objects
    by section (``vectors``, ``sets``, ``scalars``, ``integers``,
    ``functions``) and the certificates; ``emit_document`` writes each."""
    return {"weights": scn.weights, "d": scn.d, "vectors": {}, "sets": {}, "scalars": {},
            "integers": {}, **sections, "certificates": certificates}


# A handler returns the result document and whether a check it reports
# failed; under --strict ``main`` turns a failed check into exit 2.


def _cmd_basis(scn: Scenario, args) -> tuple[dict, bool]:
    gens = [scn.vector(n) for n in args.generators]
    basis = linalg.rank_partition(gens, rank_tol=args.tol or RANK_TOL)
    vectors = {f"X_{i + 1}": v for i, v in enumerate(basis.vectors)}
    certificates = {"generator_count": len(gens), "top_rank": basis.top_rank,
                    "picks": scn.atom_columns(basis.picks)}
    return _result(scn, certificates, vectors=vectors, integers={"labels": basis.labels}), False


def _cmd_orthonormalize(scn: Scenario, args) -> tuple[dict, bool]:
    frame = _frame([scn.vector(n) for n in args.generators], args.tol)
    defect = frame.gram_defect()
    vectors = {f"U_{i + 1}": frame.vector(i) for i in range(frame.dim)}
    doc = _result(scn, {"max_gram_defect": float(defect.values.max())}, vectors=vectors,
                  integers={"labels": frame.labels}, scalars={"gram_defect": defect})
    return doc, False


def _cmd_decompose(scn: Scenario, args) -> tuple[dict, bool]:
    x = scn.vector(args.vector)
    gens = [scn.vector(n) for n in args.generators]
    y, z = linalg.decompose(x, _frame(gens, args.tol))
    overlap = np.zeros(scn.space.natoms)
    for g in gens:
        overlap = np.maximum(overlap, np.abs(z.inner(g).values))
    scalars = {"orthogonality": overlap, "norm_Y": y.norm(), "norm_Z": z.norm()}
    doc = _result(scn, {"max_orthogonality_defect": float(overlap.max())},
                  vectors={"Y": y, "Z": z}, scalars=scalars)
    return doc, False


def _cmd_separate(scn: Scenario, args) -> tuple[dict, bool]:
    if args.kind == "proper" and args.tol is not None:
        raise ParseError("--tol applies to strong and weak separation only")
    res = sets.separate(
        scn.convex_set(args.first),
        scn.convex_set(args.second),
        kind=args.kind,
        zero_tol=args.tol or QP_TOL,
    )
    scalars = {"gap": res.gap, "distance": res.distance, "strict_excess": res.strict_excess}
    failures = scn.atom_count(res.failure_set)
    doc = _result(scn, {"kind": args.kind, "failure_atom_count": failures},
                  vectors={"Z": res.normal}, sets={"failure_set": res.failure_set},
                  scalars={name: v for name, v in scalars.items() if v is not None})
    return doc, failures > 0


def _cmd_hahn_banach(scn: Scenario, args) -> tuple[dict, bool]:
    p = _function(scn, args.bound, MaxAffineFn)
    e = scn.convex_set(args.subspace)
    values = [scn.scalar(n) for n in args.values]
    h = sets.hahn_banach_extend(p, e, values, tol=args.tol or QP_TOL)
    probes = _probe_directions(args.seed, args.probes, scn.d)
    excess = np.full(scn.space.natoms, -np.inf)
    for row in probes:
        probe = CondVector.constant(scn.space, row)
        margin = h.inner(probe).values - p.eval(probe).values
        excess = np.maximum(excess, margin)
    certificates = {"max_probe_excess": float(excess.max()), "probe_count": args.probes}
    return _result(scn, certificates, vectors={"h": h}, scalars={"probe_excess": excess}), False


def _cmd_conjugate(scn: Scenario, args) -> tuple[dict, bool]:
    f = scn.function(args.function)
    dual = _dual_grid(args)
    if dual is None:
        raise ParseError("conjugate needs --mins, --maxs and --steps")
    g = conjugate(f, dual)
    return _result(scn, {"dual_shape": dual.shape}, functions={"result": g}), False


def _cmd_fenchel_moreau(scn: Scenario, args) -> tuple[dict, bool]:
    f = _function(scn, args.function, GridFn)
    rep = fenchel_moreau_check(f, _dual_grid(args))
    all_ok = rep.minorant_ok.is_full and rep.idempotent_ok.is_full
    certificates = {
        "max_deviation_overall": float(rep.max_deviation.values.max()),
        "grid_step": f.grid.steps[0],
        "all_ok": all_ok,
    }
    functions = {
        "biconjugate": rep.biconjugate,
        "conjugate": rep.conjugate,
        "envelope": rep.envelope,
    }
    doc = _result(scn, certificates, functions=functions,
                  scalars={"max_deviation": rep.max_deviation},
                  sets={"minorant_ok": rep.minorant_ok, "idempotent_ok": rep.idempotent_ok})
    return doc, not all_ok


def _cmd_subgrad(scn: Scenario, args) -> tuple[dict, bool]:
    f = _function(scn, args.function, MaxAffineFn)
    x0 = scn.vector(args.point)
    if args.bound is not None:
        y = bounded_subgradient(f, x0, scn.scalar(args.bound), seed=args.seed)
        active = f.active_at(x0)
    else:
        sd = subdifferential(f, x0)
        y, active = sd.representative, sd.active
    probes = _probe_directions(args.seed, args.probes, scn.d)
    f0 = f.eval(x0).values
    violation = np.full(scn.space.natoms, -np.inf)
    for row in probes:
        h = CondVector.constant(scn.space, row)
        fx = f.eval(x0 + h).values
        # subgradient inequality: f(x0+h) >= f(x0) + <h, y>
        violation = np.maximum(violation, f0 + h.inner(y).values - fx)
    certificates = {"max_probe_violation": float(violation.max()), "probe_count": args.probes}
    doc = _result(scn, certificates, vectors={"Y": y},
                  integers={"active_count": active.sum(axis=1)},
                  scalars={"rep_norm": y.norm(), "probe_violation": violation})
    return doc, False


def _cmd_argmin(scn: Scenario, args) -> tuple[dict, bool]:
    f = _function(scn, args.function, MaxAffineFn)
    r = argmin(f, scn.convex_set(args.set), tol=args.tol or QP_TOL)
    feasible = bool(r.value.finite_set.is_full)
    doc = _result(scn, {"feasible_everywhere": feasible}, vectors={"minimizer": r.minimizer},
                  scalars={"value": r.value}, sets={"unique_set": r.unique_set})
    return doc, not feasible


def _cmd_infconv(scn: Scenario, args) -> tuple[dict, bool]:
    fs = [_function(scn, n, GridFn) for n in args.functions]
    r = inf_convolution(fs)
    certificates = {"max_output_convexity_defect": float(r.output_convexity_defect.values.max())}
    scalars = {"input_convexity_defect": r.input_convexity_defect,
               "output_convexity_defect": r.output_convexity_defect}
    doc = _result(scn, certificates, functions={"result": r.value}, scalars=scalars,
                  integers={f"split_{j + 1}": idx for j, idx in enumerate(r.split_indices)})
    if args.check:
        checks = infconv_checks(fs, r)
        doc["scalars"]["additivity_defect"] = checks.additivity_defect
        doc["sets"]["subdiff_ok"] = checks.subdiff_ok
        doc["sets"]["interior_ok"] = checks.interior_ok
        doc["certificates"]["max_additivity_defect"] = float(
            checks.additivity_defect.values.max()
        )
    return doc, False


def _cmd_bw(scn: Scenario, args) -> tuple[dict, bool]:
    seq = scn.sequence(args.sequence)
    r = bw_extract(seq, args.depth, args.slack)
    doc = _result(scn, {"depth": args.depth, "slack": float(args.slack)},
                  integers={f"N_{j + 1}": idx for j, idx in enumerate(r.indices)},
                  vectors={"limit": r.limit, "stage_liminfs": r.stage_liminfs})
    return doc, False


def _cmd_cauchy(scn: Scenario, args) -> tuple[dict, bool]:
    seq = scn.sequence(args.sequence)
    schedule = [scn.scalar(n) for n in args.eps]
    r = cauchy_limit(seq, schedule)
    doc = _result(scn, {"passing_atom_count": scn.atom_count(r.cauchy_on)},
                  sets={"cauchy_on": r.cauchy_on}, vectors={"limit": r.limit},
                  integers={f"cut_{j + 1}": cut for j, cut in enumerate(r.cuts)},
                  scalars={f"tail_diameter_{j + 1}": dia
                           for j, dia in enumerate(r.tail_diameters)})
    return doc, not r.cauchy_on.is_full


def _cmd_bounded_test(scn: Scenario, args) -> tuple[dict, bool]:
    bounded_on, witness = sets.bounded_test(
        scn.convex_set(args.set), rank_tol=args.tol or RANK_TOL
    )
    unbounded = scn.atom_count(~bounded_on)
    doc = _result(scn, {"unbounded_atom_count": unbounded}, sets={"bounded_on": bounded_on},
                  vectors={"witness": witness})
    return doc, unbounded > 0


def _cmd_ri_test(scn: Scenario, args) -> tuple[dict, bool]:
    ms = sets.ri_membership(
        scn.vector(args.point),
        scn.convex_set(args.set),
        mode=args.mode,
        strict_tol=args.tol or STRICT_TOL,
    )
    certificates = {"mode": args.mode, "member_atom_count": scn.atom_count(ms)}
    return _result(scn, certificates, sets={"member_set": ms}), not ms.is_full


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
# ri_membership's floor: its margin LP matches the target to EQ_TOL
_RI_TOL = _checked(float, lambda x: np.isfinite(x) and x > EQ_TOL, f"a finite number > {EQ_TOL:g}")
_SLACK = _checked(float, lambda x: np.isfinite(x) and x >= 0, "a finite number >= 0")
_SEED = _checked(int, lambda n: n >= 0, "an integer >= 0")
_COUNT = _checked(int, lambda n: 1 <= n <= 2**16, "an integer in [1, 2**16]")


def _build_parser() -> argparse.ArgumentParser:
    # one parent parser per shared flag group
    scenario, tol, seed, strict, generators, probes, dual = (
        argparse.ArgumentParser(add_help=False) for _ in range(7)
    )
    scenario.add_argument("scenario", help="path to an interchange document")
    tol.add_argument("--tol", type=_TOL, default=None, help="override the operation tolerance")
    seed.add_argument("--seed", type=_SEED, default=7, help="seed for probe-based certificates")
    strict.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when a failure set is nonempty or a demanded check fails",
    )
    generators.add_argument("--generators", nargs="+", required=True)
    probes.add_argument("--probes", type=_COUNT, default=200)
    dual.add_argument("--mins", help="comma-separated dual grid minima")
    dual.add_argument("--maxs", help="comma-separated dual grid maxima")
    dual.add_argument("--steps", help="comma-separated dual grid steps")
    parser = argparse.ArgumentParser(
        prog="stratalg",
        description="Scenario runner for conditional analysis on finite atom spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *flags, **kwargs):
        p = sub.add_parser(name, parents=[scenario, *flags], **kwargs)
        p.set_defaults(handler=handler)
        return p

    add("basis", _cmd_basis, tol, generators, help="stratified rank partition of generators")
    add("orthonormalize", _cmd_orthonormalize, tol, generators,
        help="orthonormal frame adapted to generators")
    p = add("decompose", _cmd_decompose, tol, generators,
            help="project a vector onto the generated submodule")
    p.add_argument("--vector", required=True)
    p = add("separate", _cmd_separate, tol, strict, help="separate two convex sets")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--kind", choices=["strong", "weak", "proper"], default="strong")
    p = add("hahn-banach", _cmd_hahn_banach, tol, seed, probes,
            help="dominated linear extension from a submodule")
    p.add_argument("--bound", required=True, help="sublinear max-affine function name")
    p.add_argument("--subspace", required=True, help="linear convex-set name")
    p.add_argument("--values", nargs="+", required=True, help="scalar names, one per frame vector")
    p = add("conjugate", _cmd_conjugate, dual, help="convex conjugate on a dual grid")
    p.add_argument("--function", required=True)
    p = add("fenchel-moreau", _cmd_fenchel_moreau, strict, dual,
            help="biconjugation audit of a grid function")
    p.add_argument("--function", required=True)
    p = add("subgrad", _cmd_subgrad, seed, probes,
            help="subdifferential representative at a point")
    p.add_argument("--function", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--bound", help="growth-constant scalar name (bounded variant)")
    p = add("argmin", _cmd_argmin, tol, strict,
            help="minimize a max-affine function over a convex set")
    p.add_argument("--function", required=True)
    p.add_argument("--set", required=True)
    p = add("infconv", _cmd_infconv, help="inf-convolution of grid functions")
    p.add_argument("--functions", nargs="+", required=True)
    p.add_argument("--check", action="store_true", help="include conjugate additivity audits")
    p = add("bw", _cmd_bw, help="measurable subsequence extraction")
    p.add_argument("--sequence", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--slack", type=_SLACK, required=True)
    p = add("cauchy", _cmd_cauchy, strict, help="finite-horizon Cauchy test")
    p.add_argument("--sequence", required=True)
    p.add_argument("--eps", nargs="+", required=True, help="scalar names forming the schedule")
    p = add("bounded-test", _cmd_bounded_test, tol, strict,
            help="recession-based boundedness test")
    p.add_argument("--set", required=True)
    p = add("ri-test", _cmd_ri_test, strict, help="(relative) interior membership test")
    p.add_argument("--tol", type=_RI_TOL, default=None, help="override the operation tolerance")
    p.add_argument("--point", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--mode", choices=["interior", "relative"], default="interior")
    return parser


def _error_doc(exc: Exception) -> dict:
    doc = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, AtomSetError):
        doc["error"]["atoms"] = np.flatnonzero(exc.atoms)
    return doc


def _execute(argv) -> tuple[str, int]:
    """The document text and the exit code of one command line."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return "", 0 if exc.code in (0, None) else 1
    try:
        scn = build_scenario(load_document(args.scenario))
        out = _on_blocks(scn, args)
        if out is None:
            doc, failed = args.handler(scn, args)
            out = emit_document(doc), failed
    except AtomSetError as exc:
        return emit_document(_error_doc(exc)), 2
    except (ParseError, StratalgError) as exc:
        return emit_document(_error_doc(exc)), 1
    text, failed = out
    return text, 2 if failed and getattr(args, "strict", False) else 0


def _on_blocks(scn: Scenario, args) -> tuple[str, bool] | None:
    """The command's document and failed check, computed on one atom per
    block of atoms that agree in every entry a flag value reaches; None
    where no two atoms agree or the run raises a ``ParseError`` or a
    ``StratalgError``, and the caller runs on all atoms.  Any other
    exception is a fault of this path and propagates."""
    # every flag value that is a string: a superset of the names it reads
    names = [n for key, value in vars(args).items() if key != "scenario"
             for n in (value if isinstance(value, list) else [value])]
    try:
        quo = scn.quotient(names)
        if quo is None:
            return None
        doc, failed = args.handler(quo, args)
        return emit_document(doc, quo.atoms), failed
    except (ParseError, StratalgError):
        # the error raises again on all atoms, where its document names
        # the document's atoms in that run's words
        return None


def main(argv=None) -> int:
    text, code = _execute(argv)
    sys.stdout.write(text)
    return code


def run() -> None:
    """One command as a process: the document goes out whole, then the
    process ends without teardown.

    A reader that leaves early fails the ``os.write`` that follows it with
    ``BrokenPipeError``, so the process exits nonzero."""
    text, code = _execute(None)
    sys.stdout.flush()  # argparse's help and usage
    data = memoryview(text.encode())  # documents are ASCII
    while data:
        data = data[os.write(sys.stdout.fileno(), data):]
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
