"""Traced in-process run of one workload's job list.

Started by ``run.py --trace 1`` as a child process with ``src`` on the
path.  It imports ``stratalg.cli`` once and calls ``cli.main`` for each
job with stdout captured.  While tracing, every public function named in
``LAYERS`` is replaced, wherever a stratalg module holds a reference to
it, by a wrapper that records a span: layer, name, job, start, end,
parent span and the time its child spans cover.  A name missing from its
module stops the run, so a refactor cannot turn a layer into a silent
zero.  Spans stay in memory and are written as JSON when the run ends.

The schedule is an untraced and a traced pass in turn, repeated until
the time budget is spent.  The first untraced pass's outputs are kept
for the correctness check, and every later pass must reproduce their
bytes.

    python3 perfbench/tracer.py SPEC.json
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import statistics
import sys
import time

# layer -> public functions timed as that layer; ``core`` has no useful
# boundary, so its work counts in the self time of the calling layer
LAYERS = {
    "cli": ("main",),
    "io": ("load_document", "build_scenario", "emit_document"),
    "linalg": ("rank_partition", "orthonormalize", "decompose"),
    "sequences": ("bw_extract", "cauchy_limit"),
    "sets": ("separate", "ri_membership", "membership", "bounded_test", "hahn_banach_extend"),
    "functions": ("conjugate", "fenchel_moreau_check", "inf_convolution", "infconv_checks",
                  "argmin", "subdifferential"),
    "_solvers": ("solve_lp", "cone_least_squares"),
}


class Recorder:
    """Spans of the traced passes, and the patches that produce them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.job = None
        self.pass_index = None
        self.patches: list[tuple] = []  # (module, attribute, original, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        rec = self

        def traced(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else None
            span = {"id": len(rec.spans), "parent": parent["id"] if parent else None,
                    "pass": rec.pass_index, "job": rec.job, "layer": layer, "name": name,
                    "child_s": 0.0}
            rec.spans.append(span)
            rec.stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                span["start"], span["end"] = t0, t1
                if parent is not None:
                    parent["child_s"] += t1 - t0
            if name == "solve_lp":
                span["status"] = int(result.status)
            elif name == "cone_least_squares":
                span["kkt_ok"] = bool(result.kkt_ok)
            elif name == "load_document":
                span["bytes"] = os.path.getsize(args[0])
            elif name == "emit_document":
                span["bytes"] = len(result.encode("utf-8"))
            return result

        return traced

    def prepare(self) -> None:
        """Find every binding of every traced name; fail if one is gone."""
        import stratalg.cli  # noqa: F401  (loads every module of the package)

        mods = [m for n, m in sorted(sys.modules.items())
                if n == "stratalg" or n.startswith("stratalg.")]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"stratalg.{layer}")
            for name in names:
                orig = getattr(home, name, None)
                if not callable(orig):
                    raise SystemExit(f"traced name stratalg.{layer}.{name} no longer exists")
                wrapper = self._wrap(layer, name, orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self.patches.append((m, attr, orig, wrapper))

    def install(self) -> None:
        for m, attr, _, wrapper in self.patches:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig, _ in self.patches:
            setattr(m, attr, orig)


def run_pass(jobs: list, rec: Recorder) -> tuple:
    import stratalg.cli as cli

    outputs = []
    t0 = time.perf_counter()
    for i, argv in enumerate(jobs):
        rec.job = i
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        outputs.append((code, buf.getvalue()))
    return time.perf_counter() - t0, outputs


def pass_metrics(spans: list, natoms: int) -> dict:
    """Per-layer totals over the spans of one traced pass."""
    def total(pred, key=None):
        return sum((s[key] if key else s["end"] - s["start"] - s["child_s"])
                   for s in spans if pred(s))

    lp = [s for s in spans if s["name"] == "solve_lp"]
    qp = [s for s in spans if s["name"] == "cone_least_squares"]
    m = {
        "cli.handler_self_s": total(lambda s: s["layer"] == "cli"),
        "io.parse_s": total(lambda s: s["name"] in ("load_document", "build_scenario")),
        "io.input_bytes": total(lambda s: s["name"] == "load_document", "bytes"),
        "io.emit_s": total(lambda s: s["name"] == "emit_document"),
        "io.output_bytes": total(lambda s: s["name"] == "emit_document", "bytes"),
        "linalg.self_s": total(lambda s: s["layer"] == "linalg"),
        "linalg.calls": sum(1 for s in spans if s["layer"] == "linalg"),
        "sequences.self_s": total(lambda s: s["layer"] == "sequences"),
        "sets.self_s": total(lambda s: s["layer"] == "sets"),
        "functions.self_s": total(lambda s: s["layer"] == "functions"),
        "solvers.lp_calls": len(lp),
        "solvers.lp_s": sum(s["end"] - s["start"] for s in lp),
        "solvers.lp_per_atom": len(lp) / natoms,
        "solvers.lp_not_optimal": sum(1 for s in lp if s.get("status") != 0),
        "solvers.qp_calls": len(qp),
        "solvers.qp_s": sum(s["end"] - s["start"] for s in qp),
        "solvers.qp_kkt_fail": sum(1 for s in qp if s.get("kkt_ok") is False),
    }
    return m


def job_breakdown(spans: list, labels: list) -> list:
    """Per-job self time by layer and solver counts, for the report."""
    out = []
    for i, label in enumerate(labels):
        mine = [s for s in spans if s["job"] == i]
        row = {"job": label, "lp_calls": sum(1 for s in mine if s["name"] == "solve_lp"),
               "qp_calls": sum(1 for s in mine if s["name"] == "cone_least_squares"),
               "output_bytes": sum(s.get("bytes", 0) for s in mine if s["name"] == "emit_document"),
               "self_s": {}}
        for s in mine:
            row["self_s"][s["layer"]] = row["self_s"].get(s["layer"], 0.0) + (
                s["end"] - s["start"] - s["child_s"])
        out.append(row)
    return out


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    jobs, labels = spec["jobs"], spec["labels"]
    natoms = spec["natoms"] * len(jobs)
    rec = Recorder()
    rec.prepare()

    walls = {"untraced": [], "traced": []}
    per_pass, breakdown, first, mismatches, runs = [], None, None, 0, 0
    start = time.perf_counter()
    while True:
        for mode in ("untraced", "traced"):
            rec.pass_index = len(walls[mode]) if mode == "traced" else None
            if mode == "traced":
                rec.install()
            try:
                wall, outputs = run_pass(jobs, rec)
            finally:
                rec.uninstall()
            walls[mode].append(wall)
            runs += 1
            if first is None:
                first = outputs
                for i, (_, text) in enumerate(first):
                    path = os.path.join(spec["outdir"], f"first-{i}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
            else:
                mismatches += sum(1 for got, want in zip(outputs, first) if got != want)
            if mode == "traced":
                spans = [s for s in rec.spans if s["pass"] == rec.pass_index]
                per_pass.append(pass_metrics(spans, natoms))
                if breakdown is None:
                    breakdown = job_breakdown(spans, labels)
        if spec["smoke"] or time.perf_counter() - start >= spec["seconds"]:
            break

    with open(spec["trace_path"], "w", encoding="utf-8") as fh:
        json.dump({"layers": LAYERS, "spans": rec.spans}, fh)
    # median_low keeps a value as measured, so counts stay whole numbers
    metrics = {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(walls["traced"])
                                   - statistics.median(walls["untraced"]))
    result = {"codes": [code for code, _ in first], "passes": runs, "mismatches": mismatches, "walls": walls,
              "metrics": metrics, "jobs": breakdown}
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
