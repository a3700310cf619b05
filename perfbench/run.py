"""Benchmark of the stratalg command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is used from
``src`` without being installed.  The seed fixes the generated scenario
(see ``workloads.py``); the program only sees the scenario JSON.

``--trace 0`` times the workload's fixed job list end to end, one fresh
``python -m stratalg.cli`` process per job, jobs one after another,
passes repeated until ``--seconds`` have passed and the workload's
``min_passes`` are done:

    run_s        wall time of the job list: the sum over jobs of each
                 job's mean wall time across passes
    job_s.p50    median over jobs of each job's mean wall time across
                 passes (count printed above the result)
    setup_s      median wall time of a fresh interpreter that imports
                 stratalg.cli and builds the workload's scenario
    peak_rss_mb  largest max-RSS of any job process
    pass_ratio   jobs passing the correctness check / jobs attempted

``--trace 1`` measures the fresh-interpreter import of ``stratalg.cli``
and then runs the job list in one traced process (``tracer.py``) for the
per-layer metrics.  Every job's output is checked (``checks.py``); the
last line of stdout is the JSON result.  ``--smoke`` runs a tiny scenario
once, to test the harness itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import numpy as np

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPS = 3
IMPORT_REPS = 5
SAMPLE_ROWS = 24  # atom rows compared against the reference, per job
PROCESS_TIMEOUT_S = 150

WARMUP_CODE = "import stratalg.cli"
SETUP_CODE = ("import sys, stratalg.cli; from stratalg.io import build_scenario, load_document; "
              "build_scenario(load_document(sys.argv[1]))")
IMPORT_CODE = ("import json, sys, time; t = time.perf_counter(); import stratalg.cli; "
               "print(json.dumps([time.perf_counter() - t, len(sys.modules)]))")

END_TO_END_UNITS = {"run_s": "s", "job_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_ratio": "ratio"}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.import_modules": "count", "cli.handler_self_s": "s",
    "io.parse_s": "s", "io.input_bytes": "B", "io.emit_s": "s", "io.output_bytes": "B",
    "linalg.self_s": "s", "linalg.calls": "count", "sequences.self_s": "s",
    "sets.self_s": "s", "functions.self_s": "s",
    "solvers.lp_calls": "count", "solvers.lp_s": "s", "solvers.lp_per_atom": "1/atom",
    "solvers.lp_not_optimal": "count", "solvers.qp_calls": "count", "solvers.qp_s": "s",
    "solvers.qp_kkt_fail": "count", "trace.overhead_s": "s",
}


class Runner:
    """Starts the child processes of one benchmark run from the checkout root."""

    def __init__(self, root: str):
        self.root = root
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        # an installed package has its bytecode cached; let the warm-up write it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def timed(self, argv: list, stdout_path: str) -> tuple:
        """Run to completion; return exit code, wall seconds and max RSS in KiB."""
        with open(stdout_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=self.root)
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: never leave the job running
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def output(self, argv: list) -> str:
        proc = subprocess.run(argv, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"{argv[:3]} failed with exit {proc.returncode}:\n{proc.stderr}")
        return proc.stdout


class Scenario:
    """The seeded scenario of one run, written under the work directory."""

    def __init__(self, w: workloads.Workload, seed: int, K: int, workdir: str):
        self.workload = w
        pool = workloads.make_pool(w)
        self.ids, self.weights = workloads.pick_templates(w, seed, K)
        self.path = os.path.join(workdir, "scenario.json")
        self.bytes = workloads.write_scenario(
            self.path, workloads.scenario_document(w, pool, self.ids, self.weights))
        ref_path = os.path.join(HERE, "reference", f"{w.name}.json")
        with open(ref_path, encoding="utf-8") as fh:
            self.reference = json.load(fh)
        if self.reference["pool_size"] != len(pool):
            raise SystemExit(f"{ref_path} was made for another template pool")

    def argvs(self) -> list:
        return [[sys.executable, "-m", "stratalg.cli", *workloads.job_argv(j, self.path)]
                for j in self.workload.jobs]

    def check(self, job_index: int, code: int, text: str, sample: list) -> list:
        job = self.workload.jobs[job_index]
        ref = self.reference["jobs"][job.label]
        return checks.check_output(workloads.job_argv(job, self.path), code, text,
                                   self.ids, self.weights, ref, sample)

    def mix(self) -> dict:
        """Share of atoms by intended stratum and by observed outcome."""
        w, n = self.workload, len(self.ids)
        counts = {"strata": {}, "observed": {}}
        for tid in self.ids:
            combo = w.combos[tid // w.replicas]
            for key, val in _flat_items(combo):
                slot = counts["strata"].setdefault(key, {})
                slot[str(val)] = slot.get(str(val), 0) + 1
        for label, job in self.reference["jobs"].items():
            for path, rows in job["fields"].items():
                if path.startswith("sets/") or path == "integers/labels":
                    slot = counts["observed"].setdefault(f"{label} {path}", {})
                    for tid in self.ids:
                        val = str(rows[tid][0])
                        slot[val] = slot.get(val, 0) + 1
        return {kind: {key: {val: round(c / n, 4) for val, c in sorted(slot.items())}
                       for key, slot in table.items()}
                for kind, table in counts.items()}


def _flat_items(combo: dict, prefix: str = ""):
    for key, val in combo.items():
        if isinstance(val, dict):
            yield from _flat_items(val, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", val


def _sample(K: int, seed: int, *salt) -> list:
    rng = np.random.default_rng([seed, *salt])
    return sorted(rng.choice(K, min(K, SAMPLE_ROWS), replace=False).tolist())


def run_untraced(scn: Scenario, runner: Runner, args, workdir: str) -> dict:
    setup_argv = [sys.executable, "-c", SETUP_CODE, scn.path]
    sink = os.path.join(workdir, "setup.out")
    reps = 1 if args.smoke else SETUP_REPS
    # warm-up: byte-compiles the package and fills the file cache
    runner.timed([sys.executable, "-c", WARMUP_CODE], sink)
    setup = []
    for _ in range(reps):
        code, wall, _ = runner.timed(setup_argv, sink)
        if code != 0:
            raise SystemExit(f"scenario set-up failed with exit {code}")
        setup.append(wall)

    argvs = scn.argvs()
    K = len(scn.ids)
    walls = [[] for _ in argvs]  # per job, one wall time per pass
    rss, attempted, problems, passes = [], 0, [], 0
    start = time.perf_counter()
    while True:
        results = []
        for i, argv in enumerate(argvs):
            out = os.path.join(workdir, f"job-{i}.out")
            code, wall, maxrss = runner.timed(argv, out)
            results.append((i, out, code))
            walls[i].append(wall)
            rss.append(maxrss)
        passes += 1
        for i, out, code in results:  # checked outside the timed jobs
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(out)
            attempted += 1
            found = scn.check(i, code, text, _sample(K, args.seed, passes, i))
            if found:
                problems.append((scn.workload.jobs[i].label, found[:3]))
        if args.smoke or (passes >= scn.workload.min_passes
                          and time.perf_counter() - start >= args.seconds):
            break
    # each job's mean over the passes: on a shared machine the speed drifts
    # for seconds to minutes, and a mean over passes spread across the run
    # averages that drift where a median of a few samples follows it
    per_job = [statistics.fmean(w) for w in walls]
    metrics = {
        "run_s": sum(per_job),
        # not the median of all samples: with short and long jobs that one
        # falls between the slowest short and the fastest long sample
        "job_s.p50": statistics.median(per_job),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss) / 1024.0,
        "pass_ratio": (attempted - len(problems)) / attempted,
    }
    info = {"passes": passes, "jobs_timed": attempted, "setup_reps": len(setup), "walls": walls,
            "fail_ratio": len(problems) / attempted}
    return {"attempted": attempted, "failed": len(problems), "problems": problems,
            "metrics": metrics, "info": info}


def run_traced(scn: Scenario, runner: Runner, args, workdir: str) -> dict:
    imports = [json.loads(runner.output([sys.executable, "-c", IMPORT_CODE]))
               for _ in range(1 if args.smoke else IMPORT_REPS)]
    trace_dir = os.path.dirname(workdir)
    spec = {
        "jobs": [workloads.job_argv(j, scn.path) for j in scn.workload.jobs],
        "labels": [j.label for j in scn.workload.jobs],
        "natoms": len(scn.ids),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "outdir": workdir,
        "trace_path": os.path.join(trace_dir, f"trace-{scn.workload.name}-s{args.seed}.json"),
        "result_path": os.path.join(workdir, "traced.json"),
    }
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    runner.output([sys.executable, os.path.join(HERE, "tracer.py"), spec_path])
    with open(spec["result_path"], encoding="utf-8") as fh:
        traced = json.load(fh)

    problems = []
    K = len(scn.ids)
    for i, code in enumerate(traced["codes"]):
        with open(os.path.join(workdir, f"first-{i}.json"), encoding="utf-8") as fh:
            found = scn.check(i, code, fh.read(), _sample(K, args.seed, 0, i))
        if found:
            problems.append((scn.workload.jobs[i].label, found[:3]))
    njobs = len(scn.workload.jobs)
    attempted = njobs * traced["passes"]
    # a job fails in every pass when its first output fails the check, and
    # a later pass's job fails when it does not reproduce that output
    failed = len(problems) * traced["passes"] + traced["mismatches"]
    if traced["mismatches"]:
        problems.append(("rerun", [f"{traced['mismatches']} outputs differ from the first pass"]))
    metrics = {
        "cli.import_s": statistics.median(t for t, _ in imports),
        "cli.import_modules": statistics.median(n for _, n in imports),
        **traced["metrics"],
    }
    info = {"passes": traced["passes"], "walls": traced["walls"], "jobs": traced["jobs"],
            "trace_file": os.path.relpath(spec["trace_path"], runner.root),
            "fail_ratio": failed / attempted}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "info": info}


def environment(root: str) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy"),
            "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny scenario, one pass")
    args = ap.parse_args(argv)
    # a terminated run unwinds, so it stops its child processes and cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stratalg", "cli.py")):
        print("run from the root of a stratalg checkout (src/stratalg/cli.py not found)",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    K = w.smoke_K if args.smoke else w.K
    base = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(base, f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        env = environment(root)
        scn = Scenario(w, args.seed, K, workdir)
        runner = Runner(root)
        res = (run_traced if args.trace else run_untraced)(scn, runner, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = res["failed"]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    summary = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "K": K, "jobs": [j.label for j in w.jobs], "scenario_bytes": scn.bytes,
        "environment": env, "mix": scn.mix(), **res["info"], "problems": res["problems"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
    }
    with open(os.path.join(base, f"result-{w.name}-s{args.seed}-t{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"workload {w.name}: seed {args.seed}, K={K}, {len(w.jobs)} jobs per pass, "
          f"{res['info']['passes']} passes, {res['attempted']} jobs, "
          f"scenario {scn.bytes} bytes")
    print("environment " + json.dumps(env))
    print("mix " + json.dumps(summary["mix"]["observed"], sort_keys=True))
    print(f"fail_ratio {res['info']['fail_ratio']}")
    for label, found in res["problems"]:
        print(f"FAILED {label}: {found}")
    result = {"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
              "metrics": summary["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
