"""Print every benchmark metric, by name and unit, for each workload.

    python3 perfbench/report.py --seed N [WORKLOAD ...]

Runs ``run.py`` untraced and traced on every workload (or those named),
each for the ``run_seconds`` that ``BENCHMARK.json`` declares, then
prints the environment (git SHA, nproc, Python, numpy and scipy
versions, load average, seed), one row per metric, and the figures that
can be set beside the ROADMAP's ad-hoc baseline: the import time of
``stratalg.cli``, the LP count of ``argmin`` and the cost of
``fenchel-moreau``.  The whole report is also written as JSON to
``.perfbench_work/report-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]

import workloads  # noqa: E402


def run_one(name: str, trace: int, args) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name} trace={trace} failed:\n{proc.stderr}")
    path = os.path.join(".perfbench_work", f"result-{name}-s{args.seed}-t{trace}.json")
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    summary["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return summary


def baseline_lines(runs: dict) -> list:
    lines = []
    small = runs.get(("cli-small", 1))
    if small:
        v = small["metrics"]["cli.import_s"]["value"]
        lines.append(f"import stratalg.cli: {v:.3f} s, fresh interpreter (ROADMAP: 1.04 s)")
    for (name, trace), summary in sorted(runs.items()):
        if not trace:
            continue
        K = summary["K"]
        for job in summary["jobs"]:
            op = sum(s for layer, s in job["self_s"].items() if layer not in ("cli", "io"))
            if job["job"] == "argmin":
                lines.append(
                    f"argmin ({name}, K={K}): {job['lp_calls']} LPs, "
                    f"{job['lp_calls'] / K:.2f} per atom (ROADMAP: 1 + 2d = 9 per atom "
                    f"at d = 4 where the minimizer is unique), op {op:.2f} s")
            if job["job"] == "fenchel-moreau":
                emit = job["self_s"].get("io", 0.0)
                lines.append(
                    f"fenchel-moreau ({name}, K={K}): op {op:.2f} s, io {emit:.2f} s, "
                    f"{job['output_bytes'] / 1e6:.1f} MB out (ROADMAP: 11.8 s at K=200, n=401)")
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()

    runs = {(name, t): run_one(name, t, args) for name in args.workloads for t in (0, 1)}
    env = next(iter(runs.values()))["environment"]
    print(f"seed {args.seed}  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"{'workload':14s} {'metric':26s} {'value':>14s}  unit")
    for (name, trace), summary in runs.items():
        res = summary["result"]
        for metric, mv in res["metrics"].items():
            print(f"{name:14s} {metric:26s} {mv['value']:14.6g}  {mv['unit']}")
        print(f"{name:14s} {'correct':26s} {str(res['correct']):>14s}  "
              f"({res['failed']} of {res['attempted']} jobs failed, trace={trace})")
    lines = baseline_lines(runs)
    print("baseline figures:")
    for line in lines:
        print("  " + line)
    out = {"seed": args.seed, "environment": env, "baseline": lines,
           "runs": {f"{n}/trace{t}": s for (n, t), s in runs.items()}}
    with open(os.path.join(".perfbench_work", f"report-s{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)


if __name__ == "__main__":
    main()
