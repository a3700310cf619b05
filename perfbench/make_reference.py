"""Write the reference rows that ``checks.py`` compares job outputs against.

Runs every job of a workload once over a scenario holding each pool
template exactly once, and stores, per job and output field, one row
fingerprint per template.  The files in ``perfbench/reference/`` were
made this way from the commit that introduced the benchmark; re-making
them on later code would turn the correctness check into a self-check.

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def make_reference(w: workloads.Workload, workdir: str) -> dict:
    pool = workloads.make_pool(w)
    ids = list(range(len(pool)))
    weights = [1.0] * len(pool)
    path = os.path.join(workdir, f"reference-{w.name}.json")
    workloads.write_scenario(path, workloads.scenario_document(w, pool, ids, weights))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    ref = {"workload": w.name, "pool_size": len(pool), "made_from": _git_sha(),
           "rtol": checks.RTOL, "jobs": {}}
    for job in w.jobs:
        argv = workloads.job_argv(job, path)
        proc = subprocess.run([sys.executable, "-m", "stratalg.cli", *argv], env=env,
                              capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"{w.name}/{job.label}: exit {proc.returncode}\n{proc.stdout[:2000]}")
        doc = json.loads(proc.stdout)
        fields = checks.per_atom_fields(doc)
        ref["jobs"][job.label] = {
            "argv": list(job.argv),
            "globals": checks.global_fields(doc),
            "fields": {p: [checks.fingerprint(r) for r in rows] for p, rows in fields.items()},
        }
        # the reference run must itself pass every check but the row comparison
        probs = checks.check_output(argv, proc.returncode, proc.stdout, ids, weights,
                                    ref["jobs"][job.label], [])
        if probs:
            raise SystemExit(f"{w.name}/{job.label}: {probs}")
    os.remove(path)
    return ref


def main(names) -> None:
    workdir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        ref = make_reference(workloads.WORKLOADS[name], workdir)
        out = os.path.join(HERE, "reference", f"{name}.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {ref['pool_size']} templates -> {os.path.getsize(out)} bytes")


if __name__ == "__main__":
    main(sys.argv[1:])
