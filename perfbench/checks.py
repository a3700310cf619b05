"""Correctness checks for one CLI job of a benchmark run.

A job passes when it exits 0, prints one parsable result document, its
certificates agree with the per-atom rows they summarize and stay within
the op's tolerance, and every sampled atom row matches the reference row
of the atom's template (see ``make_reference.py``) within ``RTOL``.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Relative tolerance of a sampled row against its reference, on the
# scale max(1, |reference|).  Loose enough for a reordered sum, far
# tighter than any change of answer.
RTOL = 1e-6

# Rows longer than this are compared through a fingerprint.
_FULL_ROW = 24
_PROBES = 16

# certificate -> (reduction, per-atom field it summarizes)
_AGGREGATES = {
    "top_rank": ("max", "integers/labels"),
    "max_gram_defect": ("max", "scalars/gram_defect"),
    "max_orthogonality_defect": ("max", "scalars/orthogonality"),
    "failure_atom_count": ("sum", "sets/failure_set"),
    "max_probe_excess": ("max", "scalars/probe_excess"),
    "max_deviation_overall": ("max", "scalars/max_deviation"),
    "max_probe_violation": ("max", "scalars/probe_violation"),
    "max_output_convexity_defect": ("max", "scalars/output_convexity_defect"),
    "max_additivity_defect": ("max", "scalars/additivity_defect"),
    "passing_atom_count": ("sum", "sets/cauchy_on"),
    "member_atom_count": ("sum", "sets/member_set"),
    "unbounded_atom_count": ("zeros", "sets/bounded_on"),
}

# certificate -> largest value the op's tolerance allows
_BOUNDS = {
    "max_gram_defect": 1e-9,  # GRAM_TOL
    "max_orthogonality_defect": 1e-8,  # RANK_TOL-level noise on O(10) data
    "max_probe_excess": 1e-6,  # QP_TOL on O(10) probes
    "max_probe_violation": 1e-6,  # QP_TOL on O(10) probes
}


def _num(x) -> float:
    if x == "+inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return float(x)


def _as_array(row) -> np.ndarray:
    if isinstance(row, list):
        return np.array([_num(x) for x in _flatten(row)], dtype=float)
    return np.array([_num(row)], dtype=float)


def _flatten(row):
    for x in row:
        if isinstance(x, list):
            yield from _flatten(x)
        else:
            yield x


def fingerprint(row) -> list:
    """The row itself when short; else the tag ``"fp"``, the length, the
    infinity counts, the finite and absolute sums, and ``_PROBES`` evenly
    spaced entries."""
    a = _as_array(row)
    if a.size <= _FULL_ROW:
        return [_enc(x) for x in a]
    fin = np.isfinite(a)
    probes = np.linspace(0, a.size - 1, _PROBES).round().astype(int)
    head = [a.size, int(np.isposinf(a).sum()), int(np.isneginf(a).sum()),
            float(a[fin].sum()), float(np.abs(a[fin]).sum())]
    return ["fp"] + [_enc(x) for x in head] + [_enc(x) for x in a[probes]]


def _enc(x):
    x = float(x)
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    return int(x) if x.is_integer() and abs(x) < 2**53 else x


def _close(got, ref, scale) -> bool:
    got, ref = _num(got), _num(ref)
    if math.isinf(ref) or math.isinf(got):
        return got == ref
    return abs(got - ref) <= RTOL * max(1.0, abs(scale))


def fingerprints_match(got: list, ref: list) -> bool:
    if len(got) != len(ref) or (got[:1] == ["fp"]) != (ref[:1] == ["fp"]):
        return False
    if ref[:1] != ["fp"]:
        return all(_close(g, r, r) for g, r in zip(got, ref))
    # the finite sum is judged on the scale of the absolute sum
    scales = list(ref[1:])
    scales[3] = ref[5]
    return all(_close(g, r, s) for g, r, s in zip(got[1:], ref[1:], scales))


def per_atom_fields(doc: dict) -> dict:
    """Every per-atom output field: path -> list of K rows."""
    out = {}
    for sec in ("vectors", "scalars", "integers", "sets"):
        for name, rows in doc.get(sec, {}).items():
            out[f"{sec}/{name}"] = rows
    for name, rec in doc.get("functions", {}).items():
        out[f"functions/{name}/values"] = rec["values"]
    return out


def global_fields(doc: dict) -> dict:
    """What every atom shares: the dimension and the grids of results."""
    out = {"d": doc.get("d")}
    for name, rec in doc.get("functions", {}).items():
        for key in ("type", "mins", "maxs", "steps"):
            out[f"functions/{name}/{key}"] = rec.get(key)
    return out


def _skip_row(path: str, fields: dict, k: int) -> bool:
    # a minimizer is a choice only where the argmin is unique
    return path == "vectors/minimizer" and not fields["sets/unique_set"][k]


def _certificate_problems(doc: dict, fields: dict, job_argv: list) -> list:
    probs = []
    certs = doc.get("certificates", {})
    for key, value in certs.items():
        if key in _AGGREGATES:
            how, path = _AGGREGATES[key]
            rows = np.array([_num(x) for x in fields.get(path, [])])
            if how == "max":
                want = rows.max() if rows.size else None
            elif how == "sum":
                want = rows.sum()
            else:
                want = (rows == 0).sum()
            if want is None or not _close(value, want, want):
                probs.append(f"certificate {key}={value} disagrees with {path} ({want})")
        if key in _BOUNDS and not _num(value) <= _BOUNDS[key]:
            probs.append(f"certificate {key}={value} exceeds {_BOUNDS[key]}")
    command = job_argv[0]
    if command == "fenchel-moreau":
        # documented bound: twice the primal step away from the envelope,
        # where both are finite (an infinite deviation marks a carrier
        # the biconjugate extends beyond)
        dev = np.array([_num(x) for x in fields["scalars/max_deviation"]])
        if (dev[np.isfinite(dev)] > 2.0 * certs.get("grid_step", 0.0)).any():
            probs.append("fenchel-moreau deviation exceeds twice the primal step")
        all_ok = all(fields["sets/minorant_ok"]) and all(fields["sets/idempotent_ok"])
        if certs.get("all_ok") != all_ok:
            probs.append("fenchel-moreau all_ok disagrees with its sets")
    elif command == "argmin":
        finite = all(not math.isinf(_num(v)) for v in fields["scalars/value"])
        if certs.get("feasible_everywhere") != finite:
            probs.append("argmin feasible_everywhere disagrees with its values")
    elif command == "bw":
        idx = np.array([fields[f"integers/N_{j + 1}"] for j in range(certs.get("depth", 0))])
        if (idx < 1).any() or not (np.diff(idx, axis=0) > 0).all():
            probs.append("bw indices are not strictly increasing and 1-based")
    return probs


def check_output(job_argv: list, code: int, text: str, ids: list, weights: list,
                 ref: dict, sample: list) -> list:
    """Problems found in one job's output; an empty list means it passed.

    ``ids`` maps atoms to pool templates, ``ref`` is the job's entry in
    the workload reference and ``sample`` lists the atoms to compare.
    """
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict) or "error" in doc:
        return ["output is an error document"]
    if [_num(w) for w in doc.get("weights", [])] != [float(w) for w in weights]:
        return ["weights are not echoed"]
    fields = per_atom_fields(doc)
    probs = []
    if set(fields) != set(ref["fields"]):
        probs.append(f"fields {sorted(fields)} differ from reference {sorted(ref['fields'])}")
    if global_fields(doc) != ref["globals"]:
        probs.append("shared grid or dimension differs from reference")
    K = len(ids)
    for path, rows in fields.items():
        if len(rows) != K:
            probs.append(f"{path} has {len(rows)} rows for {K} atoms")
    if probs:
        return probs
    probs += _certificate_problems(doc, fields, job_argv)
    for path, rows in fields.items():
        refs = ref["fields"][path]
        for k in sample:
            if _skip_row(path, fields, k):
                continue
            if not fingerprints_match(fingerprint(rows[k]), refs[ids[k]]):
                probs.append(f"{path} row of atom {k} (template {ids[k]}) differs from reference")
    return probs
