"""Seeded scenario generators and job lists for the benchmark workloads.

Every workload draws its atoms from a fixed pool of atom *templates*.  A
template is the data one atom carries (vectors, scalars, grid rows) and
is made from its own random stream, so the pool never changes.  The pool
is a grid of strata combinations (separation kind, argmin uniqueness,
rank, ...) times a few replicas of each.  A benchmark seed picks, for
every combination, which replicas appear, shuffles the atoms and draws
the atom weights; the strata mix of a full-size scenario is therefore
the same for every seed, while the data differ.

Because every op is local to its atom, the output row of an atom depends
only on its template.  ``make_reference.py`` runs every job once over the
whole pool and stores one fingerprint per template and output field;
``checks.py`` compares sampled output rows against it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

POOL_SEED = 12110747

# Every grid template is rescaled so its steepest finite slope is this
# value.  The default dual grid of ``fenchel-moreau`` and ``infconv
# --check`` depends on ceil(max slope over all atoms); pinning it keeps
# that grid, and so every output row, independent of which atoms a seed
# picks.
GRID_MAX_SLOPE = 9.5


@dataclass
class Template:
    vectors: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple  # command, then flags; the scenario path goes after the command


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    K: int  # full-size atom count, a multiple of len(combos)
    smoke_K: int
    min_passes: int  # passes per run, so each job's mean averages several samples
    combos: tuple  # strata combinations, one dict each
    replicas: int
    jobs: tuple
    make_template: object  # (rng, combo) -> Template
    layout: dict  # convex_sets, functions (without grid values), sequences

    @property
    def pool_size(self) -> int:
        return len(self.combos) * self.replicas


def _unit(v):
    return v / np.linalg.norm(v)


def _product(**factors):
    keys = list(factors)
    return tuple(dict(zip(keys, vals)) for vals in itertools.product(*factors.values()))


# -- data blocks -------------------------------------------------------------


def _lp_block(rng, t: Template, d, nv, npieces, sep, amin, ri, bounded, hb_rank):
    """Polytopes P, Q, R, a max-affine F to minimize, a sublinear S with a
    linear subspace E for Hahn-Banach, and a test point X."""
    P = rng.standard_normal((nv, d)).round(4)
    c = P.mean(axis=0)
    u = _unit(rng.standard_normal(d))
    proj = P @ u
    v = P[np.argmax(np.linalg.norm(P - c, axis=1))]  # farthest point: a vertex
    if sep == "disjoint":  # strong separation succeeds
        Q = P + (proj.max() - proj.min() + rng.uniform(0.5, 1.5)) * u
    elif sep == "touch":  # P and Q meet in the vertex v only
        Q = 2.0 * v - P
    else:  # interiors overlap: weak and proper separation fail
        Q = P + 0.02 * _unit(rng.standard_normal(d))

    Y = rng.standard_normal((npieces, d))
    if amin == "nonunique":  # F ignores the last coordinate
        Y[:, -1] = 0.0
    Y = (Y - Y.mean(axis=0)).round(4)  # 0 inside conv(slopes): F is bounded below
    Z = -(Y @ c) + 0.05 * rng.standard_normal(npieces)

    if ri == "in":
        X = rng.dirichlet(np.ones(nv)) @ P
    elif ri == "vertex":
        X = v
    else:
        X = c + (np.abs(proj - c @ u).max() + 0.5) * u

    ray = _unit(rng.standard_normal(d)).round(4) if bounded == "no" else np.zeros(d)

    S = rng.standard_normal((npieces, d)).round(4)
    target = rng.dirichlet(np.ones(npieces)) @ S
    for i in range(nv):
        t.vectors[f"P{i + 1}"] = P[i]
        t.vectors[f"Q{i + 1}"] = Q[i]
        t.vectors[f"R{i + 1}"] = P[i] - c  # R contains the origin
    for j in range(npieces):
        t.vectors[f"Fy{j + 1}"] = Y[j]
        t.scalars[f"Fz{j + 1}"] = Z[j]
        t.vectors[f"Sy{j + 1}"] = S[j]
    nlines = min(3, d)
    for i in range(nlines):
        # E is spanned by the first hb_rank axes, so its frame is e_1..e_r
        t.vectors[f"E{i + 1}"] = np.eye(d)[i] if i < hb_rank else np.zeros(d)
        t.scalars[f"c{i + 1}"] = float(target[i]) if i < hb_rank else 0.0
    t.vectors["X"] = X
    t.vectors["Rr"] = ray
    t.vectors["O"] = np.zeros(d)
    t.scalars["zero"] = 0.0


def _lp_layout(nv, npieces, d):
    nlines = min(3, d)
    return {
        "convex_sets": {
            "P": {"points": [f"P{i + 1}" for i in range(nv)]},
            "Q": {"points": [f"Q{i + 1}" for i in range(nv)]},
            "R": {"points": [f"R{i + 1}" for i in range(nv)], "rays": ["Rr"]},
            "E": {"points": ["O"], "lines": [f"E{i + 1}" for i in range(nlines)]},
        },
        "functions": {
            "F": {"type": "max_affine",
                  "pieces": [[f"Fy{j + 1}", f"Fz{j + 1}"] for j in range(npieces)]},
            "S": {"type": "max_affine",
                  "pieces": [[f"Sy{j + 1}", "zero"] for j in range(npieces)]},
        },
    }


def _lp_jobs(nlines, strong=False):
    values = [f"c{i + 1}" for i in range(nlines)]
    jobs = [
        Job("argmin", ("argmin", "--function", "F", "--set", "P")),
        Job("ri-test", ("ri-test", "--point", "X", "--set", "P", "--mode", "relative")),
    ]
    if strong:
        jobs.append(Job("separate", ("separate", "--first", "P", "--second", "Q")))
    else:
        jobs += [
            Job("separate-weak", ("separate", "--first", "P", "--second", "Q", "--kind", "weak")),
            Job("separate-proper", ("separate", "--first", "P", "--second", "Q", "--kind", "proper")),
        ]
    jobs += [
        Job("bounded-test", ("bounded-test", "--set", "R")),
        Job("hahn-banach", ("hahn-banach", "--bound", "S", "--subspace", "E", "--values", *values)),
    ]
    return jobs


def _grid_axis(step):
    n = round(4.0 / step) + 1
    return -2.0 + step * np.arange(n)


def _grid_values(rng, xs, convex, carrier):
    m1, m2 = rng.uniform(-1.0, 1.0, 2)
    v = rng.uniform(0.5, 3.0) * (xs - m1) ** 2 + rng.uniform(0.0, 2.0) * np.abs(xs - m2)
    v += rng.uniform(-1.0, 1.0) * xs
    if not convex:
        v += rng.uniform(0.5, 1.0) * np.sin(rng.uniform(6.0, 10.0) * xs + rng.uniform(0, 6.3))
    if carrier == "restricted":  # +inf outside an interval around the origin
        lo, hi = rng.uniform(-1.8, -0.6), rng.uniform(0.6, 1.8)
        v[(xs < lo) | (xs > hi)] = np.inf
    fin = np.isfinite(v)
    slope = np.max(np.abs(np.diff(v[fin]) / np.diff(xs[fin])))
    v[fin] = (v[fin] * (GRID_MAX_SLOPE / slope)).round(6)
    return v


def _grid_block(rng, t: Template, step, f_convex, f_carrier, g_convex):
    xs = _grid_axis(step)
    t.grids["f"] = _grid_values(rng, xs, f_convex == "yes", f_carrier)
    t.grids["g"] = _grid_values(rng, xs, g_convex == "yes", "full")


def _grid_layout(step):
    rec = {"type": "grid", "mins": [-2.0], "maxs": [2.0], "steps": [step]}
    return {"functions": {"f": dict(rec), "g": dict(rec)}}


def _grid_jobs(dual_step):
    return [
        Job("conjugate", ("conjugate", "--function", "f", "--mins", "-12",
                          "--maxs", "12", "--steps", dual_step)),
        Job("fenchel-moreau", ("fenchel-moreau", "--function", "f")),
        Job("infconv", ("infconv", "--functions", "f", "g", "--check")),
    ]


def _wide_block(rng, t: Template, d, ngen, nterms, npieces, rank, seq, active):
    """Generators of a given rank, a vector to project, a sequence that
    converges or oscillates, and a max-affine F with ``active`` pieces
    tied at the point X0."""
    B = rng.standard_normal((rank, d)).round(4)
    C = rng.standard_normal((ngen, rank)).round(4)
    G = C @ B  # exact rank: not rounded after the product
    for j in range(ngen):
        t.vectors[f"G{j + 1}"] = G[j]
    t.vectors["X"] = rng.standard_normal(d).round(4)

    limit = rng.standard_normal(d).round(4)
    for n in range(1, nterms + 1):
        # terms approach the limit from above, within 1/n^2 per coordinate,
        # so every term from the fifth on survives each bw stage
        term = limit + rng.uniform(0.0, 1.0, d) / n**2
        if seq == "oscillating" and n % 2 == 0:
            term[0] += 1.0
        t.vectors[f"S{n}"] = term
    for i, eps in enumerate((1.0, 0.1, 0.01)):
        t.scalars[f"e{i + 1}"] = eps

    Y = rng.standard_normal((npieces, d)).round(4)
    x0 = rng.standard_normal(d).round(4)
    Z = -(Y @ x0)
    Z[active:] -= rng.uniform(0.5, 1.5, npieces - active)
    for j in range(npieces):
        t.vectors[f"Fy{j + 1}"] = Y[j]
        t.scalars[f"Fz{j + 1}"] = Z[j]
    t.vectors["X0"] = x0


def _wide_layout(nterms, npieces):
    return {
        "functions": {
            "F": {"type": "max_affine",
                  "pieces": [[f"Fy{j + 1}", f"Fz{j + 1}"] for j in range(npieces)]},
        },
        "sequences": {"S": {"terms": [f"S{n}" for n in range(1, nterms + 1)]}},
    }


def _wide_jobs(ngen, depth, slack):
    gens = [f"G{j + 1}" for j in range(ngen)]
    return [
        Job("basis", ("basis", "--generators", *gens)),
        Job("orthonormalize", ("orthonormalize", "--generators", *gens)),
        Job("decompose", ("decompose", "--vector", "X", "--generators", *gens)),
        Job("bw", ("bw", "--sequence", "S", "--depth", str(depth), "--slack", str(slack))),
        Job("cauchy", ("cauchy", "--sequence", "S", "--eps", "e1", "e2", "e3")),
        Job("subgrad", ("subgrad", "--function", "F", "--point", "X0")),
    ]


# -- the four workloads ------------------------------------------------------

_LP_D, _LP_NV, _LP_PIECES = 4, 6, 6
_GRID_STEP = 0.02
_WIDE_D, _WIDE_GEN, _WIDE_TERMS, _WIDE_PIECES = 5, 8, 16, 10
_SMALL_D = 2


def _lp_combos():
    """Every separation, argmin, test-point and boundedness case, each with
    two of the four Hahn-Banach subspace ranks: every rank appears equally
    often, and 72 atoms are small enough for three passes in a run."""
    base = _product(sep=("disjoint", "touch", "overlap"), amin=("unique", "nonunique"),
                    ri=("in", "vertex", "out"), bounded=("yes", "no"))
    return tuple(dict(c, hb_rank=r) for j, c in enumerate(base) for r in (j % 2, j % 2 + 2))


def _lp_template(rng, combo):
    t = Template()
    _lp_block(rng, t, _LP_D, _LP_NV, _LP_PIECES, **combo)
    return t


def _grid_template(rng, combo):
    t = Template()
    _grid_block(rng, t, _GRID_STEP, **combo)
    return t


def _wide_template(rng, combo):
    t = Template()
    _wide_block(rng, t, _WIDE_D, _WIDE_GEN, _WIDE_TERMS, _WIDE_PIECES, **combo)
    return t


def _small_combos():
    """Twelve combinations that cycle every factor of the other workloads."""
    out = []
    for i in range(12):
        out.append({
            "lp": dict(sep=("disjoint", "touch", "overlap")[i % 3],
                       amin=("unique", "nonunique")[i % 2],
                       ri=("in", "vertex", "out")[(i // 2) % 3],
                       bounded=("yes", "no")[(i // 3) % 2],
                       hb_rank=i % 3),
            "grid": dict(f_convex=("yes", "no")[i % 2],
                         f_carrier=("full", "restricted")[(i // 2) % 2],
                         g_convex=("yes", "no")[(i // 4) % 2]),
            "wide": dict(rank=1 + i % 2, seq=("convergent", "oscillating")[(i // 2) % 2],
                         active=1 + (i // 3) % 2),
        })
    return tuple(out)


def _small_template(rng, combo):
    t = Template()
    _lp_block(rng, t, _SMALL_D, 4, 4, **combo["lp"])
    _grid_block(rng, t, 0.1, **combo["grid"])
    wide = Template()
    _wide_block(rng, wide, _SMALL_D, 3, 8, 4, **combo["wide"])
    # the wide block reuses names of the lp block; keep them apart
    for name, row in wide.vectors.items():
        t.vectors["w" + name] = row
    for name, val in wide.scalars.items():
        t.scalars["w" + name] = val
    return t


def _small_layout():
    lay = _lp_layout(4, 4, _SMALL_D)
    lay["functions"].update(_grid_layout(0.1)["functions"])
    lay["functions"]["wF"] = {
        "type": "max_affine", "pieces": [[f"wFy{j + 1}", f"wFz{j + 1}"] for j in range(4)]}
    lay["sequences"] = {"wS": {"terms": [f"wS{n}" for n in range(1, 9)]}}
    return lay


def _small_jobs():
    gens = ["wG1", "wG2", "wG3"]
    lp = _lp_jobs(min(3, _SMALL_D), strong=True)
    return tuple([
        Job("basis", ("basis", "--generators", *gens)),
        Job("orthonormalize", ("orthonormalize", "--generators", *gens)),
        Job("decompose", ("decompose", "--vector", "wX", "--generators", *gens)),
        *lp,
        *_grid_jobs("0.1"),
        Job("subgrad", ("subgrad", "--function", "wF", "--point", "wX0")),
        Job("bw", ("bw", "--sequence", "wS", "--depth", "2", "--slack", "0.05")),
        Job("cauchy", ("cauchy", "--sequence", "wS", "--eps", "we1", "we2", "we3")),
    ])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lp-strata", d=_LP_D, K=72, smoke_K=12, min_passes=3,
            combos=_lp_combos(), replicas=4, jobs=tuple(_lp_jobs(3)), make_template=_lp_template,
            layout=_lp_layout(_LP_NV, _LP_PIECES, _LP_D),
        ),
        Workload(
            name="grid-kernels", d=1, K=32, smoke_K=8, min_passes=3,
            combos=_product(f_convex=("yes", "no"), f_carrier=("full", "restricted"),
                            g_convex=("yes", "no")),
            replicas=12, jobs=tuple(_grid_jobs("0.01")), make_template=_grid_template,
            layout=_grid_layout(_GRID_STEP),
        ),
        Workload(
            name="wide-linalg", d=_WIDE_D, K=2000, smoke_K=40, min_passes=2,
            combos=_product(rank=(1, 2, 3, 4, 5), seq=("convergent", "oscillating"),
                            active=(1, 2, 3, 4)),
            replicas=6, jobs=tuple(_wide_jobs(_WIDE_GEN, 4, 0.05)),
            make_template=_wide_template, layout=_wide_layout(_WIDE_TERMS, _WIDE_PIECES),
        ),
        Workload(
            name="cli-small", d=_SMALL_D, K=12, smoke_K=12, min_passes=2,
            combos=_small_combos(), replicas=3, jobs=_small_jobs(),
            make_template=_small_template, layout=_small_layout(),
        ),
    )
}


# -- pools and scenarios -----------------------------------------------------


def _workload_index(w: Workload) -> int:
    return list(WORKLOADS).index(w.name)


def make_pool(w: Workload) -> list:
    """Every template of the workload, combination-major."""
    pool = []
    for ci, combo in enumerate(w.combos):
        for r in range(w.replicas):
            rng = np.random.default_rng([POOL_SEED, _workload_index(w), ci, r])
            pool.append(w.make_template(rng, combo))
    return pool


def pick_templates(w: Workload, seed: int, K: int) -> tuple:
    """Template ids and atom weights for one scenario.

    At full size every combination appears ``K / len(combos)`` times, so
    the strata mix is fixed; smaller scenarios take a seeded subset of
    the combinations.
    """
    rng = np.random.default_rng([seed, _workload_index(w)])
    L, R = len(w.combos), w.replicas
    if K >= L:
        if K % L:
            raise ValueError(f"{w.name}: K={K} is not a multiple of {L} combinations")
        per = K // L
        ids = []
        for ci in range(L):
            reps = rng.permutation(R)[:per] if per <= R else rng.integers(0, R, per)
            ids += [ci * R + int(r) for r in reps]
    else:
        combos = rng.choice(L, K, replace=False)
        ids = [int(ci) * R + int(rng.integers(R)) for ci in combos]
    ids = np.array(ids)[rng.permutation(len(ids))]
    weights = rng.uniform(0.5, 2.0, len(ids)).round(3)
    return ids.tolist(), weights.tolist()


def _num(x):
    x = float(x)
    if x == np.inf:
        return "+inf"
    if x == -np.inf:
        return "-inf"
    return x


def scenario_document(w: Workload, pool: list, ids: list, weights: list) -> dict:
    atoms = [pool[i] for i in ids]
    first = atoms[0]
    doc = {
        "weights": weights,
        "d": w.d,
        "vectors": {n: [[_num(x) for x in a.vectors[n]] for a in atoms] for n in first.vectors},
        "scalars": {n: [_num(a.scalars[n]) for a in atoms] for n in first.scalars},
        "convex_sets": w.layout.get("convex_sets", {}),
        "sequences": w.layout.get("sequences", {}),
        "functions": {},
    }
    for name, rec in w.layout.get("functions", {}).items():
        rec = dict(rec)
        if rec["type"] == "grid":
            rec["values"] = [[_num(x) for x in a.grids[name]] for a in atoms]
        doc["functions"][name] = rec
    return doc


def write_scenario(path: str, doc: dict) -> int:
    text = json.dumps(doc, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text)


def job_argv(job: Job, scenario_path: str) -> list:
    return [job.argv[0], scenario_path, *job.argv[1:]]
