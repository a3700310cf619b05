"""End-to-end acceptance checks, one test per criterion.

Every check compares the package against an independent oracle route
(tests/oracles.py) or a planted construction whose answer is known.
Constructions are seeded through the ``rng`` fixture, so the whole
suite is deterministic.  The per-criterion verdicts are printed by the
terminal summary hook in conftest.
"""

import json

import numpy as np

import oracles
from conftest import record_acceptance
from test_cli import run_cli, scenario_doc

from stratalg import (
    CondScalar,
    CondSequence,
    CondVector,
    ConvexSetRep,
    Grid,
    GridFn,
    MaxAffineFn,
    MeasureSpace,
    argmin,
    bounded_subgradient,
    bw_extract,
    conjugate,
    decompose,
    fenchel_moreau_check,
    hahn_banach_extend,
    inf_convolution,
    orthonormalize,
    rank_partition,
    separate,
    subdifferential,
)
from stratalg.io import emit_document
from stratalg.tolerances import RANK_TOL


def random_space(rng, max_atoms):
    k = int(rng.integers(1, max_atoms + 1))
    return MeasureSpace(rng.uniform(0.2, 2.0, size=k))


def random_generators(rng, space, d, m):
    """Generator stack (m, K, d) mixing float, integer and dependent rows."""
    K = space.natoms
    rows = np.empty((m, K, d))
    for j in range(m):
        for k in range(K):
            mode = rng.random()
            if mode < 0.30 and j >= 1:
                # integer combination of earlier generators, exact dependency
                coef = rng.integers(-2, 3, size=j)
                rows[j, k] = coef @ rows[:j, k]
            elif mode < 0.45:
                rows[j, k] = 0.0
            elif mode < 0.70:
                rows[j, k] = rng.integers(-3, 4, size=d)
            else:
                rows[j, k] = rng.standard_normal(d)
    return rows


def test_01_rank_labels_match_elimination(rng):
    instances, mismatches = 500, 0
    for _ in range(instances):
        space = random_space(rng, 8)
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 8))
        rows = random_generators(rng, space, d, m)
        gens = [CondVector(space, rows[j]) for j in range(m)]
        basis = rank_partition(gens, rank_tol=RANK_TOL)
        for k in range(space.natoms):
            want = oracles.ge_rank(rows[:, k, :], RANK_TOL)
            if int(basis.labels[k]) != want:
                mismatches += 1
    record_acceptance(
        1,
        "rank labels equal per-atom elimination rank",
        mismatches == 0,
        f"{instances} instances, {mismatches} mismatches",
    )


def test_02_frame_gram_and_span(rng):
    instances = 300
    worst_gram, worst_angle = 0.0, 0.0
    for _ in range(instances):
        space = random_space(rng, 6)
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 8))
        rows = random_generators(rng, space, d, m)
        gens = [CondVector(space, rows[j]) for j in range(m)]
        frame = orthonormalize(rank_partition(gens, rank_tol=RANK_TOL))
        worst_gram = max(worst_gram, float(frame.gram_defect().values.max()))
        for k in range(space.natoms):
            r = int(frame.labels[k])
            ref = oracles.span_basis(rows[:, k, :], RANK_TOL)
            ang = oracles.max_principal_angle(frame.rows[k][:r].T, ref)
            worst_angle = max(worst_angle, ang)
    ok = worst_gram <= 1e-9 and worst_angle < 1e-8
    record_acceptance(
        2,
        "frames are orthonormal and span the generator submodule",
        ok,
        f"gram defect {worst_gram:.2e}, principal angle {worst_angle:.2e}",
    )


def test_03_projection_residual_optimality(rng):
    instances, draws = 200, 100
    worst_ortho, worst_excess = 0.0, -np.inf
    for _ in range(instances):
        space = random_space(rng, 6)
        K = space.natoms
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        rows = random_generators(rng, space, d, m)
        gens = [CondVector(space, rows[j]) for j in range(m)]
        frame = orthonormalize(rank_partition(gens, rank_tol=RANK_TOL))
        x = CondVector(space, 3.0 * rng.standard_normal((K, d)))
        _, z = decompose(x, frame)
        for g in gens:
            worst_ortho = max(worst_ortho, float(np.abs(z.inner(g).values).max()))
        coeffs = rng.uniform(-2.0, 2.0, size=(draws, K, m))
        candidates = np.einsum("qkm,mkd->qkd", coeffs, rows)
        dist = np.linalg.norm(x.values[None, :, :] - candidates, axis=2)
        excess = z.norm().values[None, :] - dist
        worst_excess = max(worst_excess, float(excess.max()))
    ok = worst_ortho < 1e-9 and worst_excess <= 1e-9
    record_acceptance(
        3,
        "projection residual is orthogonal and norm-minimal",
        ok,
        f"orthogonality {worst_ortho:.2e}, optimality excess {worst_excess:.2e}",
    )


def cloud(rng, K, d, npts, centers, radius=1.0):
    """Point list for a per-atom cloud inside a ball around ``centers``."""
    pts = []
    for _ in range(npts):
        u = rng.standard_normal((K, d))
        u *= (radius * rng.uniform(0.1, 1.0, size=(K, 1))
              / np.linalg.norm(u, axis=1, keepdims=True))
        pts.append(centers + u)
    return pts


def test_04_strong_separation(rng):
    disjoint, meeting = 200, 100
    bad_failure, bad_gap, bad_atoms = 0, 0, 0
    for _ in range(disjoint):
        space = random_space(rng, 5)
        K = space.natoms
        d = int(rng.integers(1, 5))
        c0 = rng.standard_normal((K, d))
        u = rng.standard_normal((K, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        margin = rng.uniform(0.11, 2.0, size=(K, 1))
        d0 = c0 + u * (2.0 + margin)
        C = ConvexSetRep(space, d, tuple(
            CondVector(space, p) for p in cloud(rng, K, d, int(rng.integers(1, 5)), c0)))
        D = ConvexSetRep(space, d, tuple(
            CondVector(space, p) for p in cloud(rng, K, d, int(rng.integers(1, 5)), d0)))
        res = separate(C, D, kind="strong")
        if not res.failure_set.is_empty:
            bad_failure += 1
        sq = res.normal.norm().values ** 2
        if np.any(res.gap.values < sq - 1e-7):
            bad_gap += 1
    for _ in range(meeting):
        space = random_space(rng, 5)
        K = space.natoms
        d = int(rng.integers(1, 5))
        overlap = rng.random(K) < 0.6
        c0 = rng.standard_normal((K, d))
        shift = np.where(overlap[:, None], 0.0, 3.0 + rng.uniform(0.2, 1.0, size=(K, 1)))
        d0 = c0 + shift
        cpts = cloud(rng, K, d, 3, c0) + [c0]
        dpts = cloud(rng, K, d, 3, d0) + [d0]
        C = ConvexSetRep(space, d, tuple(CondVector(space, p) for p in cpts))
        D = ConvexSetRep(space, d, tuple(CondVector(space, p) for p in dpts))
        res = separate(C, D, kind="strong")
        for k in range(K):
            hit = oracles.polytopes_intersect(
                np.array([p[k] for p in cpts]), np.array([p[k] for p in dpts]))
            if bool(res.failure_set.mask[k]) != hit:
                bad_atoms += 1
    ok = bad_failure == 0 and bad_gap == 0 and bad_atoms == 0
    record_acceptance(
        4,
        "strong separation: clean pairs split, meeting atoms localized",
        ok,
        f"{bad_failure} spurious failures, {bad_gap} gap violations, "
        f"{bad_atoms} misplaced atoms",
    )


def test_05_weak_and_proper_failure_atoms(rng):
    instances, bad_weak, bad_proper = 100, 0, 0
    for _ in range(instances):
        space = random_space(rng, 5)
        K = space.natoms
        planted = rng.random(K) < 0.5
        corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        c0 = rng.standard_normal((K, 2))
        cpts = [c0 + corners[i] * rng.uniform(0.8, 1.2, size=(K, 1)) for i in range(4)]
        centroid = np.mean(cpts, axis=0)
        d0 = np.where(planted[:, None], centroid, c0 + np.array([5.0, 0.0]))
        dpts = [d0, d0 + np.where(planted[:, None], 0.05, 0.3)]
        C = ConvexSetRep(space, 2, tuple(CondVector(space, p) for p in cpts))
        D = ConvexSetRep(space, 2, tuple(CondVector(space, p) for p in dpts))
        res = separate(C, D, kind="weak")
        for k in range(K):
            diff = np.array([c[k] - dd[k] for c in cpts for dd in dpts])
            want = oracles.zero_in_interior(diff)
            if want != bool(planted[k]) or bool(res.failure_set.mask[k]) != want:
                bad_weak += 1
    for _ in range(instances):
        space = random_space(rng, 5)
        K = space.natoms
        planted = rng.random(K) < 0.5
        d = int(rng.integers(2, 4))
        p0 = rng.standard_normal((K, d))
        seg = rng.standard_normal((K, d))
        seg /= np.linalg.norm(seg, axis=1, keepdims=True)
        p1 = p0 + seg
        # planted atoms share the segment; others touch it at one endpoint
        q0 = np.where(planted[:, None], p0, p1)
        q1 = np.where(planted[:, None], p1, p1 + seg)
        C = ConvexSetRep(space, d, (CondVector(space, p0), CondVector(space, p1)))
        D = ConvexSetRep(space, d, (CondVector(space, q0), CondVector(space, q1)))
        res = separate(C, D, kind="proper")
        for k in range(K):
            diff = np.array([c - dd for c in (p0[k], p1[k]) for dd in (q0[k], q1[k])])
            want = oracles.zero_in_relative_interior(diff)
            if want != bool(planted[k]) or bool(res.failure_set.mask[k]) != want:
                bad_proper += 1
    ok = bad_weak == 0 and bad_proper == 0
    record_acceptance(
        5,
        "weak and proper separation localize planted failure atoms",
        ok,
        f"{instances} instances each, {bad_weak} weak / {bad_proper} proper misses",
    )


def test_06_dominated_extension(rng):
    instances, probes = 100, 1000
    worst_value, worst_excess = 0.0, -np.inf
    for _ in range(instances):
        space = random_space(rng, 4)
        K = space.natoms
        d = int(rng.integers(2, 5))
        P = int(rng.integers(2, 6))
        slopes = rng.standard_normal((P, K, d)) * 2.0
        zero = CondScalar.constant(space, 0.0)
        p = MaxAffineFn.from_pieces(
            [(CondVector(space, slopes[i]), zero) for i in range(P)]
        )
        r = int(rng.integers(1, d))
        lines = [CondVector(space, rng.standard_normal((K, d))) for _ in range(r)]
        E = ConvexSetRep(
            space, d, (CondVector.constant(space, np.zeros(d)),), lines=tuple(lines)
        )
        frame = orthonormalize(rank_partition(lines, rank_tol=RANK_TOL))
        lam = rng.uniform(0.0, 1.0, size=(K, P))
        lam /= lam.sum(axis=1, keepdims=True)
        w = np.einsum("kp,pkd->kd", lam, slopes)
        top = int(frame.labels.max())
        values = []
        for i in range(top):
            ci = np.where(
                frame.labels > i, np.einsum("kd,kd->k", frame.rows[:, i, :], w), 0.0
            )
            values.append(CondScalar(space, ci))
        h = hahn_banach_extend(p, E, values)
        for i, ci in enumerate(values):
            got = np.einsum("kd,kd->k", frame.rows[:, i, :], h.values)
            err = np.abs(got - ci.values)[frame.labels > i]
            if err.size:
                worst_value = max(worst_value, float(err.max()))
        X = rng.standard_normal((probes, d)) * 10 ** rng.uniform(-1, 2, size=(probes, 1))
        pvals = np.einsum("pkd,qd->kpq", slopes, X).max(axis=1)
        hvals = np.einsum("kd,qd->kq", h.values, X)
        worst_excess = max(worst_excess, float((hvals - pvals).max()))
    ok = worst_value < 1e-9 and worst_excess <= 1e-9
    record_acceptance(
        6,
        "dominated extension matches prescriptions and stays under the bound",
        ok,
        f"value error {worst_value:.2e}, probe excess {worst_excess:.2e}",
    )


def test_07_biconjugate_tracks_envelope(rng):
    instances, nodes = 50, 201
    worst_ratio, worst_minor, idem_fail = 0.0, 0.0, 0
    for _ in range(instances):
        space = random_space(rng, 4)
        K = space.natoms
        w = rng.uniform(1.0, 5.0)
        step = 2.0 * w / (nodes - 1)
        grid = Grid((-w,), (w,), (step,))
        smax = rng.uniform(1.0, 4.0)
        inc = rng.uniform(-smax, smax, size=(K, nodes - 1)) * step
        vals = np.concatenate([np.zeros((K, 1)), np.cumsum(inc, axis=1)], axis=1)
        vals += rng.uniform(-1.0, 1.0, size=(K, 1))
        f = GridFn(space, grid, vals)
        rep = fenchel_moreau_check(f)
        xs = grid.axis(0)
        for k in range(K):
            env = oracles.lower_envelope(xs, vals[k])
            dev = float(np.max(np.abs(rep.biconjugate.values[k] - env)))
            worst_ratio = max(worst_ratio, dev / (2.0 * step))
        worst_minor = max(
            worst_minor, float((rep.biconjugate.values - vals).max())
        )
        if not rep.idempotent_ok.is_full:
            idem_fail += 1
    ok = worst_ratio <= 1.0 and worst_minor <= 1e-9 and idem_fail == 0
    record_acceptance(
        7,
        "biconjugate tracks the lower convex envelope within 2 steps",
        ok,
        f"worst deviation {worst_ratio:.3f}x budget, minorant excess "
        f"{worst_minor:.2e}, {idem_fail} idempotency failures",
    )


def test_08_subgradient_inequality_and_bound(rng):
    instances, probes = 200, 10_000
    worst_viol, worst_norm_excess = -np.inf, -np.inf
    for _ in range(instances):
        space = random_space(rng, 4)
        K = space.natoms
        d = int(rng.integers(1, 5))
        P = int(rng.integers(2, 7))
        slopes = rng.standard_normal((P, K, d)) * rng.uniform(0.5, 3.0)
        offs = rng.standard_normal((P, K))
        f = MaxAffineFn.from_pieces(
            [
                (CondVector(space, slopes[i]), CondScalar(space, offs[i]))
                for i in range(P)
            ]
        )
        x0 = CondVector(space, rng.standard_normal((K, d)))
        y = subdifferential(f, x0).representative
        f0 = f.eval(x0).values
        H = rng.standard_normal((probes, d)) * 10 ** rng.uniform(
            -2, 2, size=(probes, 1)
        )
        shifted = np.einsum("pkd,qd->kpq", slopes, H)
        fH = (shifted + (np.einsum("pkd,kd->kp", slopes, x0.values) + offs.T)[:, :, None]).max(axis=1)
        lin = f0[:, None] + np.einsum("kd,qd->kq", y.values, H)
        worst_viol = max(worst_viol, float((lin - fH).max()))
        vvals = np.linalg.norm(slopes, axis=2).max(axis=0) + 1e-12
        yb = bounded_subgradient(f, x0, CondScalar(space, vvals))
        worst_norm_excess = max(
            worst_norm_excess, float((yb.norm().values - vvals).max())
        )
    ok = worst_viol < 1e-9 and worst_norm_excess <= 1e-9
    record_acceptance(
        8,
        "subgradients satisfy the inequality; bounded variant within bound",
        ok,
        f"probe violation {worst_viol:.2e}, norm excess {worst_norm_excess:.2e}",
    )


def test_09_argmin_matches_vertex_enumeration(rng):
    instances, worst_gap, strat_bad = 200, 0.0, 0
    for _ in range(instances):
        space = random_space(rng, 3)
        K = space.natoms
        d = int(rng.integers(1, 3))
        P = int(rng.integers(2, 6))
        slopes = rng.standard_normal((P, K, d)) * 2.0
        offs = rng.standard_normal((P, K))
        f = MaxAffineFn.from_pieces(
            [
                (CondVector(space, slopes[i]), CondScalar(space, offs[i]))
                for i in range(P)
            ]
        )
        npts = int(rng.integers(d + 1, 7))
        pts = [rng.standard_normal((K, d)) * 2.0 for _ in range(npts)]
        C = ConvexSetRep(space, d, tuple(CondVector(space, p) for p in pts))
        res = argmin(f, C)
        for k in range(K):
            want, _ = oracles.argmin_pl(
                np.array([p[k] for p in pts]), slopes[:, k, :], offs[:, k]
            )
            worst_gap = max(worst_gap, abs(float(res.value.values[k]) - want))
    # stratified: one linear piece per atom pointing at a distinct box corner
    for _ in range(20):
        space = MeasureSpace([1.0, 1.0, 1.0, 1.0])
        corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        slope = -corners - 0.3 * rng.random((4, 2))  # optimum at corner k on atom k
        f = MaxAffineFn.from_pieces(
            [(CondVector(space, slope), CondScalar.constant(space, 0.0))]
        )
        box = ConvexSetRep(
            space, 2, tuple(CondVector.constant(space, c) for c in corners)
        )
        res = argmin(f, box)
        for k in range(4):
            want_v, want_x = oracles.argmin_pl(
                corners, slope[k][None, :], np.zeros(1)
            )
            if (
                abs(float(res.value.values[k]) - want_v) > 1e-7
                or np.linalg.norm(res.minimizer.values[k] - want_x) > 1e-7
                or np.linalg.norm(res.minimizer.values[k] - corners[k]) > 1e-7
            ):
                strat_bad += 1
    ok = worst_gap <= 1e-7 and strat_bad == 0
    record_acceptance(
        9,
        "constrained minimization matches vertex enumeration per atom",
        ok,
        f"value gap {worst_gap:.2e}, {strat_bad} stratified misses",
    )


def test_10_infconv_exact_and_additive(rng):
    pairs, bad_nodes, worst_add = 50, 0, 0.0
    step = 0.1
    grid = Grid((-2.0,), (2.0,), (step,))
    xs = grid.axis(0)
    n = len(xs)
    q = 20
    dual = Grid((-4.0,), (4.0,), (0.5,))
    inside = np.abs(xs) <= 0.9 + 1e-12
    for _ in range(pairs):
        space = random_space(rng, 4)
        K = space.natoms
        fns = []
        for _ in range(2):
            vals = np.where(inside[None, :], rng.uniform(-1.0, 1.0, (K, n)), np.inf)
            fns.append(GridFn(space, grid, vals))
        res = inf_convolution(fns)
        for k in range(K):
            want, _ = oracles.brute_infconv(fns[0].values[k], fns[1].values[k], q)
            if not np.array_equal(res.value.values[k], want):
                bad_nodes += 1
        lhs = conjugate(res.value, dual).values
        rhs = conjugate(fns[0], dual).values + conjugate(fns[1], dual).values
        worst_add = max(worst_add, float(np.abs(lhs - rhs).max()))
        delta = np.where(xs[None, :] == 0.0, 0.0, np.inf) * np.ones((K, 1))
        neutral = inf_convolution([fns[0], GridFn(space, grid, delta)])
        if not np.array_equal(neutral.value.values, fns[0].values):
            bad_nodes += 1
    ok = bad_nodes == 0 and worst_add <= 2.0 * step
    record_acceptance(
        10,
        "inf-convolution exact, conjugate additive, neutral element fixed",
        ok,
        f"{bad_nodes} node mismatches, additivity defect {worst_add:.2e}",
    )


def test_11_subsequence_extraction(rng):
    instances, depth, slack = 100, 10, 0.05
    T = 200
    bad_match, bad_monotone, worst_drift = 0, 0, 0.0
    for _ in range(instances):
        space = random_space(rng, 4)
        K = space.natoms
        d = int(rng.integers(1, 5))
        base = rng.standard_normal((K, d))
        data = np.empty((T, K, d))
        noise = np.abs(rng.normal(0.0, 0.06, size=(T, K, d)))
        noise[-50:] = 0.0  # settled tail pins every stage liminf at the base
        data = base[None, :, :] + noise
        bound = CondScalar(space, np.linalg.norm(data, axis=2).max(axis=0) + 1.0)
        seq = CondSequence([CondVector(space, data[t]) for t in range(T)], bound)
        res = bw_extract(seq, depth, slack)
        idx = np.stack([r.values for r in res.indices])  # (depth, K), 1-based
        if np.any(np.diff(idx, axis=0) <= 0):
            bad_monotone += 1
        for k in range(K):
            want, _ = oracles.bw_stages(data[:, k, :], depth, slack)
            if want is None or idx[:, k].tolist() != want:
                bad_match += 1
            lims = data[:, k, :].min(axis=0)
            for t in idx[:, k]:
                drift = float(np.abs(data[t - 1, k] - lims).max())
                worst_drift = max(worst_drift, drift / (slack * d))
    ok = bad_match == 0 and bad_monotone == 0 and worst_drift <= 1.0
    record_acceptance(
        11,
        "subsequence extraction equals the classical per-atom construction",
        ok,
        f"{bad_match} index mismatches, {bad_monotone} monotonicity breaks, "
        f"liminf drift {worst_drift:.3f}x budget",
    )


CLI_SUITE = [
    ["basis", "--generators", "e1", "e2", "p"],
    ["orthonormalize", "--generators", "e1", "e2"],
    ["decompose", "--vector", "x0", "--generators", "e1"],
    ["separate", "--first", "box", "--second", "dot"],
    ["hahn-banach", "--bound", "absmax", "--subspace", "line_x", "--values", "half"],
    ["conjugate", "--function", "gabs", "--mins", "-2", "--maxs", "2", "--steps", "0.5"],
    ["fenchel-moreau", "--function", "gabs"],
    ["subgrad", "--function", "absmax", "--point", "z"],
    ["argmin", "--function", "absmax", "--set", "box"],
    ["infconv", "--functions", "gabs", "gabs", "--check"],
    ["bw", "--sequence", "osc", "--depth", "2", "--slack", "0"],
    ["cauchy", "--sequence", "osc", "--eps", "eps_wide"],
    ["bounded-test", "--set", "box"],
    ["ri-test", "--point", "z", "--set", "box"],
]


def test_12_cli_determinism(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(emit_document(scenario_doc()))
    unstable, failures = 0, 0
    for cmd in CLI_SUITE:
        argv = [cmd[0], str(path)] + cmd[1:]
        outs = []
        for _ in range(3):
            code, out = run_cli(argv)
            if code != 0:
                failures += 1
            json.loads(out)  # every run must emit a parseable document
            outs.append(out)
        if len(set(outs)) != 1:
            unstable += 1
    ok = unstable == 0 and failures == 0
    record_acceptance(
        12,
        "cli outputs are byte-identical across reruns",
        ok,
        f"{len(CLI_SUITE)} commands, {unstable} unstable, {failures} nonzero exits",
    )
