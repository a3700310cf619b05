"""Atom locality of the linear-algebra, sequence, set and max-affine ops.

Row ``k`` of every output depends on the data of atom ``k`` alone:
perturbing or permuting the other atoms leaves it bit-identical, and the
one-atom run on atom ``k`` gives the same row.  Every error names
exactly the atoms whose one-atom run fails.
"""

import numpy as np
import pytest

from stratalg import (
    AtomSetError,
    CondExtScalar,
    CondHalfspace,
    CondScalar,
    CondSequence,
    CondVector,
    ConvexSetRep,
    Grid,
    MaxAffineFn,
    MeasurableSet,
    MeasureSpace,
    OrthonormalFrame,
    StratifiedBasis,
    argmin,
    bounded_test,
    bw_extract,
    cauchy_limit,
    conjugate,
    decompose,
    differentiability_check,
    directional_derivative,
    extend_linear,
    hahn_banach_extend,
    hyperplane_normal_form,
    membership,
    nearest_pair,
    orthonormalize,
    rank_partition,
    ri_membership,
    separate,
    subdifferential,
)

D, M, T = 4, 6, 9


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def draw(rng, K):
    """Per-atom data, atom axis first: weights, a rank-deficient
    generator family, a vector, a scalar, frame images, sequence terms
    and a positive epsilon.  Atom scales span six decades, so a rule
    that reads other atoms (a shared scale, a majority vote) shows."""
    scale = 10.0 ** rng.integers(-3, 4, K)
    G = np.empty((K, M, D))
    for k in range(K):
        r = int(rng.integers(0, D + 1))
        G[k] = rng.normal(size=(M, r)) @ rng.normal(size=(r, D)) * scale[k]
        G[k, rng.random(M) < 0.2] = 0.0
    return {
        "w": rng.uniform(0.5, 2.0, K),
        "G": G,
        "x": rng.normal(size=(K, D)) * scale[:, None],
        "v": rng.normal(size=K),
        "img": rng.normal(size=(K, D, 3)),
        "S": rng.normal(size=(K, T, D)) * scale[:, None, None] / np.arange(1, T + 1)[None, :, None],
        "eps": rng.uniform(0.05, 3.0, K),
    }


def take(data, idx):
    return {name: a[idx] for name, a in data.items()}


def _gens(space, G):
    return [CondVector(space, G[:, j]) for j in range(M)]


def _frame(space, G):
    return orthonormalize(rank_partition(_gens(space, G)))


def run(op, data):
    """The op's outputs, each with the atom axis first."""
    space = MeasureSpace(data["w"])
    G = data["G"]
    if op == "rank_partition":
        basis = rank_partition(_gens(space, G))
        # atoms below a stratum carry filler pick 0, so pad to min(m, d)
        pad = min(M, D) - len(basis.picks)
        picks = np.vstack([basis.picks, np.zeros((pad, space.natoms), dtype=np.int64)])
        vecs = [v.values for v in basis.vectors] + [G[:, 0]] * pad
        return basis.labels, picks.T, np.stack(vecs, axis=1)
    if op == "orthonormalize":
        frame = _frame(space, G)
        return frame.labels, frame.rows
    if op == "decompose":
        y, z = decompose(CondVector(space, data["x"]), _frame(space, G))
        return y.values, z.values
    if op == "complement":
        comp = _frame(space, G).complement()
        return comp.labels, comp.rows
    if op == "hyperplane_normal_form":
        # atoms with a short normal stay outside the region
        region = MeasurableSet(space, np.linalg.norm(data["x"], axis=1) > 0.5)
        x0, frame = hyperplane_normal_form(
            CondVector(space, data["x"]), CondScalar(space, data["v"]), region
        )
        return x0.values, frame.rows
    if op == "extend_linear":
        frame = _frame(space, G)
        live = np.arange(D)[None, :] < frame.labels[:, None]
        imgs = np.where(live[:, :, None], data["img"], 0.0)
        f = extend_linear(frame, [CondVector(space, imgs[:, i]) for i in range(D)])
        return (f.mats,)
    seq = CondSequence([CondVector(space, data["S"][:, t]) for t in range(T)])
    if op == "cauchy_limit":
        schedule = [CondScalar(space, data["eps"]), CondScalar(space, 10 * data["eps"])]
        res = cauchy_limit(seq, schedule)
        return (res.cauchy_on.mask, *res.cuts, *res.tail_diameters)
    if op == "bw_extract":
        res = bw_extract(seq, depth=2, slack=1e5)
        return (*[i.values for i in res.indices], res.limit.values, res.stage_liminfs.values)
    raise AssertionError(op)


OPS = [
    "rank_partition",
    "orthonormalize",
    "decompose",
    "complement",
    "hyperplane_normal_form",
    "extend_linear",
    "cauchy_limit",
    "bw_extract",
]


def assert_rows_local(run, draw, op, seed, K):
    """Row ``k`` of ``run(op, data)`` survives redrawing the other atoms,
    matches the one-atom run, and permuting the atoms permutes the rows."""
    rng = np.random.default_rng(seed)
    data = draw(rng, K)
    base = run(op, data)
    for k in range(K):
        other = draw(rng, K)
        for name in other:
            other[name][k] = data[name][k]
        for got, want in zip(run(op, other), base):
            assert same_bits(got[k], want[k]), (op, k)
        for got, want in zip(run(op, take(data, [k])), base):
            assert same_bits(got[0], want[k]), (op, k)
    perm = rng.permutation(K)
    for got, want in zip(run(op, take(data, perm)), base):
        assert same_bits(got, want[perm]), op


@pytest.mark.parametrize("op", OPS)
def test_other_atoms_do_not_reach_row_k(op):
    assert_rows_local(run, draw, op, OPS.index(op), K=10)


def _seq(space, S):
    return CondSequence([CondVector(space, S[:, t]) for t in range(S.shape[1])])


def failing(op, data):
    """The op on data broken on the atoms with a positive scalar ``v``."""
    space = MeasureSpace(data["w"])
    bad = data["v"] > 0
    if op == "orthonormalize":
        # the first generator claimed twice: dependent where the label is 2
        basis = rank_partition(_gens(space, data["G"]))
        v = CondVector(space, data["G"][:, 0])
        labels = 2 * bad.astype(np.int64)
        fake = StratifiedBasis(space, D, labels, (v, v), basis.picks, basis.generators)
        return lambda: orthonormalize(fake)
    if op == "hyperplane_normal_form":
        z = CondVector(space, np.where(bad[:, None], 0.0, data["x"]))
        return lambda: hyperplane_normal_form(z, CondScalar(space, data["v"]))
    if op == "extend_linear":
        # images on every frame vector, also the complement directions
        frame = _frame(space, data["G"])
        frame = OrthonormalFrame(space, D, np.where(bad, 0, D), frame.rows)
        imgs = [CondVector(space, data["img"][:, i]) for i in range(D)]
        return lambda: extend_linear(frame, imgs)
    if op == "cauchy_limit":
        eps = CondScalar(space, np.where(bad, -data["eps"], data["eps"]))
        return lambda: cauchy_limit(_seq(space, data["S"]), [eps])
    if op == "bw_extract":
        # a unique minimum in the first coordinate leaves one survivor at
        # zero slack; elsewhere every term is the same
        ramp = np.broadcast_to(np.arange(T, dtype=float)[None, :, None], data["S"].shape)
        S = np.where(bad[:, None, None], ramp, data["S"][:, :1])
        return lambda: bw_extract(_seq(space, S), depth=2, slack=0.0)
    raise AssertionError(op)


@pytest.mark.parametrize(
    "op",
    ["orthonormalize", "hyperplane_normal_form", "extend_linear", "cauchy_limit", "bw_extract"],
)
def test_error_mask_is_the_union_of_per_atom_verdicts(op):
    rng = np.random.default_rng(100 + OPS.index(op))
    K = 12
    for _ in range(3):
        data = draw(rng, K)
        verdicts = []
        for k in range(K):
            try:
                failing(op, take(data, [k]))()
                verdicts.append(False)
            except AtomSetError as err:
                assert err.atoms.tolist() == [True], op
                verdicts.append(True)
        assert verdicts == (data["v"] > 0).tolist(), op
        with pytest.raises(AtomSetError) as err:
            failing(op, data)()
        assert err.value.atoms.tolist() == verdicts, op


# set and max-affine ops ----------------------------------------------------

DS, NP, J = 2, 4, 4


def draw_sets(rng, K):
    """Per-atom data for the set and max-affine ops, atom axis first.

    Two polytopes ``C`` and ``D`` that overlap, touch at a vertex or stay
    apart, ``C`` flat on some atoms; a ray of ``C``, zero on some atoms;
    a point ``x`` inside, on the boundary of or away from ``C``; slopes
    with one, two or all pieces tied at ``x``; a direction; extension
    data on a subspace of rank 0 to 2; a halfspace with gaps over ten
    decades; and pairs of values equal up to a tiny relative gap.  Atom
    scales span six decades, as in ``draw``."""
    s = 10.0 ** rng.integers(-3, 4, K)
    s2, s3 = s[:, None], s[:, None, None]
    C = rng.normal(size=(K, NP, DS)) * s3
    flat = rng.random(K) < 0.3
    C[flat] = C[flat, :1] + rng.normal(size=(flat.sum(), NP, 1)) * C[flat, 1:2]
    shift = rng.normal(size=(K, DS)) * rng.choice([0.0, 1.0, 4.0], K)[:, None]
    D = (rng.normal(size=(K, NP, DS)) + shift[:, None, :]) * s3
    touch = rng.random(K) < 0.3
    D[touch, 0] = C[touch, 0]
    ray = rng.normal(size=(K, 1, DS)) * s3 * (rng.random((K, 1, 1)) < 0.5)
    lam = rng.dirichlet(np.ones(NP), K)
    where = rng.integers(0, 3, K)
    x = np.where((where == 0)[:, None], np.einsum("kn,knd->kd", lam, C),
                 np.where((where == 1)[:, None], C[:, 0], 5.0 * rng.normal(size=(K, DS)) * s2))
    Y = rng.normal(size=(K, J, DS)) * s3
    tied = rng.choice([1, 2, J], K)
    drop = np.where(np.arange(J)[None, :] < tied[:, None], 0.0, rng.uniform(0.5, 1.5, (K, J)))
    L = np.zeros((K, 2, DS))
    rank = rng.integers(0, 3, K)
    for k in range(K):
        L[k] = rng.normal(size=(2, rank[k])) @ rng.normal(size=(rank[k], DS)) * s[k]
    N = rng.normal(size=(K, DS)) * s2
    p = rng.normal(size=(K, DS)) * s2
    gap = rng.choice([-1.0, -1.0, 0.0, 1.0], K) * 10.0 ** rng.uniform(-10, -4, K) * np.maximum(1.0, s**2)
    a = rng.normal(size=(K, DS)) * s2
    ea = np.where(rng.random(K) < 0.2, np.inf, rng.normal(size=K) * s)
    return {
        "w": rng.uniform(0.5, 2.0, K),
        "C": C, "D": D, "ray": ray, "x": x, "Y": Y,
        "Z": -np.einsum("kd,kjd->kj", x, Y) - drop * s2,
        "u": rng.normal(size=(K, DS)) * s2,
        "L": L, "mix": rng.dirichlet(np.ones(J), K),
        "N": N, "p": p, "off": np.einsum("kd,kd->k", p, N) - gap,
        "support": rng.random(K) < 0.8,
        "a": a, "b": a * (1.0 + rng.choice([-1.0, 1.0], (K, DS)) * 10.0 ** rng.uniform(-16, -8, (K, DS))),
        "ea": ea, "eb": ea + rng.normal(size=K) * 10.0 ** rng.uniform(-16, -6, K) * s,
    }


def _family(space, A):
    return [CondVector(space, A[:, i]) for i in range(A.shape[1])]


def _fn(space, Y, Z, domain=None):
    pieces = zip(_family(space, Y), (CondScalar(space, Z[:, j]) for j in range(Z.shape[1])))
    return MaxAffineFn.from_pieces(pieces, domain)


def _separation(res):
    out = [res.normal.values, res.gap.values, res.failure_set.mask]
    return out + [r.values for r in (res.strict_excess, res.distance) if r is not None]


def run_sets(op, data):
    """The op's outputs, each with the atom axis first."""
    space = MeasureSpace(data["w"])
    C = ConvexSetRep(space, DS, _family(space, data["C"]), _family(space, data["ray"]))
    D = ConvexSetRep(space, DS, _family(space, data["D"]))
    x = CondVector(space, data["x"])
    f = _fn(space, data["Y"], data["Z"])
    if op.startswith("separate_"):
        return _separation(separate(C, D, kind=op[len("separate_"):]))
    if op == "nearest_pair":
        return tuple(v.values for v in nearest_pair(C, D))
    if op == "nearest_pair_discrete":
        # a finite set on either side: C's points against D, C against D's
        Cd = ConvexSetRep(space, DS, data["C"], discrete=True)
        Dd = ConvexSetRep(space, DS, data["D"], discrete=True)
        return tuple(v.values for pair in (nearest_pair(Cd, D), nearest_pair(C, Dd)) for v in pair)
    if op.startswith("ri_membership_"):
        return (ri_membership(x, C, mode=op[len("ri_membership_"):]).mask,)
    if op == "argmin":
        res = argmin(f, ConvexSetRep(space, DS, _family(space, data["C"])))
        return res.minimizer.values, res.value.values, res.unique_set.mask
    if op == "hahn_banach_extend":
        zero = CondVector.zero(space, DS)
        e = ConvexSetRep(space, DS, [zero], lines=_family(space, data["L"]))
        frame = orthonormalize(rank_partition(_family(space, data["L"])))
        # the frame values of a point in the slope hull, so dominated by p
        h = np.einsum("kj,kjd->kd", data["mix"], data["Y"])
        vals = np.einsum("kid,kd->ki", frame.rows, h)
        vals[np.arange(DS)[None, :] >= frame.labels[:, None]] = 0.0
        p = _fn(space, data["Y"], np.zeros((space.natoms, J)))
        imgs = [CondScalar(space, vals[:, i]) for i in range(DS)]
        return (hahn_banach_extend(p, e, imgs).values,)
    if op == "subdifferential":
        res = subdifferential(f, x)
        return res.active, res.representative.values
    if op == "differentiability_check":
        ok, grad = differentiability_check(f, x)
        return ok.mask, grad.values
    if op == "conjugate_max_affine":
        g = _fn(space, data["Y"], data["Z"], domain=D)
        return (conjugate(g, Grid((-2.0, -1.0), (2.0, 1.0), (2.0, 1.0))).values,)
    if op == "directional_derivative":
        return (directional_derivative(f, x, CondVector(space, data["u"])).values,)
    if op.startswith("halfspace_"):
        hs = CondHalfspace(CondVector(space, data["N"]), CondScalar(space, data["off"]),
                           MeasurableSet(space, data["support"]))
        return (getattr(hs, op[len("halfspace_"):])(CondVector(space, data["p"])).mask,)
    if op == "eq_set":
        return (CondVector(space, data["a"]).eq_set(CondVector(space, data["b"])).mask,
                CondExtScalar(space, data["ea"]).eq_set(CondExtScalar(space, data["eb"])).mask)
    raise AssertionError(op)


SET_OPS = [
    "separate_strong",
    "separate_weak",
    "separate_proper",
    "nearest_pair",
    "ri_membership_interior",
    "ri_membership_relative",
    "argmin",
    "hahn_banach_extend",
    "subdifferential",
    "differentiability_check",
    "conjugate_max_affine",
    "directional_derivative",
    "halfspace_contains",
    "halfspace_boundary_contains",
    "eq_set",
    "nearest_pair_discrete",
]


@pytest.mark.parametrize("op", SET_OPS)
def test_set_and_function_rows_are_local(op):
    assert_rows_local(run_sets, draw_sets, op, 200 + SET_OPS.index(op), K=8)


# ops that scale the membership tolerance ----------------------------------


def draw_members(rng, K):
    """``draw_sets`` plus ``xn``, a vertex of ``C`` moved by 1e-11 to 1e-5
    of its atom's scale, so whether it counts as a member turns on the
    scale of the membership tolerance."""
    data = draw_sets(rng, K)
    s = np.maximum(1.0, np.abs(data["C"]).max(axis=(1, 2)))
    step = rng.normal(size=(K, DS)) * (10.0 ** rng.uniform(-11, -5, K) * s)[:, None]
    data["xn"] = data["C"][:, 0] + step
    return data


def run_members(op, data):
    space = MeasureSpace(data["w"])
    C = ConvexSetRep(space, DS, data["C"], data["ray"])
    xn = CondVector(space, data["xn"])
    if op == "membership":
        return (membership(xn, C).mask,)
    if op == "membership_discrete":
        return (membership(xn, ConvexSetRep(space, DS, data["C"], discrete=True)).mask,)
    if op == "eval_with_domain":
        return (_fn(space, data["Y"], data["Z"], domain=C).eval(xn).values,)
    if op == "bounded_test":
        # the origin is the centroid of the points, inside on every atom
        centred = data["C"] - data["C"].mean(axis=1, keepdims=True)
        bounded, witness = bounded_test(ConvexSetRep(space, DS, centred, data["ray"]))
        return bounded.mask, witness.values
    raise AssertionError(op)


MEMBER_OPS = ["membership", "membership_discrete", "eval_with_domain", "bounded_test"]


@pytest.mark.parametrize("op", MEMBER_OPS)
def test_member_tolerance_rows_are_local(op):
    assert_rows_local(run_members, draw_members, op, 300 + MEMBER_OPS.index(op), K=12)


def test_bounded_test_error_mask_is_the_union_of_per_atom_verdicts():
    def near_origin(data):
        # the origin sits next to a vertex of the set, in or out by a hair
        space = MeasureSpace(data["w"])
        rep = ConvexSetRep(space, DS, data["C"] - data["xn"][:, None, :], data["ray"])
        return lambda: bounded_test(rep)

    rng = np.random.default_rng(310)
    K, mixed = 12, 0
    for _ in range(3):
        data = draw_members(rng, K)
        verdicts = []
        for k in range(K):
            try:
                near_origin(take(data, [k]))()
                verdicts.append(False)
            except AtomSetError as err:
                assert err.atoms.tolist() == [True]
                verdicts.append(True)
        mixed += 0 < sum(verdicts) < K
        if any(verdicts):
            with pytest.raises(AtomSetError) as err:
                near_origin(data)()
            assert err.value.atoms.tolist() == verdicts
        else:
            near_origin(data)()
    assert mixed
