"""One table of the public ops, shared by the invariant tests.

Each entry of ``OPS`` says how to run one op variant on per-atom data:

- ``draw(rng, K)``: the data, atom axis first, with the weights under
  ``"w"``;
- ``K`` and ``seed``: the locality test's atom count and seed, written
  out so that adding an entry moves no other entry's data;
- ``build(space, data)``: the op's conditional arguments on ``space``;
- ``call(*args)``: the op's outputs by name, atom axis first.  Arguments
  that are not conditional (kind strings, dual grids, depths) stay
  inside ``call``;
- ``failing(space, data)``, optional: arguments on which ``call`` raises
  an ``AtomSetError`` on some atoms.

``assert_rows_local`` is the one locality harness.  The locality tests
(``test_atom_locality`` and ``test_functions.TestGridAtomLocality``),
the error-mask test and the space-contract and coverage tests
(``test_space_contract``) all iterate over this table.
"""

from typing import Callable, NamedTuple, Optional

import numpy as np

from stratalg import (
    AtomSetError,
    CondExtScalar,
    CondHalfspace,
    CondInteger,
    CondScalar,
    CondSequence,
    CondVector,
    ConvexSetRep,
    Grid,
    GridFn,
    MaxAffineFn,
    MeasurableSet,
    MeasureSpace,
    OrthonormalFrame,
    StratifiedBasis,
    argmin,
    bounded_subgradient,
    bounded_test,
    bw_extract,
    cauchy_limit,
    conjugate,
    decompose,
    differentiability_check,
    directional_derivative,
    ess_extrema,
    extend_linear,
    fenchel_moreau_check,
    glue,
    hahn_banach_extend,
    hull,
    hyperplane_normal_form,
    inf_convolution,
    infconv_checks,
    inner_norm,
    linear_map_norm,
    membership,
    nearest_pair,
    orthonormalize,
    rank_partition,
    ri_membership,
    select_by_index,
    separate,
    subdifferential,
    sublinear_support,
)


class Op(NamedTuple):
    draw: Callable
    K: int
    seed: int
    build: Callable
    call: Callable
    failing: Optional[Callable] = None


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def take(data, idx):
    return {name: a[idx] for name, a in data.items()}


def run(op, data):
    return op.call(*op.build(MeasureSpace(data["w"]), data))


def assert_rows_local(op):
    """Row ``k`` of every output survives redrawing the other atoms and
    matches the one-atom run on atom ``k``, and permuting the atoms
    permutes the rows."""
    rng = np.random.default_rng(op.seed)
    data = op.draw(rng, op.K)
    base = run(op, data)
    for k in range(op.K):
        other = op.draw(rng, op.K)
        for name in other:
            other[name][k] = data[name][k]
        for name, got in run(op, other).items():
            assert same_bits(got[k], base[name][k]), (name, k)
        for name, got in run(op, take(data, [k])).items():
            assert same_bits(got[0], base[name][k]), (name, k)
    perm = rng.permutation(op.K)
    for name, got in run(op, take(data, perm)).items():
        assert same_bits(got, base[name][perm]), name


def drawn_by(draw):
    return [name for name, op in OPS.items() if op.draw is draw]


def error_atoms(op, data):
    """The atoms named by the ``AtomSetError`` that ``call`` raises on
    ``failing``'s arguments, or ``None`` when it returns."""
    try:
        op.call(*op.failing(MeasureSpace(data["w"]), data))
    except AtomSetError as err:
        return err.atoms.tolist()
    return None


def _family(space, A):
    return [CondVector(space, A[:, i]) for i in range(A.shape[1])]


# linear algebra, sequences and the core ops ----------------------------------

D, M, T = 4, 6, 9


def draw_linalg(rng, K):
    """Weights, a rank-deficient generator family, a vector, a scalar,
    frame images, sequence terms and a positive epsilon.  Atom scales
    span six decades, so a rule that reads other atoms (a shared scale,
    a majority vote) shows."""
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


def _frame(space, data):
    return orthonormalize(rank_partition(_family(space, data["G"])))


def _seq(space, S):
    return CondSequence(_family(space, S))


def _level(data):
    """A per-atom label in 0..2, read off the atom's own data."""
    return (data["v"] > 0).astype(np.int64) + (data["eps"] > 1.5)


def _rank_partition(*gens):
    basis = rank_partition(gens)
    # atoms below a stratum carry filler pick 0, so pad to min(m, d)
    pad = min(M, D) - len(basis.picks)
    picks = np.vstack([basis.picks, np.zeros((pad, basis.space.natoms), dtype=np.int64)])
    vecs = [v.values for v in basis.vectors] + [gens[0].values] * pad
    return {"labels": basis.labels, "picks": picks.T, "vectors": np.stack(vecs, axis=1)}


def _orthonormalize(basis):
    frame = orthonormalize(basis)
    return {"labels": frame.labels, "rows": frame.rows}


def _fake_basis(space, data):
    # the first generator claimed twice: dependent where the label is 2
    basis = rank_partition(_family(space, data["G"]))
    v = CondVector(space, data["G"][:, 0])
    labels = 2 * (data["v"] > 0).astype(np.int64)
    return (StratifiedBasis(space, D, labels, (v, v), basis.picks, basis.generators),)


def _decompose(x, frame):
    y, z = decompose(x, frame)
    return {"y": y.values, "z": z.values}


def _complement(frame):
    comp = OrthonormalFrame.complement(frame)
    return {"labels": comp.labels, "rows": comp.rows}


def _normal_form_args(space, data):
    # atoms with a short normal stay outside the region
    region = MeasurableSet(space, np.linalg.norm(data["x"], axis=1) > 0.5)
    return CondVector(space, data["x"]), CondScalar(space, data["v"]), region


def _normal_form(z, v, region=None):
    x0, frame = hyperplane_normal_form(z, v, region)
    return {"x0": x0.values, "rows": frame.rows}


def _vanishing_normal(space, data):
    z = np.where((data["v"] > 0)[:, None], 0.0, data["x"])
    return CondVector(space, z), CondScalar(space, data["v"])


def _extension_args(space, data):
    frame = _frame(space, data)
    live = np.arange(D)[None, :] < frame.labels[:, None]
    return (frame, *_family(space, np.where(live[:, :, None], data["img"], 0.0)))


def _extend_linear(frame, *imgs):
    return {"mats": extend_linear(frame, imgs).mats}


def _images_on_complement(space, data):
    # two images, on frames of rank 2 where v <= 0; where v > 0 a frame of
    # rank D leaves directions unspecified (eps > 1.5) or one of rank 0
    # puts both images on complement directions
    labels = np.where(data["v"] > 0, np.where(data["eps"] > 1.5, D, 0), 2)
    frame = OrthonormalFrame(space, D, labels, _frame(space, data).rows)
    return (frame, *_family(space, data["img"][:, :2]))


def _cauchy_limit(seq, *schedule):
    res = cauchy_limit(seq, schedule)
    cuts = {f"cut{j}": c for j, c in enumerate(res.cuts)}
    diams = {f"diameter{j}": t for j, t in enumerate(res.tail_diameters)}
    return {"cauchy_on": res.cauchy_on.mask, **cuts, **diams}


def _negative_epsilon(space, data):
    eps = CondScalar(space, np.where(data["v"] > 0, -data["eps"], data["eps"]))
    return _seq(space, data["S"]), eps


def _bw_extract(*terms):
    res = bw_extract(CondSequence(terms), depth=2, slack=1e5)
    indices = {f"index{j}": i.values for j, i in enumerate(res.indices)}
    return {**indices, "limit": res.limit.values, "liminfs": res.stage_liminfs.values}


def _one_survivor(space, data):
    # a ramp in steps of 1e6 leaves one survivor within the slack of 1e5;
    # elsewhere every term is the same
    ramp = np.broadcast_to(1e6 * np.arange(T)[None, :, None], data["S"].shape)
    return _family(space, np.where((data["v"] > 0)[:, None, None], ramp, data["S"][:, :1]))


def _glue_args(space, data):
    level = _level(data)
    parts = [MeasurableSet(space, level == n) for n in range(3)]
    return (*parts, *_family(space, data["G"][:, :3]))


def _glue(*args):
    return {"value": glue(args[:3], args[3:]).values}


def _select_by_index(*args):
    return {"value": select_by_index(args[:-1], args[-1]).values}


def _ess_extrema(*family):
    return {"sup": ess_extrema(family, "sup").values, "inf": ess_extrema(family, "inf").values}


def _inner_norm(x, y):
    inner, norm = inner_norm(x, y)
    return {"inner": inner.values, "norm": norm.values}


def _linear_map(space, data):
    frame, *imgs = _extension_args(space, data)
    return (extend_linear(frame, imgs),)


def _hull(*gens):
    out = {}
    for kind in ("stable", "sigma", "convex", "cone", "affine", "linear"):
        rep = hull(gens, kind)
        out.update({f"{kind}_points": rep.points, f"{kind}_rays": rep.rays,
                    f"{kind}_lines": rep.lines})
    return out


LINALG = {
    "rank_partition": Op(draw_linalg, 10, 0, lambda s, d: _family(s, d["G"]), _rank_partition),
    "orthonormalize": Op(draw_linalg, 10, 1, lambda s, d: (rank_partition(_family(s, d["G"])),),
                         _orthonormalize, _fake_basis),
    "decompose": Op(draw_linalg, 10, 2, lambda s, d: (CondVector(s, d["x"]), _frame(s, d)),
                    _decompose),
    "complement": Op(draw_linalg, 10, 3, lambda s, d: (_frame(s, d),), _complement),
    "hyperplane_normal_form": Op(draw_linalg, 10, 4, _normal_form_args, _normal_form,
                                 _vanishing_normal),
    "extend_linear": Op(draw_linalg, 10, 5, _extension_args, _extend_linear,
                        _images_on_complement),
    "cauchy_limit": Op(draw_linalg, 10, 6,
                       lambda s, d: (_seq(s, d["S"]), CondScalar(s, d["eps"]),
                                     CondScalar(s, 10 * d["eps"])),
                       _cauchy_limit, _negative_epsilon),
    "bw_extract": Op(draw_linalg, 10, 7, lambda s, d: _family(s, d["S"]), _bw_extract,
                     _one_survivor),
    "glue": Op(draw_linalg, 10, 8, _glue_args, _glue),
    "select_by_index": Op(draw_linalg, 10, 9,
                          lambda s, d: (*_family(s, d["G"][:, :3]),
                                        CondInteger(s, 1 + _level(d))),
                          _select_by_index),
    "ess_extrema": Op(draw_linalg, 10, 10,
                      lambda s, d: (CondScalar(s, d["v"]), CondScalar(s, d["eps"]),
                                    CondExtScalar(s, d["S"][:, 0, 0])),
                      _ess_extrema),
    "inner_norm": Op(draw_linalg, 10, 11,
                     lambda s, d: (CondVector(s, d["x"]), CondVector(s, d["G"][:, 0])),
                     _inner_norm),
    "linear_map_norm": Op(draw_linalg, 10, 12, _linear_map,
                          lambda f: {"norm": linear_map_norm(f).values}),
    "hull": Op(draw_linalg, 10, 13, lambda s, d: _family(s, d["G"]), _hull),
}


# sets and max-affine functions ----------------------------------------------

DS, NP, J = 2, 4, 4
GRID2 = Grid((-2.0, -1.0), (2.0, 1.0), (2.0, 1.0))


def draw_sets(rng, K):
    """Two polytopes ``C`` and ``D`` that overlap, touch at a vertex or stay
    apart, ``C`` flat on some atoms; a ray of ``C``, zero on some atoms;
    a point ``x`` inside, on the boundary of or away from ``C``; slopes
    with one, two or all pieces tied at ``x``; a direction; extension
    data on a subspace of rank 0 to 2; a halfspace with gaps over ten
    decades; and pairs of values equal up to a tiny relative gap.  Atom
    scales span six decades, as in ``draw_linalg``."""
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


def _fn(space, data, domain=None):
    return MaxAffineFn(space, data["Y"], data["Z"], domain)


def _C(space, data):
    return ConvexSetRep(space, DS, _family(space, data["C"]), _family(space, data["ray"]))


def _D(space, data):
    return ConvexSetRep(space, DS, _family(space, data["D"]))


def _C_and_D(space, data):
    return _C(space, data), _D(space, data)


def _f_and_x(space, data):
    return _fn(space, data), CondVector(space, data["x"])


def _separate(kind):
    def call(C, D):
        res = separate(C, D, kind=kind)
        out = {"normal": res.normal.values, "gap": res.gap.values, "failure": res.failure_set.mask}
        for name in ("strict_excess", "distance"):
            if getattr(res, name) is not None:
                out[name] = getattr(res, name).values
        return out
    return call


def _nearest_pair(C, D):
    c, d, dist = nearest_pair(C, D)
    return {"c": c.values, "d": d.values, "distance": dist.values}


def _nearest_pair_discrete(C, D, Cd, Dd):
    # a finite set on either side: C's points against D, C against D's
    pairs = (nearest_pair(Cd, D), nearest_pair(C, Dd))
    return {f"{name}{i}": v.values for i, pair in enumerate(pairs)
            for name, v in zip(("c", "d", "distance"), pair)}


def _discrete_pairs(space, data):
    return (_C(space, data), _D(space, data),
            ConvexSetRep(space, DS, data["C"], discrete=True),
            ConvexSetRep(space, DS, data["D"], discrete=True))


def _ri_membership(mode):
    return lambda x, C: {"in": ri_membership(x, C, mode=mode).mask}


def _point_and_C(space, data):
    return CondVector(space, data["x"]), _C(space, data)


def _argmin(f, C):
    res = argmin(f, C)
    return {"minimizer": res.minimizer.values, "value": res.value.values,
            "unique": res.unique_set.mask}


def _unbounded(space, data):
    # f decreases along C's ray wherever the ray is not zero
    f = MaxAffineFn(space, -data["ray"], np.zeros((space.natoms, 1)))
    return f, _C(space, data)


def _scalars(space, A):
    return [CondScalar(space, A[:, i]) for i in range(A.shape[1])]


def _extension_data(space, data, excess=None):
    zero = CondVector.zero(space, DS)
    e = ConvexSetRep(space, DS, [zero], lines=_family(space, data["L"]))
    frame = orthonormalize(rank_partition(_family(space, data["L"])))
    # the frame values of a point in the slope hull, so dominated by p
    h = np.einsum("kj,kjd->kd", data["mix"], data["Y"])
    vals = np.einsum("kid,kd->ki", frame.rows, h)
    if excess is not None:
        vals += excess
    vals[np.arange(DS)[None, :] >= frame.labels[:, None]] = 0.0
    p = MaxAffineFn(space, data["Y"], np.zeros((space.natoms, J)))
    return (p, e, *_scalars(space, vals))


def _hahn_banach_extend(p, e, *imgs):
    return {"values": hahn_banach_extend(p, e, imgs).values}


def _beyond_the_bound(space, data):
    # frame values far outside the slope hull, where the frame is not empty
    return _extension_data(space, data, 10.0 * np.abs(data["Y"]).max(axis=(1, 2))[:, None] + 1.0)


def _mixed_failures(space, data):
    # nonzero offsets where the halfspace support is off; elsewhere values
    # beyond the bound on a frame of rank 1 and none for a rank-2 frame's
    # second vector
    _, e, first, _ = _beyond_the_bound(space, data)
    return (*_offsets(space, data), e, first)


def _subdifferential(f, x):
    res = subdifferential(f, x)
    return {"active": res.active, "representative": res.representative.values}


def _off_the_domain(space, data):
    # f with domain D; x is in, on or away from C, so off D on some atoms
    return _fn(space, data, _D(space, data)), CondVector(space, data["x"])


def _differentiability_check(f, x):
    ok, grad = differentiability_check(f, x)
    return {"ok": ok.mask, "gradient": grad.values}


def _conjugate_max_affine(f, dom):
    return {"values": conjugate(MaxAffineFn(f.space, f.slopes, f.offsets, dom), GRID2).values}


def _directional_derivative(f, x, u):
    return {"value": directional_derivative(f, x, u).values}


def _halfspace_args(space, data, N=None):
    N = data["N"] if N is None else N
    return (CondVector(space, N), CondScalar(space, data["off"]),
            MeasurableSet(space, data["support"]), CondVector(space, data["p"]))


def _contains(N, off, support, p):
    return {"in": CondHalfspace(N, off, support).contains(p).mask}


def _boundary_contains(N, off, support, p):
    return {"on": CondHalfspace(N, off, support).boundary_contains(p).mask}


def _vanishing_halfspace_normal(space, data):
    return _halfspace_args(space, data, np.where(data["p"][:, :1] > 0, 0.0, data["N"]))


def _eq_set(a, b, ea, eb):
    return {"vector": CondVector.eq_set(a, b).mask, "ext": CondExtScalar.eq_set(ea, eb).mask}


def _growth_bound(data):
    return 2.0 * np.linalg.norm(data["Y"], axis=2).max(axis=1)


def _bounded_subgradient(f, x, v):
    return {"subgradient": bounded_subgradient(f, x, v).values}


def _off_the_domain_or_growth_too_small(space, data):
    # x off f's domain D on some atoms, as in _off_the_domain; a bound far
    # below the slopes' length where the halfspace support is off
    v = _growth_bound(data) * np.where(data["support"], 1.0, 1e-6)
    return (*_off_the_domain(space, data), CondScalar(space, v))


def _sublinear_support(f):
    return {f"slope{j}": g.values for j, g in enumerate(sublinear_support(f))}


def _offsets(space, data):
    # nonzero offsets where the halfspace support is off
    Z = np.where(data["support"][:, None], 0.0, 1.0 + np.abs(data["Z"]))
    return (MaxAffineFn(space, data["Y"], Z),)


SETS = {
    **{f"separate_{kind}": Op(draw_sets, 8, seed, _C_and_D, _separate(kind))
       for seed, kind in ((200, "strong"), (201, "weak"), (202, "proper"))},
    "nearest_pair": Op(draw_sets, 8, 203, _C_and_D, _nearest_pair),
    "ri_membership_interior": Op(draw_sets, 8, 204, _point_and_C, _ri_membership("interior")),
    "ri_membership_relative": Op(draw_sets, 8, 205, _point_and_C, _ri_membership("relative")),
    "argmin": Op(draw_sets, 8, 206,
                 lambda s, d: (_fn(s, d), ConvexSetRep(s, DS, _family(s, d["C"]))),
                 _argmin, _unbounded),
    "hahn_banach_extend": Op(draw_sets, 8, 207, _extension_data, _hahn_banach_extend,
                             _mixed_failures),
    "subdifferential": Op(draw_sets, 8, 208, _f_and_x, _subdifferential, _off_the_domain),
    "differentiability_check": Op(draw_sets, 8, 209, _f_and_x, _differentiability_check),
    "conjugate_max_affine": Op(draw_sets, 8, 210, lambda s, d: (_fn(s, d), _D(s, d)),
                               _conjugate_max_affine),
    "directional_derivative": Op(draw_sets, 8, 211,
                                 lambda s, d: (*_f_and_x(s, d), CondVector(s, d["u"])),
                                 _directional_derivative,
                                 lambda s, d: (*_off_the_domain(s, d), CondVector(s, d["u"]))),
    "halfspace_contains": Op(draw_sets, 8, 212, _halfspace_args, _contains,
                             _vanishing_halfspace_normal),
    "halfspace_boundary_contains": Op(draw_sets, 8, 213, _halfspace_args, _boundary_contains),
    "eq_set": Op(draw_sets, 8, 214,
                 lambda s, d: (CondVector(s, d["a"]), CondVector(s, d["b"]),
                               CondExtScalar(s, d["ea"]), CondExtScalar(s, d["eb"])),
                 _eq_set),
    "nearest_pair_discrete": Op(draw_sets, 8, 215, _discrete_pairs, _nearest_pair_discrete),
    "bounded_subgradient": Op(draw_sets, 8, 216,
                              lambda s, d: (*_f_and_x(s, d), CondScalar(s, _growth_bound(d))),
                              _bounded_subgradient, _off_the_domain_or_growth_too_small),
    "sublinear_support": Op(draw_sets, 8, 217,
                            lambda s, d: (MaxAffineFn(s, d["Y"], np.zeros((s.natoms, J))),),
                            _sublinear_support, _offsets),
}


# ops that scale the membership tolerance --------------------------------------


def draw_members(rng, K):
    """``draw_sets`` plus ``xn``, a vertex of ``C`` moved by 1e-11 to 1e-5
    of its atom's scale, so whether it counts as a member turns on the
    scale of the membership tolerance."""
    data = draw_sets(rng, K)
    s = np.maximum(1.0, np.abs(data["C"]).max(axis=(1, 2)))
    step = rng.normal(size=(K, DS)) * (10.0 ** rng.uniform(-11, -5, K) * s)[:, None]
    data["xn"] = data["C"][:, 0] + step
    return data


def _eval_with_domain(f, dom, x):
    return {"value": MaxAffineFn(f.space, f.slopes, f.offsets, dom).eval(x).values}


def _member_C(space, data):
    return ConvexSetRep(space, DS, data["C"], data["ray"])


def _bounded_test(rep):
    bounded, witness = bounded_test(rep)
    return {"bounded": bounded.mask, "witness": witness.values}


def _near_origin(space, data):
    # the origin sits next to a vertex of the set, in or out by a hair
    return (ConvexSetRep(space, DS, data["C"] - data["xn"][:, None, :], data["ray"]),)


def _centred(space, data):
    # the origin is the centroid of the points, inside on every atom
    centred = data["C"] - data["C"].mean(axis=1, keepdims=True)
    return (ConvexSetRep(space, DS, centred, data["ray"]),)


MEMBERS = {
    "membership": Op(draw_members, 12, 300,
                     lambda s, d: (CondVector(s, d["xn"]), _member_C(s, d)),
                     lambda x, C: {"in": membership(x, C).mask}),
    "membership_discrete": Op(draw_members, 12, 301,
                              lambda s, d: (CondVector(s, d["xn"]),
                                            ConvexSetRep(s, DS, d["C"], discrete=True)),
                              lambda x, C: {"in": membership(x, C).mask}),
    "eval_with_domain": Op(draw_members, 12, 302,
                           lambda s, d: (_fn(s, d), _member_C(s, d), CondVector(s, d["xn"])),
                           _eval_with_domain),
    "bounded_test": Op(draw_members, 12, 303, _centred, _bounded_test, _near_origin),
}


# grid functions ---------------------------------------------------------------

PRIMAL = Grid((-2.0,), (2.0,), (0.25,))  # 17 nodes
DUAL = Grid((-4.0,), (4.0,), (0.125,))
GRID_SEED = 20260815


def seeded_rows(rng, K, xs):
    """Convex, non-convex, ``+inf``-carrier and integer rows in turn.

    The convex and integer rows sit on a dyadic grid, so their conjugate
    chains hit exact ties, ``0.0`` against ``-0.0`` among them.
    """
    n = len(xs)
    V = np.empty((K, n))
    for k in range(K):
        kind = k % 4
        if kind == 0:
            V[k] = (1 + k % 3) * xs**2 + (k % 2) * xs
        elif kind == 1:
            V[k] = rng.normal(size=n)
        elif kind == 2:
            lo = int(rng.integers(0, n // 2))
            hi = int(rng.integers(lo + 2, n + 1))
            V[k] = np.where((np.arange(n) >= lo) & (np.arange(n) < hi), np.abs(xs), np.inf)
        else:
            V[k] = rng.integers(-2, 3, size=n).astype(float)
    return V


def draw_grid(rng, K):
    """Unit weights, two stacks of ``seeded_rows`` on ``PRIMAL`` (the second
    reversed) and a point on a node or inside a cell."""
    xs = PRIMAL.axis(0)
    return {
        "w": np.ones(K),
        "V": seeded_rows(rng, K, xs),
        "W": seeded_rows(rng, K, xs)[::-1],
        "X": np.where(rng.random((K, 1)) < 0.5, rng.choice(xs, (K, 1)),
                      rng.uniform(xs[0], xs[-1], (K, 1))),
    }


def _grids(space, data, V=None):
    return (GridFn(space, PRIMAL, data["V"] if V is None else V), GridFn(space, PRIMAL, data["W"]))


def _where_right(data, a, b):
    # the atoms whose point lies right of the origin
    return np.where(data["X"] > 0, a, b)


def _fenchel_moreau(f):
    rep = fenchel_moreau_check(f, DUAL)
    return {"conjugate": rep.conjugate.values, "biconjugate": rep.biconjugate.values,
            "envelope": rep.envelope.values, "deviation": rep.max_deviation.values,
            "minorant": rep.minorant_ok.mask, "idempotent": rep.idempotent_ok.mask}


def _below_or_improper(space, data):
    # a -inf node where the point lies in (0, 1], +inf on every node right of 1
    low = np.where(np.arange(PRIMAL.shape[0]) == 3, -np.inf, data["V"])
    return _grids(space, data, np.select([data["X"] > 1.0, data["X"] > 0.0], [np.inf, low],
                                         data["V"]))[:1]


def _inf_convolution(f, g):
    res = inf_convolution([f, g])
    return {"value": res.value.values, "split0": res.split_indices[0],
            "split1": res.split_indices[1], "in_defect": res.input_convexity_defect.values,
            "out_defect": res.output_convexity_defect.values}


def _convolution_args(space, data):
    f, g = _grids(space, data)
    return f, g, inf_convolution([f, g])


def _infconv_checks(f, g, conv):
    checks = infconv_checks([f, g], conv, DUAL)
    return {"additivity": checks.additivity_defect.values, "subdiff": checks.subdiff_ok.mask,
            "interior": checks.interior_ok.mask}


GRIDS = {
    # the dual grid is passed explicitly: default_dual_grid takes its
    # width from the steepest slope over all atoms, by design
    "conjugate": Op(draw_grid, 8, GRID_SEED, lambda s, d: _grids(s, d)[:1],
                    lambda f: {"values": conjugate(f, DUAL).values},
                    # improper: +inf on every node
                    lambda s, d: _grids(s, d, _where_right(d, np.inf, d["V"]))[:1]),
    "fenchel_moreau_check": Op(draw_grid, 8, GRID_SEED, lambda s, d: _grids(s, d)[:1],
                               _fenchel_moreau, _below_or_improper),
    "inf_convolution": Op(draw_grid, 8, GRID_SEED, _grids, _inf_convolution),
    "infconv_checks": Op(draw_grid, 8, GRID_SEED, _convolution_args, _infconv_checks),
    "grid_eval": Op(draw_grid, 8, GRID_SEED,
                    lambda s, d: (_grids(s, d)[0], CondVector(s, d["X"])),
                    lambda f, x: {"value": GridFn.eval(f, x).values},
                    # off the grid
                    lambda s, d: (_grids(s, d)[0],
                                  CondVector(s, _where_right(d, d["X"] + 10.0, d["X"])))),
}

OPS = {**LINALG, **SETS, **MEMBERS, **GRIDS}
