"""Atom locality of the stacked linear-algebra and sequence ops.

Row ``k`` of every output depends on the data of atom ``k`` alone:
perturbing or permuting the other atoms leaves it bit-identical, and the
one-atom run on atom ``k`` gives the same row.  Every error names
exactly the atoms whose one-atom run fails.
"""

import numpy as np
import pytest

from stratalg import (
    AtomSetError,
    CondScalar,
    CondSequence,
    CondVector,
    MeasurableSet,
    MeasureSpace,
    OrthonormalFrame,
    StratifiedBasis,
    bw_extract,
    cauchy_limit,
    decompose,
    extend_linear,
    hyperplane_normal_form,
    orthonormalize,
    rank_partition,
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


@pytest.mark.parametrize("op", OPS)
def test_other_atoms_do_not_reach_row_k(op):
    rng = np.random.default_rng(OPS.index(op))
    K = 10
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
