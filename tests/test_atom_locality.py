"""Atom locality of every op in the table of ``ops``.

Row ``k`` of every output depends on the data of atom ``k`` alone:
perturbing or permuting the other atoms leaves it bit-identical, and the
one-atom run on atom ``k`` gives the same row.  Every error names
exactly the atoms whose one-atom run fails.  The grid ops' locality
tests are ``test_functions.TestGridAtomLocality``.

Batch invariance: on a stack whose atoms repeat, every op gives each
copy its source atom's rows and names every copy of a failing atom.  The
CLI's run on one atom per block of identical atoms rests on it.
"""

import numpy as np
import pytest

from ops import (
    OPS,
    assert_rows_local,
    draw_linalg,
    draw_members,
    draw_sets,
    drawn_by,
    error_atoms,
    run,
    same_bits,
    take,
)


@pytest.mark.parametrize("op", drawn_by(draw_linalg))
def test_other_atoms_do_not_reach_row_k(op):
    assert_rows_local(OPS[op])


@pytest.mark.parametrize("op", drawn_by(draw_sets))
def test_set_and_function_rows_are_local(op):
    assert_rows_local(OPS[op])


@pytest.mark.parametrize("op", drawn_by(draw_members))
def test_member_tolerance_rows_are_local(op):
    assert_rows_local(OPS[op])


def failing_draws(entry, K=12):
    """Three draws of ``K`` atoms from the entry's seed plus 100."""
    rng = np.random.default_rng(entry.seed + 100)
    return [entry.draw(rng, K) for _ in range(3)]


@pytest.mark.parametrize("op", [name for name, op in OPS.items() if op.failing])
def test_error_mask_is_the_union_of_per_atom_verdicts(op):
    entry, K, mixed = OPS[op], 12, 0
    for data in failing_draws(entry, K):
        verdicts = []
        for k in range(K):
            alone = error_atoms(entry, take(data, [k]))
            assert alone in (None, [True]), (op, k)
            verdicts.append(alone is not None)
        mixed += 0 < sum(verdicts) < K
        assert error_atoms(entry, data) == (verdicts if any(verdicts) else None), op
    assert mixed, op


@pytest.mark.parametrize("op", [name for name in drawn_by(draw_linalg) if OPS[name].failing])
def test_errors_name_the_atoms_broken_on_purpose(op):
    # every failing builder of this draw breaks the atoms with v > 0
    for data in failing_draws(OPS[op]):
        assert error_atoms(OPS[op], data) == (data["v"] > 0).tolist(), op


def repeats(entry, data):
    """``data``'s atoms, each one to three times, shuffled, with fresh
    weights; and the source atom of each."""
    rng = np.random.default_rng(entry.seed + 200)
    K = len(data["w"])
    src = rng.permutation(np.repeat(np.arange(K), rng.integers(1, 4, K)))
    out = take(data, src)
    out["w"] = rng.uniform(0.5, 2.0, len(src))
    return out, src


@pytest.mark.parametrize("op", list(OPS))
def test_repeated_atoms_repeat_rows(op):
    entry = OPS[op]
    data = entry.draw(np.random.default_rng(entry.seed), entry.K)
    rep, src = repeats(entry, data)
    base = run(entry, data)
    got = run(entry, rep)
    assert got.keys() == base.keys()
    for name, rows in got.items():
        assert same_bits(rows, np.asarray(base[name])[src]), name


@pytest.mark.parametrize("op", [name for name, op in OPS.items() if op.failing])
def test_repeated_atoms_repeat_error_masks(op):
    entry = OPS[op]
    for data in failing_draws(entry):
        rep, src = repeats(entry, data)
        verdicts = error_atoms(entry, data)
        want = None if verdicts is None else np.asarray(verdicts)[src].tolist()
        assert error_atoms(entry, rep) == want, op
