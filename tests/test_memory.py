"""Peak allocation of the stacked ops stays a small multiple of the input.

The ops loop over generator index or horizon position with all atoms at
once.  A temporary over pairs of positions, such as a ``(K, T, T, d)``
difference tensor, is about ``T`` times the input and fails here.  The
discrete Legendre transform works through its rows in blocks, so its
temporaries stay a few MB however many rows it gets.

Reading a scenario decodes only the entries a command reads: its peak is
the text read plus one entry, well below a read that decodes every entry
into Python objects.

The ops load no module they do not need: proper separation groups its
frame sizes without ``np.unique``, whose first call imports ``numpy.ma``.
"""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from stratalg import (
    CondScalar,
    CondSequence,
    CondVector,
    MeasureSpace,
    cauchy_limit,
    orthonormalize,
    rank_partition,
)
from stratalg.functions import _legendre
from stratalg.io import build_scenario, load_document

K, T, D = 2000, 16, 5
BOUND = 5  # times the input's bytes


@pytest.fixture(scope="module")
def stack():
    rng = np.random.default_rng(2000)
    data = rng.normal(size=(T, K, D))
    # generators of every rank from 1 to D
    rank = np.arange(K) % D + 1
    data[:, :, 1:] *= np.arange(1, D)[None, None, :] < rank[None, :, None]
    return MeasureSpace(np.ones(K)), data


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cauchy_limit_peak(stack):
    space, data = stack
    seq = CondSequence([CondVector(space, t) for t in data])
    schedule = [CondScalar(space, np.full(K, e)) for e in (1.0, 0.1, 0.01)]
    assert peak_bytes(lambda: cauchy_limit(seq, schedule)) <= BOUND * data.nbytes


def test_orthonormalize_peak(stack):
    space, data = stack
    basis = rank_partition([CondVector(space, t) for t in data])
    assert set(basis.labels.tolist()) == set(range(1, D + 1))
    assert peak_bytes(lambda: orthonormalize(basis)) <= BOUND * data.nbytes


def test_reading_one_entry_peak(tmp_path):
    # a wide-linalg-sized scenario: K = 2000, d = 5, 36 vectors, 10 scalars
    rng = np.random.default_rng(2001)
    doc = {
        "weights": rng.uniform(0.5, 2.0, K).round(3).tolist(),
        "d": D,
        "vectors": {f"V{i}": rng.normal(size=(K, D)).tolist() for i in range(36)},
        "scalars": {f"s{i}": rng.normal(size=K).tolist() for i in range(10)},
    }
    text = json.dumps(doc, separators=(",", ":"))
    path = tmp_path / "wide.json"
    path.write_text(text)
    def whole():  # the whole-document read this replaced
        with open(path, encoding="utf-8") as fh:
            json.load(fh)

    one = peak_bytes(lambda: build_scenario(load_document(str(path))).vector("V7"))
    # reading text holds the file's bytes and its decoded text at once
    assert one <= 2 * len(text) + 2**20
    assert one <= 0.65 * peak_bytes(whole)


@pytest.mark.parametrize("m", [201, 4401])
def test_legendre_peak(m):
    # 256 rows of 4 401 nodes, 9 MB of input: unblocked, the hull's flat
    # arrays alone would take ten times that
    rng = np.random.default_rng(2002)
    xs = np.linspace(-20.0, 20.0, 4401)
    V = np.cumsum(rng.normal(size=(256, 4401)), axis=1) * 0.01 + xs**2
    V[::4, :1000] = np.inf
    ys = np.linspace(-2.0, 2.0, m)
    out_bytes = V.shape[0] * m * 8
    assert peak_bytes(lambda: _legendre(xs, V, ys)) <= 2**24 + 2 * out_bytes


def test_proper_separation_leaves_numpy_ma_out():
    # in a fresh interpreter: np.unique's first call imports numpy.ma, which
    # numpy 1.x already imports with numpy itself
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from stratalg import ConvexSetRep, MeasureSpace, separate
        if "numpy.ma" in sys.modules:
            sys.exit(3)
        rng = np.random.default_rng(4)
        K, d = 12, 3
        pts = np.concatenate([np.zeros((K, 1, d)), rng.uniform(0.5, 1.0, (K, 3, d))], axis=1)
        pts[::2, :, 2] = 0.0  # planar on every other atom: frames of two sizes
        shift = np.zeros((K, 1, d))
        shift[::4, 0, 2] = 1.0  # the planar difference's hull misses 0 there
        space = MeasureSpace(np.ones(K))
        res = separate(ConvexSetRep(space, d, pts), ConvexSetRep(space, d, shift - pts), "proper")
        assert not res.failure_set.mask.any()
        assert "numpy.ma" not in sys.modules, "proper separation imported numpy.ma"
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode == 3:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert proc.returncode == 0, proc.stderr
