"""Nearest-point and LP verdicts on seeded cases that lie near their thresholds.

Every case is built so that the value a verdict compares lies within a
factor of 2 of its threshold: the distance of a point from a polytope
against ``membership``'s cutoff, the distance between two polytopes
against strong ``separate``'s ``zero_tol``, the distance of the
prescribed values from the mapped slope hull against
``hahn_banach_extend``'s ``tol``, the width of ``argmin``'s uniqueness
box against ``tol * max(1, |xstar[axis]|)``, and the positivity margin of
``ri_membership`` against ``strict_tol``.  The planted value is the factor
``2**u`` (``u`` uniform in [-1, 1]) times the threshold.  A distance is
measured on a facet or edge whose nearest point is known, then carried by
a random rotation and translation; a box width is the length of an
optimal edge along a coordinate axis, and a margin the smallest
barycentric coordinate of the target in a triangle.  Each draw comes from
``SEED`` and its case name.  The verdict masks are pinned as the solvers
gave them when the fixture was written, so a change of the QP or of an LP
family that moves a verdict near its threshold fails here.  Each mask
agrees with its planted factors on every atom but one: ``ri_membership``'s
atom 27, planted 0.74% below its threshold on a triangle with edges of
0.14-0.33, reads a margin 0.43% above it, lent by the margin LP's
equality slack ``EQ_TOL * max(1, |entries|)``.
"""

import numpy as np
import pytest

from stratalg import (
    AtomSetError,
    CondScalar,
    CondVector,
    ConvexSetRep,
    MaxAffineFn,
    MeasureSpace,
    argmin,
    hahn_banach_extend,
    membership,
    orthonormalize,
    rank_partition,
    ri_membership,
    separate,
)
from stratalg.tolerances import FEAS_TOL, QP_TOL, STRICT_TOL, row_scale

SEED = 12110747
K = 48

# the pinned verdicts, one character an atom: "1" where the verdict holds
# (inside, separation fails, the extension raises, the minimizer is
# unique, the target is relatively interior)
PINNED = {
    "argmin": "011001110001110110101011001010010111101011001010",
    "ri_membership": "101111001100111001111101001110001110111111101111",
    "membership": "011110101011001010110100111111101010110001000111",
    "separate": "011100010010011111000000011111000100111011000000",
    "hahn_banach_extend": "010100111110111110000100000111100000010001111011",
}


def rng_for(case):
    return np.random.default_rng([SEED, sum(map(ord, case))])


def factors(rng):
    return 2.0 ** rng.uniform(-1.0, 1.0, K)


def rotations(rng, d):
    return np.stack([np.linalg.qr(rng.normal(size=(d, d)))[0] for _ in range(K)])


def family(space, A):
    return [CondVector(space, A[:, i]) for i in range(A.shape[1])]


def facet_polytopes(rng):
    """Per atom, a polytope in ``x_1 <= 0`` with a triangle facet on
    ``x_1 = 0``, a point ``y`` inside that facet and the scale ``s``."""
    s = 2.0 ** rng.integers(-3, 4, K)
    tri = np.concatenate([np.zeros((K, 3, 1)), rng.normal(size=(K, 3, 2))], axis=2)
    back = rng.normal(size=(K, 2, 3))
    back[:, :, 0] = -np.abs(back[:, :, 0]) - 0.5
    pts = np.concatenate([tri, back], axis=1) * s[:, None, None]
    y = np.einsum("kj,kjd->kd", rng.dirichlet(np.ones(3), K), pts[:, :3])
    return pts, y, s


def moved(Q, b, a):
    """``a`` (``(K, ., 3)`` or ``(K, 3)``) rotated by ``Q`` and shifted by ``b``."""
    if a.ndim == 2:
        return np.einsum("kij,kj->ki", Q, a) + b
    return np.einsum("kij,knj->kni", Q, a) + b[:, None]


def membership_case():
    rng = rng_for("membership")
    pts, y, s = facet_polytopes(rng)
    Q, b = rotations(rng, 3), rng.normal(size=(K, 3)) * s[:, None]
    P, Y = moved(Q, b, pts), moved(Q, b, y)
    cutoff = FEAS_TOL * row_scale(P, Y)
    x = Y + (factors(rng) * cutoff)[:, None] * Q[:, :, 0]
    space = MeasureSpace(np.ones(K))
    rep = ConvexSetRep(space, 3, family(space, P))
    return membership(CondVector(space, x), rep).mask


def separate_case():
    rng = rng_for("separate")
    pts, y, s = facet_polytopes(rng)
    t = factors(rng) * QP_TOL
    # D: a vertex at y + t e_1 and three points beyond it
    far = rng.normal(size=(K, 3, 3)) * s[:, None, None]
    far[:, :, 0] = np.abs(far[:, :, 0]) + 0.5 * s[:, None]
    D = np.concatenate([y[:, None], y[:, None] + far], axis=1)
    D[:, :, 0] += t[:, None]
    Q, b = rotations(rng, 3), rng.normal(size=(K, 3)) * s[:, None]
    space = MeasureSpace(np.ones(K))
    C = ConvexSetRep(space, 3, family(space, moved(Q, b, pts)))
    D = ConvexSetRep(space, 3, family(space, moved(Q, b, D)))
    return separate(C, D, kind="strong").failure_set.mask


def extension_data(rng):
    """A sublinear ``p`` on ``R^3``, the linear set of a random plane, and
    frame values just off an edge of the slope hull's image."""
    s = 2.0 ** rng.integers(-3, 4, K)
    space = MeasureSpace(np.ones(K))
    L = rng.normal(size=(K, 2, 3)) * s[:, None, None]
    frame = orthonormalize(rank_partition(family(space, L))).rows[:, :2]
    # the frame values of the slopes: a triangle m0, m1, m2 and two points
    # inside it, turned and scaled per atom
    base = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, -1.0]])
    inner = rng.dirichlet(np.ones(3), (K, 2)) @ base
    m = np.concatenate([np.broadcast_to(base, (K, 3, 2)), inner], axis=1)
    R = rotations(rng, 2) * s[:, None, None]
    m = np.einsum("kij,knj->kni", R, m)
    normal = np.cross(frame[:, 0], frame[:, 1])
    Y = (np.einsum("kni,kid->knd", m, frame)
         + rng.normal(size=(K, 5, 1)) * s[:, None, None] * normal[:, None])
    mapped = np.einsum("knd,kid->kni", Y, frame)
    edge = 0.5 * (mapped[:, 0] + mapped[:, 1])
    out = np.einsum("kij,j->ki", R, np.array([1.0, 1.0]) / np.sqrt(2.0)) / s[:, None]
    vals = edge + (factors(rng) * QP_TOL * row_scale(mapped, edge))[:, None] * out
    e = ConvexSetRep(space, 3, [CondVector.zero(space, 3)], lines=family(space, L))
    p = MaxAffineFn(space, Y, np.zeros((K, 5)))
    return space, p, e, vals, frame


def extension_case():
    space, p, e, vals, frame = extension_data(rng_for("hahn_banach_extend"))
    imgs = [CondScalar(space, vals[:, i]) for i in range(2)]
    try:
        hahn_banach_extend(p, e, imgs)
    except AtomSetError as err:
        return err.atoms
    return np.zeros(K, dtype=bool)


def argmin_case():
    """Minimize ``c x_up`` over a polytope whose bottom is the edge from
    ``b`` to ``b + w e_axis``, every point within the edge's ``axis``
    range: the box of the near-optimal face is ``w`` wide along ``axis``
    and far below its threshold along the other two axes."""
    rng = rng_for("argmin")
    axes = np.stack([rng.permutation(3) for _ in range(K)])  # axis, up, side
    E = np.eye(3)[axes]  # (K, 3, 3): the unit vectors of those axes
    s = 2.0 ** rng.integers(-3, 4, K)
    b = rng.normal(size=(K, 3)) * s[:, None]
    w = factors(rng) * QP_TOL * np.maximum(1.0, np.abs(b[np.arange(K), axes[:, 0]]))
    t, h = rng.random((K, 3)), rng.uniform(1.0, 2.0, (K, 3))
    r = rng.uniform(-0.5, 0.5, (K, 3))
    top = b[:, None] + (t * w[:, None])[..., None] * E[:, None, 0] + (
        s[:, None, None] * (h[..., None] * E[:, None, 1] + r[..., None] * E[:, None, 2]))
    pts = np.concatenate([b[:, None], (b + w[:, None] * E[:, 0])[:, None], top], axis=1)
    pts = np.take_along_axis(pts, np.argsort(rng.random((K, 5)), axis=1)[..., None], axis=1)
    space = MeasureSpace(np.ones(K))
    f = MaxAffineFn(space, (2.0 ** rng.uniform(-1.0, 1.0, K))[:, None, None] * E[:, None, 1],
                    np.zeros((K, 1)))
    return argmin(f, ConvexSetRep(space, 3, family(space, pts))).unique_set.mask


def ri_case():
    """A target in a triangle of ``R^3`` whose smallest barycentric
    coordinate, its largest positivity margin, is planted."""
    rng = rng_for("ri_membership")
    s = 2.0 ** rng.integers(-3, 4, K)
    V = (rng.normal(size=(K, 3, 3)) + rng.normal(size=(K, 1, 3))) * s[:, None, None]
    m = factors(rng) * STRICT_TOL
    a = rng.uniform(0.2, 0.7, K)
    lam = np.stack([m, a, 1.0 - m - a], axis=1)
    lam = np.take_along_axis(lam, np.argsort(rng.random((K, 3)), axis=1), axis=1)
    space = MeasureSpace(np.ones(K))
    x = CondVector(space, np.einsum("kj,kjd->kd", lam, V))
    return ri_membership(x, ConvexSetRep(space, 3, family(space, V)), mode="relative").mask


CASES = {"membership": membership_case, "separate": separate_case,
         "hahn_banach_extend": extension_case, "argmin": argmin_case,
         "ri_membership": ri_case}


def as_text(mask):
    return "".join("1" if v else "0" for v in mask)


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdicts_near_the_threshold_are_pinned(case):
    got = as_text(CASES[case]())
    assert got == PINNED[case], (case, got)
    # the draw straddles the threshold: both verdicts occur
    assert "0" in got and "1" in got


def test_extensions_near_the_threshold_take_the_prescribed_values():
    # the atoms whose gap passes, alone on a space of their own: the
    # extension matches the prescribed values up to the gap allowed
    space, p, e, vals, frame = extension_data(rng_for("hahn_banach_extend"))
    ok = np.flatnonzero(np.array(list(PINNED["hahn_banach_extend"])) == "0")
    sub = MeasureSpace(np.ones(len(ok)))
    p = MaxAffineFn(sub, p.slopes[ok], p.offsets[ok])
    e = ConvexSetRep(sub, 3, [CondVector.zero(sub, 3)], lines=family(sub, e.lines[ok]))
    h = hahn_banach_extend(p, e, [CondScalar(sub, vals[ok, i]) for i in range(2)]).values
    got = np.einsum("kid,kd->ki", frame[ok], h)
    assert (np.abs(got - vals[ok]).max(axis=1) <= 2.0 * QP_TOL * row_scale(p.slopes, vals[ok])).all()
