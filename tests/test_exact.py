"""The exact membership oracle, on hand cases and against ``membership``."""

import numpy as np
import pytest

from exact import member
from stratalg import CondVector, ConvexSetRep, MeasureSpace, membership

TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("x, inside", [
    ([1.0, 0.0], True),  # a vertex
    ([0.5, 0.5], True),  # the midpoint of an edge
    ([0.25, 0.25], True),  # an interior point
    ([1.0, 1.0], False),  # outside
    ([1.0 + 2.0**-52, 0.0], False),  # one ulp past a vertex
    ([0.25, 0.75], True),  # on an edge
    ([0.1, 0.9], False),  # 0.1 + 0.9 rounds to 1, but the floats' exact sum is above 1
], ids=["vertex", "edge-midpoint", "interior", "outside", "ulp-past-a-vertex", "on-an-edge",
        "rounded-onto-an-edge"])
def test_oracle_on_a_triangle(x, inside):
    assert member(x, TRIANGLE) is inside


@pytest.mark.parametrize("x, inside", [
    ([2.0, -5.0, 0.0], True),  # along the ray and back along the line
    ([1e300, 1e300, 0.0], True),
    ([0.0, 0.0, 0.0], True),
    ([-1.0, 0.0, 0.0], False),  # against the ray
    ([1.0, 3.0, 0.5], False),  # off the plane the ray and the line span
])
def test_oracle_on_a_ray_and_a_line(x, inside):
    # the half plane {x[0] >= 0, x[2] = 0}: the origin, the ray e_0 and the line e_1
    assert member(x, [[0.0, 0.0, 0.0]], rays=[[1.0, 0.0, 0.0]], lines=[[0.0, 1.0, 0.0]]) is inside


def test_membership_agrees_with_the_oracle_at_unit_scale():
    # the scale probe of ROADMAP item 1 at scale 2**0: integer polytopes of
    # five points in d = 3, their centroids inside and points 2-4 past the
    # largest coordinate along one axis outside
    rng = np.random.default_rng(5)
    K = 400
    points = rng.integers(-3, 4, (K, 5, 3)).astype(float)
    centroids = points.mean(axis=1)
    outside = centroids.copy()
    outside[np.arange(K), rng.integers(0, 3, K)] = points.max(axis=(1, 2)) + rng.integers(2, 5, K)
    space = MeasureSpace(np.ones(K))
    rep = ConvexSetRep(space, 3, points)
    for x, inside in ((centroids, True), (outside, False)):
        exact = [member(x[k].tolist(), points[k].tolist()) for k in range(K)]
        assert exact == [inside] * K
        assert membership(CondVector(space, x), rep).mask.tolist() == exact
