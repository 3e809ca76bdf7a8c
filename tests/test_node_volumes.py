"""Differential test of the node volumes behind the volume polynomial.

The record ``volumes._minkowski_sum(K, L)`` ends with V(K + eps L) for
eps = 0..n+1.  Each node must equal the hull-per-node oracle
``combine(1, K, eps, L).volume``, and the volume polynomial through the
nodes must pass all of its checks.  Inputs are the 2D and 3D bodies of
``test_integer_rows`` (small and 300-bit rationals, points on the sphere,
flat bodies, single points, derived bodies), a 4D simplex with 300-bit
coordinates, seeded {0, 1, 2}-lattice pairs in 2D-4D whose pair points
often lie inside facets of K + L, pairs of 10-vertex 3D bodies where most
of their 100 pair points are not vertices of K + L, cubes against boxes,
and degenerate pairs: a flat first body, two flat bodies, segments, and
pairs whose K + L is flat.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_integer_rows import bodies

from convexkit import volumes
from convexkit.bodies import (
    axis_segment,
    box,
    segment,
    standard_simplex,
    unit_cube,
    unit_square,
)
from convexkit.errors import PairPointsError
from convexkit.geometry import convex_hull
from convexkit.volumes import combine, volume_polynomial


def check_nodes(first, second):
    if len(first.vertices) * len(second.vertices) > volumes.MAX_PAIR_POINTS[first.dim]:
        # Two bodies derived by ``combine`` can have this many vertices.
        with pytest.raises(PairPointsError):
            volumes._minkowski_sum(first, second)
        return
    nodes = volumes._minkowski_sum(first, second)[2]
    expected = tuple(combine(1, first, eps, second).volume for eps in range(first.dim + 2))
    assert nodes == expected
    assert all(type(v) is F for v in nodes)
    poly = volume_polynomial(first, second)
    assert poly.coefficients[0] == first.volume
    assert poly.coefficients[-1] == second.volume


# In 4D one oracle hull of two 300-bit bodies' pair points takes seconds, so
# 4D is covered by the lattice pairs and one 300-bit simplex below.
@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(bodies(n), bodies(n))))
def test_nodes_match_hulls_on_integer_row_bodies(pair):
    check_nodes(*pair)


def lattice_body(rng, n):
    """Hull of a few points of {0, 1, 2}^n; flat ones are kept too."""
    pts = [tuple(F(rng.randint(0, 2)) for _ in range(n)) for _ in range(rng.randint(2, n + 4))]
    return convex_hull(pts, allow_degenerate=True)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nodes_match_hulls_on_lattice_pairs(n):
    rng = random.Random(f"lattice/{n}")
    for _ in range({2: 24, 3: 16, 4: 8}[n]):
        check_nodes(lattice_body(rng, n), lattice_body(rng, n))


def ten_vertex_body(rng):
    """Hull of 10 points of a scaled lattice on the paraboloid z = x^2 + y^2,
    all of them vertices.  Of the 100 pair points of two such bodies, only
    35 to 41 are vertices of K + L, and many others lie on its facets."""
    grid = rng.sample([(a, b) for a in range(-3, 4) for b in range(-3, 4)], 10)
    q = rng.randint(1, 3)
    return convex_hull([(F(a, q), F(b, q), F(a * a + b * b, q * q)) for a, b in grid])


def test_nodes_match_hulls_on_ten_vertex_pairs():
    rng = random.Random("ten-vertex")
    for _ in range(4):
        first, second = ten_vertex_body(rng), ten_vertex_body(rng)
        assert len(first.vertices) == len(second.vertices) == 10
        check_nodes(first, second)


def flat_square(level):
    """The unit square at height ``level`` in R^3, a flat body."""
    return convex_hull(
        [(F(x), F(y), F(level)) for x in (0, 1) for y in (0, 1)], allow_degenerate=True
    )


def upright_square():
    """The unit square in the plane x = 0 of R^3, a flat body."""
    return convex_hull(
        [(F(0), F(y), F(z)) for y in (0, 1) for z in (0, 1)], allow_degenerate=True
    )


def big_simplex_4d():
    """A 4D simplex whose coordinates have 300-bit denominators."""
    rng = random.Random("big-simplex")
    return convex_hull(
        [tuple(F(rng.randint(-(2**301), 2**301), rng.randint(2**299, 2**300)) for _ in range(4))
         for _ in range(5)]
    )


CASES = {
    "cube-box": (unit_cube(), box(2, F(1, 3), 5)),
    "box-cube": (box(2, F(1, 3), 5), unit_cube()),
    "box-box-4d": (box(1, 1, 1, 1), box(3, F(1, 2), 2, 1)),
    "big-simplex-4d": (big_simplex_4d(), standard_simplex(4)),
    "flat-first": (flat_square(0), unit_cube()),
    "flat-flat-full-sum": (flat_square(0), upright_square()),
    "flat-flat-flat-sum": (flat_square(0), flat_square(1)),
    "cube-segment": (unit_cube(), segment((0, 0, 0), (1, 2, 3))),
    "segment-cube": (segment((0, 0, 0), (1, 2, 3)), unit_cube()),
    "segment-square-3d": (axis_segment(3, 2), flat_square(2)),
    "segment-segment-2d": (axis_segment(2, 0), segment((0, 0), (1, 1))),
    "parallel-segments-2d": (axis_segment(2, 0), axis_segment(2, 0, 3)),
    "square-segment": (unit_square(), axis_segment(2, 1, F(5, 2))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_nodes_match_hulls_on_named_pairs(name):
    first, second = CASES[name]
    check_nodes(first, second)
    check_nodes(second, first)
