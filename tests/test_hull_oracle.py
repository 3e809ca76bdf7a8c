"""Differential test of the hull kernel against the brute-force oracle.

Inputs mix the degeneracies the kernel must resolve exactly: repeated
points, edge midpoints and centroids of n points (which lie on a facet
when those points span one), and, on request, coordinates whose
denominators are three large coprime primes, so that the lcm of all
denominators passes 256 bits.
"""

from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexkit.geometry import convex_hull
from convexkit.volumes import mixed_volume_base_height

from oracles import affine_rank, brute_hull, shoelace_area

# Mersenne primes 2^89 - 1, 2^107 - 1 and 2^127 - 1: their product has 323 bits.
BIG_PRIMES = (2**89 - 1, 2**107 - 1, 2**127 - 1)

coords = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def hull_inputs(draw):
    n = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[coords] * n), min_size=n + 1, max_size=n + 3, unique=True))
    if draw(st.booleans()):
        for i, prime in enumerate(BIG_PRIMES):
            axis = draw(st.integers(0, n - 1))
            nudge = F(draw(st.sampled_from([-1, 1])), prime)
            pts[i] = tuple(x + nudge if k == axis else x for k, x in enumerate(pts[i]))
    kinds = st.sampled_from(["duplicate", "midpoint", "centroid"])
    extras = draw(st.lists(kinds, max_size=8 - len(pts)))
    for kind in extras:
        size = {"duplicate": 1, "midpoint": 2, "centroid": n}[kind]
        index = st.integers(0, len(pts) - 1)
        ids = draw(st.lists(index, min_size=size, max_size=size, unique=True))
        pts.append(tuple(sum(pts[i][k] for i in ids) / size for k in range(n)))
    return draw(st.permutations(pts))


@settings(max_examples=150, deadline=None)
@given(hull_inputs())
def test_hull_matches_brute_force(points):
    n = len(points[0])
    assume(affine_rank(points) == n)
    body = convex_hull(points)
    vertices, facets = brute_hull(points)
    assert list(body.vertices) == vertices
    assert [(f.normal, f.offset, f.vertex_indices) for f in body.facets] == facets
    if n == 2:
        assert body.volume == shoelace_area(vertices)
    assert mixed_volume_base_height(body, body) == body.volume
