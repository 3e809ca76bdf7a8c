from fractions import Fraction as F

import pytest

from convexkit.bodies import random_polytope, unit_square
from convexkit.errors import QuadrantError
from convexkit.geometry import bodies_equal, convex_hull, scale, support, translate
from convexkit.reconstruction import (
    corner_normalize,
    farey_directions,
    mixed_area_oracle,
    probe_triangle,
    recover_support,
    recover_support_any,
    recover_support_other_quadrants,
    translates_decision,
)
from convexkit.volumes import mixed_volume_interp
from conftest import make_rng


def test_corner_normalize_examples(square):
    cn = corner_normalize(convex_hull([(1, 1), (3, 1), (1, 4)]))
    assert bodies_equal(cn.body, convex_hull([(0, 0), (2, 0), (0, 3)]))
    assert cn.applied_translation == (-1, -1)
    cn2 = corner_normalize(square)
    assert bodies_equal(cn2.body, square) and cn2.applied_translation == (0, 0)
    cn3 = corner_normalize(translate(square, (-5, 2)))
    assert bodies_equal(cn3.body, square) and cn3.applied_translation == (5, -2)


def test_probe_triangle_construction():
    assert probe_triangle((1, 1)).triangle.vertices == (
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
    )
    p = probe_triangle((1, 2))
    assert bodies_equal(p.triangle, convex_hull([(0, 0), (2, 0), (0, 1)]))
    hyp = [f for f in p.triangle.facets if f.normal == (F(1), F(2))]
    assert len(hyp) == 1
    p2 = probe_triangle((3, 1), 2)
    assert bodies_equal(p2.triangle, convex_hull([(0, 0), (2, 0), (0, 6)]))
    with pytest.raises(QuadrantError):
        probe_triangle((-1, 1))


def test_recover_first_quadrant(square):
    k = convex_hull([(0, 0), (2, 0), (0, 3)])
    assert recover_support(mixed_area_oracle(k), (1, 1)) == 3 == support(k, (1, 1))
    o = mixed_area_oracle(square)
    assert recover_support(o, (1, 1)) == 2
    assert recover_support(o, (1, 2)) == 3 == support(square, (1, 2))


def test_recover_scale_invariance(square):
    # The recovered value must not depend on the probe scale.
    from convexkit.volumes import mixed_area

    w = (2, 3)
    values = set()
    for c in (1, F(1, 3), 5):
        probe = probe_triangle(w, c)
        area = mixed_area(square, probe.triangle)
        values.add(2 * area * (w[0] ** 2 + w[1] ** 2) / probe.hypotenuse_pseudo_length)
    assert values == {support(square, w)}


def test_recover_other_quadrants(square):
    o = mixed_area_oracle(square)
    assert recover_support_other_quadrants(o, (-1, 1)) == 1
    assert recover_support_other_quadrants(o, (1, -1)) == 1
    k = convex_hull([(0, 0), (2, 0), (0, 3)])
    assert recover_support_other_quadrants(mixed_area_oracle(k), (0, 1)) == 3


def test_recover_auxiliary_independence(square):
    o = mixed_area_oracle(square)
    for w in [(-2, 1), (-1, -3), (3, -2)]:
        vals = {
            recover_support_other_quadrants(o, w, aux=q)
            for q in [(1, 1), (1, 2), (3, 1), (2, 3)]
        }
        assert vals == {support(square, w)}


def test_recovery_with_interpolation_oracle(square):
    # The oracle interface accepts any exact mixed-area functional.
    oracle = lambda probe_body: mixed_volume_interp(square, probe_body)
    assert recover_support(oracle, (1, 1)) == 2
    assert recover_support_other_quadrants(oracle, (-1, 1)) == 1


def test_farey_grid_shape():
    grid = farey_directions()
    assert len(grid) == len(set(grid)) == 64
    quadrants = [0, 0, 0, 0]
    for x, y in grid:
        if x > 0 and y >= 0:
            quadrants[0] += 1
        elif x <= 0 and y > 0:
            quadrants[1] += 1
        elif x < 0 and y <= 0:
            quadrants[2] += 1
        else:
            quadrants[3] += 1
    assert quadrants == [16, 16, 16, 16]


def test_reconstruction_identity_on_random_polygons():
    rng = make_rng(5)
    grid = farey_directions()
    for _ in range(5):
        body = corner_normalize(random_polytope(2, 7, rng)).body
        oracle = mixed_area_oracle(body)
        for w in grid:
            assert recover_support_any(oracle, w) == support(body, w)


def test_translates_decision(square, tri):
    d = translates_decision(square, translate(square, (10, -3)))
    assert d.are_translates and d.translation == (10, -3)
    flat_diamond = convex_hull([(1, 0), (-1, 0), (0, F(1, 2)), (0, -F(1, 2))])
    d2 = translates_decision(square, flat_diamond)  # both have area 1
    assert not d2.are_translates and d2.witness_direction is not None
    d3 = translates_decision(tri, scale(tri, 2))
    assert not d3.are_translates
