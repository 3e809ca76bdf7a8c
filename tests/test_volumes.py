from fractions import Fraction as F

import pytest

from convexkit.bodies import (
    axis_segment,
    box,
    diamond,
    disc_polygon,
    segment,
    standard_simplex,
    unit_cube,
    unit_square,
)
from convexkit.errors import (
    DimensionError,
    LowerDimensionalError,
    NegativeCoefficientError,
)
from convexkit.geometry import bodies_equal, convex_hull, scale, translate
from convexkit.volumes import (
    combine,
    mixed_area,
    mixed_volume_base_height,
    mixed_volume_interp,
    projection_prism_volume,
    surface_area,
    volume,
    volume_polynomial,
)

from oracles import minkowski_points, shoelace_area


def test_combine_doubling(square):
    assert bodies_equal(combine(1, square, 1, square), scale(square, 2))


def test_combine_translates_average(square):
    got = combine(F(1, 2), square, F(1, 2), translate(square, (1, 0)))
    assert bodies_equal(got, translate(square, (F(1, 2), 0)))


def test_combine_orthogonal_segments(square):
    got = combine(1, axis_segment(2, 0), 1, axis_segment(2, 1))
    assert bodies_equal(got, square)


def test_combine_negative_coefficient(square):
    with pytest.raises(NegativeCoefficientError):
        combine(-1, square, 1, square)


def test_volume_basics(square):
    assert volume(square) == 1
    assert volume(standard_simplex(3)) == F(1, 6)
    assert volume(scale(square, 2)) == 4
    assert volume(axis_segment(2, 0)) == 0


def test_volume_agrees_with_shoelace(square, dia, tri):
    for body in (square, dia, tri, box(3, F(1, 2))):
        assert volume(body) == shoelace_area(body.vertices)


def test_volume_polynomial_examples(square, cube):
    assert volume_polynomial(square, square).coefficients == (1, 2, 1)
    assert volume_polynomial(square, axis_segment(2, 0)).coefficients == (1, 1, 0)
    moved = translate(cube, (5, 5, 5))
    assert volume_polynomial(cube, moved).coefficients == (1, 3, 3, 1)


def test_mixed_volume_interp_examples(square, cube):
    assert mixed_volume_interp(square, square) == 1
    assert mixed_volume_interp(square, axis_segment(2, 0)) == F(1, 2)
    assert mixed_volume_interp(cube, axis_segment(3, 0)) == F(1, 3)


def test_mixed_volume_base_height_examples(square, dia, tri):
    assert mixed_volume_base_height(square, square) == 1
    assert mixed_volume_base_height(square, dia) == 2
    assert mixed_volume_base_height(square, tri) == 1


def test_base_height_cross_checked_by_sum_area(square, dia, tri):
    # area(S + D) = area(S) + 2 A(S,D) + area(D), computed independently
    # by the shoelace oracle on the Minkowski vertex set.
    for other, mixed in ((dia, 2), (tri, 1)):
        pts = minkowski_points(1, square.vertices, 1, other.vertices)
        hull = convex_hull(pts)
        assert shoelace_area(hull.vertices) == 1 + 2 * mixed + volume(other)


def test_base_height_requires_full_dimensional(square):
    with pytest.raises(LowerDimensionalError):
        mixed_volume_base_height(axis_segment(2, 0), square)


def test_mixed_area_symmetry(square, dia, tri):
    assert mixed_area(square, tri) == mixed_area(tri, square) == 1
    assert mixed_area(square, dia) == mixed_area(dia, square) == 2
    assert mixed_area(square, axis_segment(2, 1)) == F(1, 2)
    with pytest.raises(DimensionError):
        mixed_area(unit_cube(), unit_cube())


def test_oracle_equivalence_fixed_bodies(square, dia, tri, cube):
    pairs = [
        (square, dia),
        (square, tri),
        (cube, translate(scale(cube, F(1, 2)), (3, 0, 1))),
        (cube, standard_simplex(3)),
    ]
    for first, second in pairs:
        assert (
            mixed_volume_interp(first, second)
            == mixed_volume_base_height(first, second)
        )


def test_projection_prism_examples(square, cube):
    assert projection_prism_volume(square, (1, 0)) == 1
    assert projection_prism_volume(cube, (0, 0, 1)) == 1
    assert projection_prism_volume(square, (1, 1)) == 2


def test_projection_prism_identity(square, cube):
    zero2, zero3 = (0, 0), (0, 0, 0)
    for body, zero, w in [
        (square, zero2, (1, 1)),
        (square, zero2, (F(2, 3), -1)),
        (cube, zero3, (1, 2, 3)),
    ]:
        n = body.dim
        seg = segment(zero, w)
        assert n * mixed_volume_interp(body, seg) == projection_prism_volume(
            body, w
        )


def test_surface_area(square, cube):
    assert surface_area(square).exact() == 4
    assert surface_area(cube).exact() == 6
    tri = convex_hull([(0, 0), (1, 0), (0, 1)])
    s = surface_area(tri)
    assert s.exact() is None  # hypotenuse length is irrational
    # 2 + sqrt(2) = 3.41421356...
    assert s.numeric(12).startswith("3.41421356237")


def test_disc_mixed_area_tends_to_quarter_perimeter(square):
    approx = disc_polygon(64)
    val = 2 * mixed_area(square, approx)
    assert val <= 4
    assert 4 - val < F(1, 1000)
