import math
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
    AmbientDimError,
    DimensionError,
    InvariantError,
    LowerDimensionalError,
    NegativeCoefficientError,
    PairPointsError,
)
from convexkit import volumes
from convexkit.geometry import Subspace, convex_hull, project, scale, translate
from convexkit.volumes import (
    combine,
    mixed_area,
    mixed_volume_base_height,
    mixed_volume_interp,
    projection_prism_volume,
    surface_area,
    VolumePolynomial,
    volume_polynomial,
)

from oracles import minkowski_points, shoelace_area
from test_combine_memo import count_calls


def test_combine_doubling(square):
    assert combine(1, square, 1, square) == scale(square, 2)


def test_combine_translates_average(square):
    got = combine(F(1, 2), square, F(1, 2), translate(square, (1, 0)))
    assert got == translate(square, (F(1, 2), 0))


def test_combine_orthogonal_segments(square):
    got = combine(1, axis_segment(2, 0), 1, axis_segment(2, 1))
    assert got == square


def test_combine_negative_coefficient(square):
    with pytest.raises(NegativeCoefficientError):
        combine(-1, square, 1, square)


def test_volume_basics(square):
    assert square.volume == 1
    assert standard_simplex(3).volume == F(1, 6)
    assert scale(square, 2).volume == 4
    assert axis_segment(2, 0).volume == 0


def test_volume_agrees_with_shoelace(square, dia, tri):
    for body in (square, dia, tri, box(3, F(1, 2))):
        assert body.volume == shoelace_area(body.vertices)


def test_volume_polynomial_examples(square, cube):
    assert volume_polynomial(square, square).coefficients == (1, 2, 1)
    assert volume_polynomial(square, axis_segment(2, 0)).coefficients == (1, 1, 0)
    moved = translate(cube, (5, 5, 5))
    assert volume_polynomial(cube, moved).coefficients == (1, 3, 3, 1)


def test_aleksandrov_fenchel_guard(square, cube):
    # W_i = c_i / C(n, i) must be log-concave: (1, 0, 1) gives W_1^2 = 0 < 1.
    # (1, 2, 2) / 2 is the polynomial 1/2 + eps + eps^2.
    for bad in (((1, 0, 1), 1), ((1, 3, 0, 1), 1), ((1, 2, 2), 2)):
        with pytest.raises(InvariantError, match="Aleksandrov-Fenchel"):
            VolumePolynomial(*bad)
    # Equality cases, flat and segment second bodies and a flat first body pass.
    flat = convex_hull([(0, 0, 0), (1, 0, 0), (0, 2, 0)], allow_degenerate=True)
    pairs = [
        (square, scale(square, 3)),
        (square, axis_segment(2, 0)),
        (cube, flat),
        (cube, axis_segment(3, 2)),
        (flat, cube),
        (axis_segment(2, 0), axis_segment(2, 1)),
    ]
    for first, second in pairs:
        volume_polynomial(first, second)


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
        assert shoelace_area(hull.vertices) == 1 + 2 * mixed + other.volume


def test_base_height_requires_full_dimensional(square):
    with pytest.raises(LowerDimensionalError):
        mixed_volume_base_height(axis_segment(2, 0), square)


def test_mixed_area_symmetry(square, dia, tri):
    assert mixed_area(square, tri) == mixed_area(tri, square) == 1
    assert mixed_area(square, dia) == mixed_area(dia, square) == 2
    assert mixed_area(square, axis_segment(2, 1)) == F(1, 2)
    assert mixed_area(axis_segment(2, 1), square) == F(1, 2)
    with pytest.raises(DimensionError):
        mixed_area(unit_cube(), unit_cube())


@pytest.mark.parametrize(
    "u, v", [((1, 0), (0, 1)), ((3, F(1, 2)), (-2, 5)), ((F(2, 3), -1), (F(-1, 3), F(7, 5)))]
)
def test_mixed_area_of_two_segments(u, v):
    # Both bodies flat: V([0, u] + [0, v]) = |det(u, v)| = 2 A, and a
    # parallel pair spans a segment, so A = 0.
    first, second = (convex_hull([(0, 0), p], allow_degenerate=True) for p in (u, v))
    det = F(u[0]) * v[1] - F(u[1]) * v[0]
    assert mixed_area(first, second) == mixed_area(second, first) == abs(det) / 2
    parallel = convex_hull([(0, 0), tuple(F(-5, 3) * c for c in u)], allow_degenerate=True)
    assert mixed_area(first, parallel) == mixed_area(parallel, first) == 0


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


def moment_curve_body(n, count):
    """Cyclic polytope with ``count`` vertices (t, t^2, ..., t^n), t = 0..count-1."""
    return convex_hull([tuple(F(t) ** e for e in range(1, n + 1)) for t in range(count)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_point_cap_in_every_combination(n):
    # One vertex pair past the dimension's cap: every route that forms the
    # pair points refuses before forming them.
    cap = volumes.MAX_PAIR_POINTS[n]
    side = math.isqrt(cap)
    first, second = moment_curve_body(n, side + 1), moment_curve_body(n, side)
    for route in (
        lambda: combine(1, first, 1, second),
        lambda: combine(F(1, 3), first, F(2, 3), second),
        lambda: volume_polynomial(first, second),
        lambda: mixed_volume_interp(second, first),
    ):
        with pytest.raises(PairPointsError, match=f"at most {cap} "):
            route()


def test_pair_record_keeps_the_ambient_check():
    # Shadows on a line are legal 1D bodies.  The pair record forms their
    # pair points itself, so it checks the dimension as convex_hull does.
    line = Subspace(((1, 2, 3),))
    first, second = project(unit_cube(), line), project(standard_simplex(3), line)
    assert first.dim == second.dim == 1
    for route in (
        lambda: combine(1, first, 1, second),
        lambda: combine(1, first, 2, second),
        lambda: mixed_volume_interp(first, second),
    ):
        with pytest.raises(AmbientDimError, match="^ambient dimension 1 outside 2..4$"):
            route()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_zero_coefficient_scales_the_other_body(n, monkeypatch):
    # No pair point is formed, so a pair past the cap combines with no hull.
    side = math.isqrt(volumes.MAX_PAIR_POINTS[n])
    first, second = moment_curve_body(n, side + 1), moment_curve_body(n, side)
    hulls = count_calls(monkeypatch, "_hull_with_boundary")
    assert combine(0, first, 1, second) == second
    assert combine(2, first, 0, second) == scale(first, 2)
    assert hulls == []


def test_equal_coefficients_scale_the_minkowski_sum(monkeypatch):
    first, second = moment_curve_body(3, 5), moment_curve_body(3, 4)
    total = combine(1, first, 1, second)
    hulls = count_calls(monkeypatch, "_hull_with_boundary")
    for a in (F(1, 2), F(2), F(7, 3)):
        assert combine(a, first, a, second) == scale(total, a)
    assert hulls == []
