import random
from fractions import Fraction as F

import pytest

from convexkit.bodies import (
    axis_segment,
    box,
    disc_polygon,
    random_polytope,
    segment,
    standard_simplex,
    unit_cube,
    unit_square,
)
from convexkit.errors import (
    AmbientDimError,
    DegenerateBasisError,
    DimensionError,
    DimensionMismatchError,
    LowerDimensionalError,
    ZeroDirectionError,
)
from convexkit.geometry import (
    Subspace,
    convex_hull,
    hyperplane_subspace,
    polygon_cycle,
    project,
    projected_volume_sq,
    reflect_through_hyperplane,
    scale,
    support,
    support_set,
    translate,
)
from convexkit import geometry
from convexkit.homothety import (
    detect_homothety,
    functional_equality_sweep,
    homothetic_projections_conclude,
    normalize_shadows,
)
from convexkit.inequalities import (
    bm_check,
    concavity_profile,
    derivative_identity_check,
    minkowski_check,
    mmv_implies_bm_trace,
    normalized_check,
)
from convexkit.reconstruction import _corner_shift
from convexkit.steiner import steiner_symmetral
from convexkit.volumes import (
    combine,
    mixed_volume_base_height,
    projection_prism_volume,
    surface_area,
    volume_polynomial,
)

from oracles import brute_support, shoelace_area, validate_polytope


def test_hull_drops_interior_point():
    body = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
    assert body.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)))
    validate_polytope(body)


def test_hull_triangle_normals():
    # Edge normals by 90-degree rotation of the edge vectors: the hull of
    # {(0,0),(1,0),(0,1)} must carry normals proportional to (0,-1), (-1,0), (1,1).
    body = convex_hull([(0, 0), (1, 0), (0, 1)])
    normals = {tuple(int(c) for c in f.normal) for f in body.facets}
    assert normals == {(0, -1), (-1, 0), (1, 1)}


def test_hull_collinear_raises():
    with pytest.raises(DimensionError):
        convex_hull([(0, 0), (1, 1), (2, 2)])


def test_hull_ambient_range():
    with pytest.raises(AmbientDimError):
        convex_hull([(0,), (1,)])
    with pytest.raises(AmbientDimError):
        convex_hull([(0,) * 5, tuple(range(1, 6))])
    with pytest.raises(DimensionError, match="^no points given$"):
        convex_hull([])
    with pytest.raises(DimensionMismatchError, match="^points of unequal length$"):
        convex_hull([(0, 0), (1, 0, 0)])


def test_body_constructors_refuse_too_few_points():
    with pytest.raises(ValueError, match="^need m >= 1$"):
        disc_polygon(0)
    with pytest.raises(ValueError, match=r"^need at least dim \+ 1 points$"):
        random_polytope(3, 3, random.Random(0))


def test_hull_canonical_across_orderings(square):
    shuffled = convex_hull([(1, 1), (0, 1), (1, 0), (0, 0), (1, 1)])
    assert square == shuffled


def test_hull_idempotent(cube):
    assert convex_hull(cube.vertices) == cube


def test_cube_facets(cube):
    assert len(cube.facets) == 6
    for f in cube.facets:
        assert f.pseudo_volume == 1
    validate_polytope(cube)


def test_hull_merges_coplanar_triangles():
    # Extra points in facet interiors and on edges must disappear.
    pts = list(unit_cube().vertices) + [
        (F(1, 2), F(1, 2), F(0)),
        (F(1, 2), F(0), F(0)),
        (F(1, 3), F(1, 3), F(1)),
    ]
    body = convex_hull(pts)
    assert body == unit_cube()


def test_support_values(square):
    assert support(square, (1, 1)) == 2
    assert support(square, (-1, 0)) == 0
    assert support(translate(square, (3, 4)), (0, 1)) == 5
    with pytest.raises(ZeroDirectionError):
        support(square, (0, 0))


@pytest.mark.parametrize(
    "routine",
    [support, support_set, reflect_through_hyperplane, projection_prism_volume, steiner_symmetral],
    ids=lambda routine: routine.__name__,
)
@pytest.mark.parametrize("n", [2, 3])
def test_every_direction_is_checked_by_one_rule(routine, n):
    # Length first, then zero: a zero direction of the wrong length is a
    # length error.
    body = box(*(1,) * n)
    with pytest.raises(ZeroDirectionError, match="^direction must be nonzero$"):
        routine(body, (0,) * n)
    for w in ((0,) * (n + 1), (1,) * (n - 1), (1,) * (n + 1), (0,) * (n - 1)):
        with pytest.raises(
            DimensionMismatchError, match="^direction length differs from ambient dimension$"
        ):
            routine(body, w)


# The unit square in the plane x_3 = 0: its shadow along e_3 is full.
FLAT = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], allow_degenerate=True)
FULL = unit_cube()
PAIR_ROUTINES = {
    "combine": lambda first, second: combine(1, first, 1, second),
    "volume_polynomial": volume_polynomial,
    "mixed_volume_base_height": mixed_volume_base_height,
    "detect_homothety": detect_homothety,
    "minkowski_check": minkowski_check,
    "bm_check": lambda first, second: bm_check(first, second, F(1, 2)),
    "normalized_check": normalized_check,
    "concavity_profile": concavity_profile,
    "derivative_identity_check": derivative_identity_check,
    "mmv_implies_bm_trace": lambda first, second: mmv_implies_bm_trace(first, second, F(1, 2)),
    "homothetic_projections_conclude": lambda first, second: homothetic_projections_conclude(
        first, second, [(0, 0, 1)]
    ),
    "normalize_shadows": normalize_shadows,
    "functional_equality_sweep": functional_equality_sweep,
}


@pytest.mark.parametrize("routine", PAIR_ROUTINES.values(), ids=PAIR_ROUTINES.keys())
def test_every_pair_routine_refuses_bodies_of_two_dimensions(routine, square, cube):
    # The pair rule comes before every other check, so a flat body of
    # another dimension, or a pair of unit volumes, is refused by it too.
    pairs = [(square, cube), (cube, standard_simplex(4)), (axis_segment(2, 0), cube), (FLAT, square)]
    for pair in pairs:
        for first, second in (pair, pair[::-1]):
            with pytest.raises(DimensionMismatchError, match="^bodies live in different dimensions$"):
                routine(first, second)


FLAT_BODY_CALLS = {
    "detect_homothety": lambda: detect_homothety(FLAT, FULL),
    "normalize_shadows": lambda: normalize_shadows(FLAT, FULL),
    "homothetic_projections_conclude": lambda: homothetic_projections_conclude(FLAT, FULL, [(0, 0, 1)]),
    "functional_equality_sweep": lambda: functional_equality_sweep(FLAT, FLAT),
    "bm_check": lambda: bm_check(FULL, FLAT, F(1, 2)),
    "concavity_profile": lambda: concavity_profile(FLAT, FULL),
    "derivative_identity_check": lambda: derivative_identity_check(FLAT, FULL),
    "mmv_implies_bm_trace": lambda: mmv_implies_bm_trace(FLAT, FULL, F(1, 2)),
    "mixed_volume_base_height": lambda: mixed_volume_base_height(FLAT, FULL),
    "surface_area": lambda: surface_area(FLAT),
    "steiner_symmetral": lambda: steiner_symmetral(FLAT, (1, 0, 0)),
    "_corner_shift": lambda: _corner_shift(segment((0, 0), (1, 1))),
}


@pytest.mark.parametrize("call", FLAT_BODY_CALLS.values(), ids=FLAT_BODY_CALLS.keys())
def test_every_flat_body_is_refused_by_one_rule(call):
    # A DimensionError too, as callers catch it.
    with pytest.raises(LowerDimensionalError, match="^bodies must be full-dimensional$") as error:
        call()
    assert isinstance(error.value, DimensionError)


def test_support_matches_brute_force(square, cube):
    for body in (square, cube):
        for w in [(1,) * body.dim, (-2, 3) + (1,) * (body.dim - 2)]:
            assert support(body, w) == brute_support(body.vertices, w)


def test_support_set(square, tri):
    edge = support_set(square, (1, 0))
    assert edge.vertices == ((F(1), F(0)), (F(1), F(1)))
    assert edge.affine_dim == 1
    corner = support_set(square, (1, 1))
    assert corner.vertices == ((F(1), F(1)),)
    t = convex_hull([(0, 0), (2, 0), (0, 3)])
    assert support_set(t, (1, 1)).vertices == ((F(0), F(3)),)


def test_project_cube_to_plane(cube, square):
    shadow = project(cube, Subspace(((1, 0, 0), (0, 1, 0))))
    assert shadow == square


def test_project_gram_chart(square):
    xi = Subspace(((1, 1),))
    shadow = project(square, xi)
    assert shadow.vertices == ((F(0),), (F(2),))
    # support convention: a coefficient vector a stands for w = a * (1,1)
    assert support(shadow, (1,)) == support(square, (1, 1))
    # true length squared: (2-0)^2 / det Gram = 4/2 = 2 = |diagonal|^2
    assert projected_volume_sq(square, xi) == 2


def test_project_degenerate_image():
    seg = axis_segment(2, 0)
    shadow = project(seg, Subspace(((0, 1),)))
    assert shadow.affine_dim == 0
    assert shadow.volume == 0
    assert projected_volume_sq(seg, Subspace(((0, 1),))) == 0


def test_subspace_validation():
    with pytest.raises(DegenerateBasisError):
        Subspace(((1, 0), (2, 0)))
    with pytest.raises(DegenerateBasisError):
        Subspace(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(DegenerateBasisError, match="^empty basis$"):
        Subspace(())
    with pytest.raises(DimensionMismatchError, match="^basis vectors of unequal length$"):
        Subspace(((1, 0), (0, 1, 0)))
    with pytest.raises(ZeroDirectionError, match="^direction must be nonzero$"):
        hyperplane_subspace((0, 0, 0))


def test_bodies_equal_exact(square):
    nudged = translate(square, (0, F(1, 1000000)))
    assert square != nudged
    assert scale(square, 2) == combine(1, square, 1, square)


def test_translate_scale_consistency(cube):
    moved = translate(scale(cube, F(3, 2)), (1, -2, F(1, 3)))
    rebuilt = convex_hull(moved.vertices)
    assert moved == rebuilt
    assert moved.volume == rebuilt.volume
    assert {f.normal for f in moved.facets} == {f.normal for f in rebuilt.facets}
    for f_a, f_b in zip(moved.facets, rebuilt.facets):
        assert (f_a.offset, f_a.pseudo_volume) == (f_b.offset, f_b.pseudo_volume)


def test_segment_and_degenerate_flags():
    seg = segment((0, 0, 0), (1, 2, 3))
    assert seg.affine_dim == 1
    assert seg.volume == 0
    assert seg.facets == ()
    flat = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)], allow_degenerate=True)
    assert flat.affine_dim == 2
    # extreme-point filtering also applies inside the affine hull
    flat2 = convex_hull(
        [(0, 0, 0), (2, 0, 0), (1, 0, 0)], allow_degenerate=True
    )
    assert flat2.vertices == ((F(0), F(0), F(0)), (F(2), F(0), F(0)))


def test_polygon_cycle(square, cube):
    cyc = polygon_cycle(square)
    assert len(cyc) == 4
    assert cyc[0] == (F(0), F(0))
    assert polygon_cycle(axis_segment(2, 0)) == [(F(0), F(0)), (F(1), F(0))]
    with pytest.raises(DimensionError, match="^polygon cycle requires ambient dimension 2$"):
        polygon_cycle(cube)


def test_extremality_removal_shrinks(cube):
    for i in range(len(cube.vertices)):
        rest = [v for j, v in enumerate(cube.vertices) if j != i]
        smaller = convex_hull(rest, allow_degenerate=True)
        assert smaller != cube


def test_4d_hull_box():
    body = convex_hull(
        [(a, b, c, d) for a in (0, 1) for b in (0, 1) for c in (0, 2) for d in (0, 1)]
    )
    assert body.volume == 2
    assert len(body.facets) == 8
    validate_polytope(body)


def test_hull_edge_point_on_many_facets(monkeypatch):
    # The join of the segment [A, B] on the x1 axis with an m-gon in the
    # plane x1 = 0, x2 = 1.  Its midpoint M = 0 lies in the triangulation of
    # every one of the m facets around [A, B], whose normals span only the
    # hyperplane x1 = 0.  Deciding that M is not a vertex must cost work
    # linear in m, not one determinant per 4 of those facets: at most one
    # determinant per input point.
    m = 40
    polygon = [(F(t), F(t * t)) for t in range(m)]
    ends = [(-1, 0, 0, 0), (1, 0, 0, 0)]
    gon = [(0, 1, x, y) for x, y in polygon]
    without_m = convex_hull(ends + gon)
    calls = []

    def counting(rows):
        calls.append(1)
        return real(rows)

    real = geometry.mat_det
    monkeypatch.setattr(geometry, "mat_det", counting)
    body = convex_hull(ends + [(0, 0, 0, 0)] + gon)
    assert body == without_m
    assert len(body.facets) == m + 2
    # vol(S * P) = |S| * area(P) * 1! 2! / 4! for unit separation.
    assert body.volume == shoelace_area(polygon) / 6
    assert len(calls) <= m + 3
