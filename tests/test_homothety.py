from fractions import Fraction as F

import pytest

from convexkit.bodies import box, random_polytope, unit_cube, unit_square
from convexkit.errors import (
    DimensionError,
    NotHomotheticProjectionError,
    VolumeMismatchError,
)
from convexkit.geometry import bodies_equal, convex_hull, project, scale, translate
from convexkit.homothety import (
    ProjectionConclusion,
    SweepConclusion,
    apply_witness,
    default_direction_set,
    detect_homothety,
    functional_equality_sweep,
    homothetic_projections_conclude,
    hyperplane_subspace,
    normalize_shadows,
    projection_equality_step,
)
from conftest import make_rng


def test_detect_scaled_translate(square):
    d = detect_homothety(square, translate(scale(square, 2), (3, 4)))
    assert d.witness.ratio == 2
    assert d.witness.shift == (3, 4)


def test_detect_rejects_rectangle(square, rect):
    d = detect_homothety(square, rect)
    assert not d.homothetic
    assert d.reason == "volume-ratio-not-rational-power"


def test_detect_square_rotation_is_translate(square):
    # Rotating the square by 90 degrees about its center maps it to itself.
    c = (F(1, 2), F(1, 2))
    rotated = convex_hull(
        [(c[0] - (y - c[1]), c[1] + (x - c[0])) for x, y in square.vertices]
    )
    d = detect_homothety(square, rotated)
    assert d.witness.ratio == 1 and d.witness.shift == (0, 0)


def test_detect_equal_volume_non_homothetic(square):
    d = detect_homothety(square, box(2, F(1, 2)))
    assert not d.homothetic
    assert d.reason == "candidate-transform-mismatch"


def test_detect_witness_soundness(cube):
    rng = make_rng(11)
    for _ in range(10):
        base = random_polytope(3, 6, rng)
        a = F(rng.choice([1, 2, 3]), rng.choice([1, 2, 3]))
        x = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
        moved = translate(scale(base, a), x)
        d = detect_homothety(base, moved)
        assert d.witness == type(d.witness)(a, x)
        assert bodies_equal(moved, apply_witness(base, d.witness))


def test_normalize_shadows_cube(cube):
    first, second, tf = normalize_shadows(cube, translate(scale(cube, 2), (1, 1, 1)))
    assert bodies_equal(first, second)
    assert bodies_equal(first, cube)
    assert tf.ratio == F(1, 2)


def test_normalize_shadows_vertical_translate(cube):
    first, second, _ = normalize_shadows(cube, translate(cube, (0, 0, 9)))
    assert bodies_equal(first, cube) and bodies_equal(second, cube)


def test_normalize_shadows_rejects(cube):
    with pytest.raises(NotHomotheticProjectionError):
        normalize_shadows(cube, box(2, 1, 1))
    with pytest.raises(DimensionError):
        normalize_shadows(unit_square(), unit_square())


def test_normalize_shadow_projections_agree_after(cube):
    # For homothetic pairs, all hyperplane shadows of the normalized bodies
    # coincide, not only the bottom one (the scale is forced to 1).
    first, second, _ = normalize_shadows(cube, translate(scale(cube, 3), (2, -1, 5)))
    for w in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -2, 0)]:
        xi = hyperplane_subspace(w)
        assert bodies_equal(project(first, xi), project(second, xi))


def test_conclude_homothetic(cube):
    dirs = default_direction_set(3)
    rep = homothetic_projections_conclude(cube, translate(scale(cube, 3), (2, 0, 1)), dirs)
    assert rep.conclusion is ProjectionConclusion.HOMOTHETIC
    assert rep.witness.ratio == 3 and rep.witness.shift == (2, 0, 1)


def test_conclude_identity(cube):
    rep = homothetic_projections_conclude(cube, cube, default_direction_set(3))
    assert rep.witness.ratio == 1 and rep.witness.shift == (0, 0, 0)


def test_conclude_pulled_vertex(cube):
    pulled = convex_hull(list(cube.vertices) + [(2, 2, 2)])
    rep = homothetic_projections_conclude(cube, pulled, default_direction_set(3))
    assert rep.conclusion is ProjectionConclusion.NOT_HOMOTHETIC
    assert rep.failing_direction is not None


def test_conclude_requires_last_axis(cube):
    with pytest.raises(ValueError):
        homothetic_projections_conclude(cube, cube, [(1, 0, 0), (0, 1, 0)])


def test_sweep_translates(square):
    trace = functional_equality_sweep(square, translate(square, (4, 4)), (0, F(1, 2), 1))
    assert trace.conclusion is SweepConclusion.HOMOTHETIC
    assert all(v == 1 for _, v in trace.volumes)
    assert all(a == b for _, _, a, b in trace.mixed_pairs)


def test_sweep_refutes_rectangle(square):
    flat = box(2, F(1, 2))  # area 1, not a translate of the square
    trace = functional_equality_sweep(square, flat, (0, F(1, 2), 1))
    assert trace.conclusion is SweepConclusion.NOT_EQUALITY_CASE
    assert trace.refutation is not None


def test_sweep_volume_precondition(square, rect):
    with pytest.raises(VolumeMismatchError):
        functional_equality_sweep(square, rect)


def test_sweep_direction_pairs(cube):
    moved = translate(cube, (1, 2, 3))
    trace = functional_equality_sweep(
        cube, moved, (0, F(1, 2)), directions=((1, 0, 0), (1, 1, 0))
    )
    assert all(a == b for _, _, a, b in trace.direction_pairs)


def test_projection_equality_step(cube, square):
    assert projection_equality_step(cube, translate(cube, (1, 2, 3)), F(1, 2), (1, 0, 0)) == (1, 1)
    assert projection_equality_step(cube, cube, F(1, 4), (1, 1, 0)) == (2, 2)
    flat = box(2, F(1, 2))
    assert projection_equality_step(square, flat, 0, (1, 0)) == (1, F(1, 2))


def test_base_case_equal_sweep_means_translates(square):
    # Planar base case: an all-equal sweep over probe triangles forces a
    # translate pair, confirmed by the reconstruction module's certificate.
    from convexkit.reconstruction import probe_triangle, translates_decision

    probes = tuple(probe_triangle(w).triangle for w in [(1, 1), (1, 2), (2, 1), (1, 3)])
    moved = translate(square, (7, -2))
    trace = functional_equality_sweep(square, moved, (0, F(1, 2), 1), probes)
    assert trace.conclusion is SweepConclusion.HOMOTHETIC
    assert trace.witness.ratio == 1
    assert translates_decision(square, moved).are_translates
