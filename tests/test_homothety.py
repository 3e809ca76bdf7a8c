from fractions import Fraction as F

import pytest

from convexkit.bodies import box, random_polytope, segment, unit_cube, unit_square
from convexkit.errors import (
    DimensionError,
    LambdaRangeError,
    NotHomotheticProjectionError,
    VolumeMismatchError,
)
from convexkit.geometry import _homothety, bodies_equal, convex_hull, project, scale, translate
from convexkit.homothety import (
    default_direction_set,
    detect_homothety,
    functional_equality_sweep,
    homothetic_projections_conclude,
    hyperplane_subspace,
    normalize_shadows,
    projection_equality_step,
    strict_refutation,
)
from convexkit.inequalities import (
    bm_check,
    concavity_profile,
    default_lambda_grid,
    mmv_implies_bm_trace,
)
from convexkit.volumes import combine, mixed_volume_base_height
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
        assert bodies_equal(moved, _homothety(base, d.witness.ratio, d.witness.shift))


def test_normalize_shadows_cube(cube):
    first, second, ratio = normalize_shadows(cube, translate(scale(cube, 2), (1, 1, 1)))
    assert bodies_equal(first, second)
    assert bodies_equal(first, cube)
    assert ratio == F(1, 2)


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
    assert rep.witness is not None
    assert rep.witness.ratio == 3 and rep.witness.shift == (2, 0, 1)


def test_conclude_identity(cube):
    rep = homothetic_projections_conclude(cube, cube, default_direction_set(3))
    assert rep.witness.ratio == 1 and rep.witness.shift == (0, 0, 0)


def test_conclude_pulled_vertex(cube):
    pulled = convex_hull(list(cube.vertices) + [(2, 2, 2)])
    rep = homothetic_projections_conclude(cube, pulled, default_direction_set(3))
    assert rep.witness is None
    assert rep.failing_direction is not None


@pytest.mark.parametrize(
    "first, second, directions",
    [
        (unit_cube(), box(1, 1, 2), ((0, 0, 1),)),
        # A vertical shear keeps the floor shadow and the volume.
        (
            box(1, 1, 1, 1),
            convex_hull([(*p[:3], p[3] + p[0]) for p in box(1, 1, 1, 1).vertices]),
            ((0, 0, 0, 1),),
        ),
    ],
    ids=["cube-box", "4d-shear"],
)
def test_conclude_after_every_shadow_matched(first, second, directions):
    # Every listed shadow is homothetic, so the bottom shadow's candidate is
    # the certificate, and it fails to map the first body onto the second.
    rep = homothetic_projections_conclude(first, second, directions)
    assert rep.witness is None and rep.failing_direction is None
    assert rep.reason == "normalized-bodies-differ"


def test_conclude_requires_last_axis(cube):
    with pytest.raises(ValueError):
        homothetic_projections_conclude(cube, cube, [(1, 0, 0), (0, 1, 0)])


def test_sweep_translates(square):
    trace = functional_equality_sweep(square, translate(square, (4, 4)), (0, F(1, 2), 1))
    assert trace.refutation is None and trace.witness is not None
    assert all(v == 1 for _, v in trace.volumes)
    assert all(a == b for _, _, a, b in trace.mixed_pairs)


def test_sweep_refutes_rectangle(square):
    flat = box(2, F(1, 2))  # area 1, not a translate of the square
    trace = functional_equality_sweep(square, flat, (0, F(1, 2), 1))
    assert trace.witness is None
    assert trace.refutation is not None


def test_sweep_volume_precondition(square, rect):
    with pytest.raises(VolumeMismatchError):
        functional_equality_sweep(square, rect)


def test_sweep_direction_pairs(cube):
    # A segment test body [0, w] gives the projection row in w:
    # n V_{n-1,1}(K, [0, w]) = prism(K, w).
    moved = translate(cube, (1, 2, 3))
    directions = ((1, 0, 0), (1, 1, 0))
    segments = tuple(segment((0, 0, 0), w) for w in directions)
    trace = functional_equality_sweep(cube, moved, (0, F(1, 2)), segments)
    rows = [row for row in trace.mixed_pairs if row[1] >= 2]
    assert len(rows) == 4
    for lam, idx, a, b in rows:
        assert (3 * a, 3 * b) == projection_equality_step(cube, moved, lam, directions[idx - 2])


def test_sweep_prisms_second_once_per_direction(cube, monkeypatch):
    # V_{n-1,1}(L, M) does not depend on lam: 5 lam x 5 bodies (the pair
    # and 3 segments) take 25 values of the combination and 5 of the second
    # body, not 50.
    import convexkit.homothety as homothety

    calls = []
    real = homothety.mixed_volume_base_height

    def counting(body, m):
        calls.append(1)
        return real(body, m)

    monkeypatch.setattr(homothety, "mixed_volume_base_height", counting)
    directions = ((1, 0, 0), (0, 1, 0), (1, 1, 0))
    segments = tuple(segment((0, 0, 0), w) for w in directions)
    trace = functional_equality_sweep(cube, translate(cube, (1, 2, 3)), test_bodies=segments)
    rows = [row for row in trace.mixed_pairs if row[1] >= 2]
    assert len(rows) == 15
    assert all(a == b for _, _, a, b in rows)
    assert len(calls) == 30


def test_projection_equality_step(cube, square):
    assert projection_equality_step(cube, translate(cube, (1, 2, 3)), F(1, 2), (1, 0, 0)) == (1, 1)
    assert projection_equality_step(cube, cube, F(1, 4), (1, 1, 0)) == (2, 2)
    flat = box(2, F(1, 2))
    assert projection_equality_step(square, flat, 0, (1, 0)) == (1, F(1, 2))


def test_base_case_equal_sweep_means_translates(square):
    # Planar base case: an all-equal sweep over probe triangles forces a
    # translate pair, confirmed by the reconstruction module's certificate.
    from convexkit.reconstruction import translates_decision

    # Triangles conv{0, (b, 0), (0, a)}, whose hypotenuse normal is (a, b).
    normals = [(1, 1), (1, 2), (2, 1), (1, 3)]
    probes = tuple(convex_hull([(0, 0), (b, 0), (0, a)]) for a, b in normals)
    moved = translate(square, (7, -2))
    trace = functional_equality_sweep(square, moved, (0, F(1, 2), 1), probes)
    assert trace.refutation is None and trace.witness is not None
    assert trace.witness.ratio == 1
    assert translates_decision(square, moved).translation is not None


def test_conclude_decides_bottom_shadow_once(cube, monkeypatch):
    # The loop's decision for the direction e_n is the bottom shadow's, so
    # the 27 default directions take 27 decisions, not 28.
    import convexkit.homothety as homothety

    calls = []
    real = homothety.detect_homothety

    def counting(first, second):
        calls.append(1)
        return real(first, second)

    monkeypatch.setattr(homothety, "detect_homothety", counting)
    dirs = default_direction_set(3)
    assert len(dirs) == 27
    rep = homothetic_projections_conclude(cube, translate(scale(cube, 3), (2, 0, 1)), dirs)
    assert rep.witness is not None
    assert len(calls) == 27


def _stretched_to_volume(body, volume):
    # Scaling the first coordinate multiplies the volume by the same factor.
    c = volume / body.volume
    return convex_hull([(c * p[0], *p[1:]) for p in body.vertices])


def _equal_volume_strict_pairs():
    rng = make_rng(37)
    pairs = []
    for dim in (2, 3):
        for _ in range(2):
            first = random_polytope(dim, 6, rng)
            pairs.append((first, _stretched_to_volume(random_polytope(dim, 6, rng), first.volume)))
        sheared = [(p[0] + F(3, 2) * p[1], *p[1:]) for p in first.vertices]
        pairs.append((first, convex_hull(sheared)))
    return pairs


def test_strict_refutation_matches_full_sweep():
    # Only the pair itself can hold the first failing row of an
    # equal-volume sweep, so the extra test bodies change nothing.
    for first, second in _equal_volume_strict_pairs():
        assert first.volume == second.volume
        assert not detect_homothety(first, second).homothetic
        for grid in (None, (1, F(1, 2)), (F(1, 3), 0)):
            full = functional_equality_sweep(
                first, second, default_lambda_grid() if grid is None else grid
            )
            assert strict_refutation(first, second, grid) == full.refutation
            assert full.refutation is not None
        for call in (strict_refutation, functional_equality_sweep):
            with pytest.raises(LambdaRangeError):
                call(first, second, (0, 2))


@pytest.mark.parametrize("lam", [2, F(-1, 2)], ids=["2", "-1/2"])
def test_out_of_range_lambda_is_one_error(square, rect, lam):
    # Every library entry point that takes an interpolation weight checks it
    # first, with the message the CLI prints; the unequal volumes would stop
    # the sweep later.
    calls = (
        lambda: bm_check(square, rect, lam),
        lambda: mmv_implies_bm_trace(square, rect, lam),
        lambda: concavity_profile(square, rect, (0, lam)),
        lambda: strict_refutation(square, rect, (0, lam)),
        lambda: functional_equality_sweep(square, rect, (0, lam)),
        lambda: projection_equality_step(square, rect, lam, (1, 0)),
    )
    for call in calls:
        with pytest.raises(LambdaRangeError) as error:
            call()
        assert str(error.value) == f"lambda {lam} outside [0, 1]"


def _first_quotient_row(first, second, grid):
    # Every grid value in order, each against the pair, stopping at the
    # first row whose scale-free quotient differs from the reference.
    n = first.dim
    bodies = (second, first)
    references = [mixed_volume_base_height(second, m) ** n / second.volume ** (n - 1) for m in bodies]
    for lam in grid:
        mid = combine(1 - lam, first, lam, second)
        for idx, (m, q_ref) in enumerate(zip(bodies, references)):
            q_mid = mixed_volume_base_height(mid, m) ** n / mid.volume ** (n - 1)
            if q_mid != q_ref:
                return {
                    "kind": "scale-free-quotient",
                    "lambda": lam,
                    "body_index": idx,
                    "quotient_mix": q_mid,
                    "quotient_second": q_ref,
                }
    return None


def test_strict_refutation_matches_full_search_for_unequal_volumes():
    rng = make_rng(41)
    pairs = []
    for dim in (2, 3, 4):
        for _ in range(2):
            pairs.append((random_polytope(dim, dim + 3, rng), random_polytope(dim, dim + 3, rng)))
        first = pairs[-1][0]
        pairs.append((first, convex_hull([(p[0] + F(3, 2) * p[1], *p[1:]) for p in scale(first, 2).vertices])))
    for first, second in pairs:
        assert first.volume != second.volume
        assert not detect_homothety(first, second).homothetic
        for grid in (None, (1, F(1, 2)), (F(1, 3), 0), (1, 1, F(7, 8))):
            full = _first_quotient_row(first, second, default_lambda_grid() if grid is None else grid)
            assert full is not None and full["body_index"] == 0
            assert strict_refutation(first, second, grid) == full


def test_strict_refutation_sweeps_the_pair_only(monkeypatch):
    # A sheared hexagon against the original: the 2 references and the 2
    # rows at lam = 0, the one grid value evaluated, where the whole
    # default grid would take 20 calls.
    import convexkit.homothety as homothety

    calls = []
    real = homothety.mixed_volume_base_height

    def counting(first, second):
        calls.append(1)
        return real(first, second)

    monkeypatch.setattr(homothety, "mixed_volume_base_height", counting)
    hexagon = convex_hull([(60, 1), (31, 52), (-30, F(105, 2)), (-59, 0), (-30, -52), (30, -51)])
    sheared = convex_hull([(x + F(7, 3) * y, y) for x, y in hexagon.vertices])
    refutation = strict_refutation(hexagon, sheared)
    assert refutation == {"kind": "mixed", "lambda": 0, "body_index": 0}
    assert len(calls) == 4
