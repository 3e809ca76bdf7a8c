from fractions import Fraction as F

import pytest

from convexkit.bodies import random_polytope, unit_cube, unit_square
import convexkit.reconstruction as reconstruction
from convexkit import cli
from convexkit.errors import (
    DimensionError,
    GeometryError,
    OracleError,
    ZeroDirectionError,
    ZeroVolumeError,
)
from convexkit.geometry import convex_hull, scale, support, translate
from convexkit.reconstruction import (
    _closing_solution,
    _probe,
    corner_normalize,
    farey_directions,
    mixed_area_oracle,
    recover_support_any,
    translates_decision,
)
from convexkit.volumes import mixed_area, mixed_volume_interp
from conftest import make_rng, save_body


def test_corner_normalize_examples(square):
    cn = corner_normalize(convex_hull([(1, 1), (3, 1), (1, 4)]))
    assert cn.body == convex_hull([(0, 0), (2, 0), (0, 3)])
    assert cn.applied_translation == (-1, -1)
    cn2 = corner_normalize(square)
    assert cn2.body == square and cn2.applied_translation == (0, 0)
    cn3 = corner_normalize(translate(square, (-5, 2)))
    assert cn3.body == square and cn3.applied_translation == (5, -2)


def test_probe_triangle_construction():
    # The probe with outward normals w = (a, b), -e1 and -e2 and multipliers
    # c (1, a, b) is conv{0, (c b, 0), (0, c a)} up to a translation.
    corner = ((-1, 0), (0, -1))
    for w, c in (((1, 1), 1), ((1, 2), 1), ((3, 1), 2)):
        normals = (w, *corner)
        assert _closing_solution(normals) == (1, *w)
        probe = _probe(normals, (c, c * w[0], c * w[1]))
        triangle = convex_hull([(0, 0), (c * w[1], 0), (0, c * w[0])])
        assert corner_normalize(probe).body == triangle
        assert sorted(f.normal for f in probe.facets) == sorted(normals)
    # A zero multiplier leaves a segment.
    normals = ((1, 0), *corner)
    assert _closing_solution(normals) == (1, 1, 0)
    segment = _probe(normals, (1, 1, 0))
    assert segment.affine_dim == 1 and len(segment.vertices) == 2


def test_recover_first_quadrant(square):
    k = convex_hull([(0, 0), (2, 0), (0, 3)])
    assert recover_support_any(mixed_area_oracle(k), (1, 1)) == 3 == support(k, (1, 1))
    o = mixed_area_oracle(square)
    assert recover_support_any(o, (1, 1)) == 2
    assert recover_support_any(o, (1, 2)) == 3 == support(square, (1, 2))


def test_oracle_needs_a_corner_normalized_polygon():
    # Recovery takes h_K(-e1) = h_K(-e2) = 0.  Off the corner it returned
    # 4, 8 and 4 for the supports 6, 9 and 5 below: those of K - (1, 1).
    k = convex_hull([(1, 1), (4, 1), (1, 5)])
    with pytest.raises(GeometryError, match="^the mixed-area oracle needs a corner-normalized body$"):
        mixed_area_oracle(k)
    oracle = mixed_area_oracle(corner_normalize(k).body)
    for w, h in (((1, 1), 6), ((-1, 2), 9), ((0, 1), 5)):
        assert support(k, w) == h
        assert recover_support_any(oracle, w) == h - w[0] - w[1]
    for body, message in (
        (convex_hull([(0, 0), (1, 0)], allow_degenerate=True), "^bodies must be full-dimensional$"),
        (unit_cube(), "^corner normalization is a planar operation$"),
    ):
        with pytest.raises(DimensionError, match=message):
            mixed_area_oracle(body)


def expected_closing(w):
    """(corner normal, multipliers) of the probe with outward normals w, the
    corner normal and (1, 1), for w outside the closed first quadrant: for
    w = (-a, b), -e2 gives (1, a + b, a); for w = (a, -b), -e1 gives
    (1, a + b, b); for w = (-a, -b), -e1 gives (1, b - a, b) when b >= a
    and -e2 gives (1, a - b, a) otherwise."""
    x, y = w
    if x < 0 <= y:
        return (0, -1), (1, y - x, -x)
    if y < 0 <= x:
        return (-1, 0), (1, x - y, -y)
    if x < y:
        return (0, -1), (1, y - x, -x)
    return (-1, 0), (1, x - y, -y)


def test_first_auxiliary_normal_closes_every_other_direction(monkeypatch):
    # Outside the closed first quadrant the probe's normals are w, -e2 when
    # w_1 < w_2 and -e1 otherwise, and (1, 1): the choice a search over both
    # corner normals with (1, 1) made first, axes included.
    rng = make_rng(20)
    signed = [
        (sx * F(rng.randint(1, 99), rng.randint(1, 9)), sy * F(rng.randint(1, 99), rng.randint(1, 9)))
        for sx, sy in [(-1, 1), (-1, -1), (1, -1)]
        for _ in range(200)
    ]
    diagonal = [(F(-k, 3), F(-k, 3)) for k in range(1, 4)]
    outside = [w for w in farey_directions() if w[0] < 0 or w[1] < 0]
    directions = outside + [(F(-1), F(0)), (F(0), F(-1))] + signed + diagonal
    assert len(outside) == 47
    probes = []
    monkeypatch.setattr(reconstruction, "_probe", lambda *probe: probes.append(probe))
    for w in directions:
        recover_support_any(lambda probe: F(0), w)
        normals, lams = probes[-1]
        assert normals[0] == w and normals[2] == (1, 1), w
        assert (normals[1], lams) == expected_closing(w), w


def test_recover_scale_invariance(square):
    # The recovered value must not depend on the probe scale: the probe
    # with multipliers c lam has 2 A(K, T) = c lam_0 h_K(w) on a
    # corner-normalized K.
    w = (2, 3)
    normals = (w, (-1, 0), (0, -1))
    lams = _closing_solution(normals)
    values = set()
    for c in (1, F(1, 3), 5):
        probe = _probe(normals, tuple(c * lam for lam in lams))
        values.add(2 * mixed_area(square, probe) / (c * lams[0]))
    assert values == {support(square, w)}


def test_recover_other_quadrants(square):
    o = mixed_area_oracle(square)
    assert recover_support_any(o, (-1, 1)) == 1
    assert recover_support_any(o, (1, -1)) == 1
    k = convex_hull([(0, 0), (2, 0), (0, 3)])
    assert recover_support_any(mixed_area_oracle(k), (0, 1)) == 3


def test_recover_support_any_errors(square):
    oracle = mixed_area_oracle(square)
    with pytest.raises(DimensionError, match="^recovery is planar$"):
        recover_support_any(oracle, (1, 1, 1))
    with pytest.raises(ZeroDirectionError, match="^direction must be nonzero$"):
        recover_support_any(oracle, (0, 0))

    def dividing(probe):
        return F(1) / 0

    with pytest.raises(OracleError, match="^mixed-area oracle failed: ") as info:
        recover_support_any(dividing, (1, 2))
    assert isinstance(info.value.__cause__, ZeroDivisionError)
    error = ZeroVolumeError("the oracle's own error")

    def refusing(probe):
        raise error

    # Geometry errors are the oracle's answer and pass through unchanged.
    with pytest.raises(ZeroVolumeError) as info:
        recover_support_any(refusing, (-1, 2))
    assert info.value is error


def test_each_body_is_corner_normalized_once(square, tmp_path, capsys, monkeypatch):
    # The oracle checks the corner with two support calls and builds no
    # translated body of its own.
    moved = translate(square, (2, -1))
    path = tmp_path / "moved.json"
    save_body(moved, path)
    shifts = []
    real = reconstruction.translate

    def counting(body, x):
        shifts.append(x)
        return real(body, x)

    monkeypatch.setattr(reconstruction, "translate", counting)
    assert cli.run(["reconstruct", str(path)]) == 0
    assert '"all_agree": true' in capsys.readouterr().out
    assert shifts == [(-2, 1)]
    shifts.clear()
    assert translates_decision(square, moved).translation == (2, -1)
    assert shifts == [(0, 0), (-2, 1)]


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
    assert d.translation == (10, -3)
    flat_diamond = convex_hull([(1, 0), (-1, 0), (0, F(1, 2)), (0, -F(1, 2))])
    d2 = translates_decision(square, flat_diamond)  # both have area 1
    assert d2.translation is None and any(ha != hb for _, ha, hb in d2.trace)
    d3 = translates_decision(tri, scale(tri, 2))
    assert d3.translation is None


def _differential_directions(rng):
    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    negated_aux = [(-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1)]
    signed = [
        (sx * F(rng.randint(1, 9), rng.randint(1, 5)), sy * F(rng.randint(1, 9), rng.randint(1, 5)))
        for sx, sy in [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        for _ in range(4)
    ]
    return list(farey_directions()) + axes + negated_aux + signed


def test_recover_support_any_matches_support_differential():
    # Every direction class (grid, axes, antiparallel to a candidate, random
    # in each quadrant) under both exact mixed-area routes.
    rng = make_rng(61)
    bodies = [corner_normalize(random_polytope(2, k, rng)).body for k in range(3, 10)]
    bodies += [unit_square(), convex_hull([(0, 0), (3, 0), (0, 2)])]
    directions = _differential_directions(rng)
    for body in bodies:
        oracles = (mixed_area_oracle(body), lambda probe, b=body: mixed_volume_interp(b, probe))
        for oracle in oracles:
            for w in directions:
                assert recover_support_any(oracle, w) == support(body, w), (body, w)


def test_oracle_evaluates_each_probe_once(monkeypatch):
    import convexkit.reconstruction as reconstruction

    calls = []
    real = reconstruction.mixed_area

    def counting(body, probe):
        calls.append(1)
        return real(body, probe)

    monkeypatch.setattr(reconstruction, "mixed_area", counting)
    body = corner_normalize(random_polytope(2, 7, make_rng(8))).body
    oracle = mixed_area_oracle(body)
    assert all(recover_support_any(oracle, w) == support(body, w) for w in farey_directions())
    # One probe per grid direction, plus the auxiliary normal (1, 1)'s,
    # which every direction outside the closed first quadrant shares.
    assert len(calls) == 65


def test_probe_hulls_are_shared(monkeypatch):
    import convexkit.reconstruction as reconstruction

    calls = []
    real = reconstruction.convex_hull

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    bodies = [corner_normalize(random_polytope(2, 6, make_rng(seed))).body for seed in (21, 22)]
    reconstruction._probe.cache_clear()
    monkeypatch.setattr(reconstruction, "convex_hull", counting)
    counts = []
    for body in bodies:
        oracle = mixed_area_oracle(body)
        assert all(recover_support_any(oracle, w) == support(body, w) for w in farey_directions())
        counts.append(len(calls))
    # One probe per grid direction plus the auxiliary normal (1, 1)'s, built
    # once; the second body's probes are the first body's.
    assert counts == [65, 65]
