"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line (run with -s to see them); all comparisons
are exact rational unless the criterion itself states a numeric tolerance.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from convexkit import cli, io
from convexkit.bodies import (
    box,
    diamond,
    disc_polygon,
    random_direction,
    random_polytope,
    segment,
    standard_simplex,
    unit_cube,
    unit_square,
)
from convexkit.geometry import (
    convex_hull,
    reflect_through_hyperplane,
    scale,
    support,
    translate,
    vertex_centroid,
)
from convexkit.homothety import (
    default_direction_set,
    detect_homothety,
    functional_equality_sweep,
    homothetic_projections_conclude,
)
from convexkit.inequalities import (
    Verdict,
    bm_check,
    minkowski_check,
    profile_polynomial,
    derivative_identity_check,
)
from convexkit.reconstruction import (
    corner_normalize,
    farey_directions,
    mixed_area_oracle,
    recover_support_any,
    translates_decision,
)
from convexkit.steiner import steiner_symmetral, superadditivity_check
from convexkit.volumes import (
    combine,
    mixed_area,
    mixed_volume_base_height,
    mixed_volume_interp,
    projection_prism_volume,
)

from conftest import save_body

LAMBDA_GRID = tuple(F(k, 8) for k in range(9))
SLACK_FLOOR = F(-1, 10**30)


def _passed(text):
    print(f"PASS {text}")


def _random_shift(rng, dim):
    return tuple(F(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(dim))


def test_c01_oracle_equivalence():
    """[1] base-height and interpolation mixed volumes agree exactly."""
    start = time.time()
    rng = random.Random(101)
    checked = 0
    for dim, npts in ((2, 6), (3, 5)):
        for _ in range(100):
            first = random_polytope(dim, npts, rng)
            second = random_polytope(dim, npts, rng)
            assert (
                mixed_volume_interp(first, second)
                == mixed_volume_base_height(first, second)
            )
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 1 exceeded its runtime budget: {elapsed:.1f}s"
    _passed(f"[1] oracle equivalence on {checked} pairs ({elapsed:.1f}s)")


def test_c02_inequality_soundness():
    """[2] no Violation verdicts; concavity slack >= -1e-30 across the grid."""
    rng = random.Random(202)
    pairs = 0
    for dim, npts in ((2, 6), (3, 5)):
        for _ in range(200):
            first = random_polytope(dim, npts, rng)
            second = random_polytope(dim, npts, rng)
            mmv = minkowski_check(first, second)
            assert mmv.verdict in (Verdict.STRICT, Verdict.EQUALITY)
            for lam in LAMBDA_GRID:
                report = bm_check(first, second, lam)
                assert report.verdict in (Verdict.STRICT, Verdict.EQUALITY)
                assert F(report.slack_numeric) >= SLACK_FLOOR
            pairs += 1
    _passed(f"[2] inequality soundness on {pairs} pairs x 9 weights")


def test_c03_equality_iff_homothety():
    """[3] homothetic pairs give exact Equality + sound witness; random
    non-homothetic pairs give exact Strict."""
    rng = random.Random(303)
    ratios = [F(1, 3), F(1, 2), F(1), F(2), F(3)]
    for i in range(50):
        dim = 2 if i % 2 == 0 else 3
        base = random_polytope(dim, dim + 3, rng)
        a = ratios[i % 5]
        x = _random_shift(rng, dim)
        moved = translate(scale(base, a), x)
        assert minkowski_check(moved, base).verdict is Verdict.EQUALITY
        decision = detect_homothety(base, moved)
        assert decision.witness is not None
        assert (decision.witness.ratio, decision.witness.shift) == (a, x)
    strict = 0
    while strict < 50:
        dim = 2 if strict % 2 == 0 else 3
        first = random_polytope(dim, dim + 3, rng)
        second = random_polytope(dim, dim + 3, rng)
        if detect_homothety(first, second).homothetic:
            continue
        assert minkowski_check(first, second).verdict is Verdict.STRICT
        strict += 1
    _passed("[3] equality iff homothety on 50 + 50 pairs")


def test_c04_projection_identity():
    """[4] n * V_{n-1,1}(K, [0,w]) equals the prism volume, exactly."""
    rng = random.Random(404)
    for dim, npts in ((2, 6), (3, 5)):
        for _ in range(25):
            body = random_polytope(dim, npts, rng)
            for _ in range(10):
                w = random_direction(dim, rng)
                seg = segment(tuple(F(0) for _ in range(dim)), w)
                lhs = dim * mixed_volume_interp(body, seg)
                assert lhs == projection_prism_volume(body, w)
    _passed("[4] projection identity on 50 bodies x 10 directions")


def test_c05_mixed_volume_algebra():
    """[5] diagonal, homogeneity, second-argument linearity, translation
    invariance; plus the frozen asymmetry witness."""
    rng = random.Random(505)
    scales = [F(1, 2), F(1), F(3)]
    for i in range(50):
        dim = 2 if i % 2 == 0 else 3
        first = random_polytope(dim, dim + 3, rng)
        second = random_polytope(dim, dim + 2, rng)
        third = random_polytope(dim, dim + 2, rng)
        mv = mixed_volume_base_height
        assert mv(first, first) == first.volume
        a, b = scales[i % 3], scales[(i + 1) % 3]
        assert (
            mv(scale(first, a), scale(second, b))
            == a ** (dim - 1) * b * mv(first, second)
        )
        assert (
            mv(first, combine(1, second, 1, third))
            == mv(first, second) + mv(first, third)
        )
        shift = _random_shift(rng, dim)
        assert mv(translate(first, shift), second) == mv(first, second)
        assert mv(first, translate(second, shift)) == mv(first, second)

    # Asymmetry witness in dimension 3, found by seeded search over boxes
    # and simplices (seed 303, first trial) and frozen here.
    first = box(2, F(2, 3), F(7, 2))
    second = scale(standard_simplex(3), F(4, 3))
    lhs = mixed_volume_base_height(first, second)
    rhs = mixed_volume_base_height(second, first)
    assert (lhs, rhs) == (F(128, 27), F(148, 81))
    assert lhs != rhs
    _passed("[5] mixed-volume algebra on 50 triples + asymmetry witness")


def test_c06_support_reconstruction():
    """[6] recovered supports match direct supports on the 64-direction
    grid; translate decisions are correct both ways."""
    rng = random.Random(606)
    grid = farey_directions()
    for _ in range(25):
        body = corner_normalize(random_polytope(2, 7, rng)).body
        oracle = mixed_area_oracle(body)
        for w in grid:
            assert recover_support_any(oracle, w) == support(body, w)
    for _ in range(25):
        body = random_polytope(2, 6, rng)
        moved = translate(body, _random_shift(rng, 2))
        decision = translates_decision(body, moved)
        assert decision.translation is not None
        got = translate(body, decision.translation)
        assert got == moved
    rejected = 0
    while rejected < 25:
        first = random_polytope(2, 6, rng)
        second = random_polytope(2, 6, rng)
        if corner_normalize(first).body == corner_normalize(second).body:
            continue
        assert translates_decision(first, second).translation is None
        rejected += 1
    _passed("[6] reconstruction identity on 25 polygons; 25 + 25 translate decisions")


def test_c07_projection_pipeline():
    """[7] constructed homothetic 3D pairs conclude Homothetic with the
    right witness; perturbed pairs conclude NotHomothetic with a direction."""
    rng = random.Random(707)
    dirs = default_direction_set(3)
    ratios = [F(1, 3), F(1, 2), F(1), F(2), F(3)]
    for i in range(25):
        base = random_polytope(3, 6, rng)
        a = ratios[i % 5]
        x = _random_shift(rng, 3)
        moved = translate(scale(base, a), x)
        report = homothetic_projections_conclude(base, moved, dirs)
        assert report.witness is not None
        assert (report.witness.ratio, report.witness.shift) == (a, x)
    for _ in range(25):
        base = random_polytope(3, 6, rng)
        centroid = vertex_centroid(base)
        v = base.vertices[rng.randrange(len(base.vertices))]
        outward = tuple(c - d for c, d in zip(v, centroid))
        pulled = tuple(c + o + F(1, 5) * (1 if o >= 0 else -1) for c, o in zip(v, outward))
        perturbed = convex_hull(list(base.vertices) + [pulled])
        report = homothetic_projections_conclude(base, perturbed, dirs)
        assert report.witness is None
        assert report.failing_direction is not None
    _passed("[7] projection pipeline on 25 homothetic + 25 perturbed 3D pairs")


def test_c08_functional_sweep():
    """[8] equal-volume homothetic pairs sweep all-equal with constant
    volumes; strict pairs are refuted by a concrete row."""
    rng = random.Random(808)
    grid = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    for i in range(10):
        dim = 2 if i % 2 == 0 else 3
        base = random_polytope(dim, dim + 3, rng)
        moved = translate(base, _random_shift(rng, dim))  # equal volume forces a = 1
        trace = functional_equality_sweep(base, moved, grid)
        assert trace.refutation is None and trace.witness is not None
        assert all(v == base.volume for _, v in trace.volumes)
        assert all(x == y for _, _, x, y in trace.mixed_pairs)
    strict_pairs = []
    for s, t in [(F(2), F(1)), (F(4), F(1)), (F(3), F(2)), (F(5), F(2)), (F(8), F(3))]:
        strict_pairs.append((box(s, 1 / s), box(t, 1 / t)))
        strict_pairs.append(
            (box(s, 1, 1 / s), box(1, t, 1 / t))
        )
    for first, second in strict_pairs:
        assert minkowski_check(first, second).verdict is Verdict.STRICT
        trace = functional_equality_sweep(first, second, grid)
        assert trace.witness is None
        assert trace.refutation is not None
    _passed("[8] functional sweep on 10 homothetic + 10 strict equal-volume pairs")


def test_c09_steiner():
    """[9] exact planar volume preservation, symmetry, idempotence;
    superadditivity; 3D inner bound and exactness on boxes/simplices."""
    rng = random.Random(909)
    for _ in range(50):
        body = random_polytope(2, 6, rng)
        for _ in range(4):
            w = random_direction(2, rng)
            sym = steiner_symmetral(body, w)
            assert sym.volume == body.volume
            assert sym == reflect_through_hyperplane(sym, w)
            assert steiner_symmetral(sym, w) == sym
    for _ in range(25):
        first = random_polytope(2, 5, rng)
        second = random_polytope(2, 5, rng)
        w = random_direction(2, rng)
        assert superadditivity_check(first, second, w) is None
    exact_3d = [unit_cube(), box(2, 1, F(1, 2)), standard_simplex(3)]
    for body in exact_3d:
        for w in [(0, 0, 1), (1, 0, 0), (0, 1, 0)]:
            result = steiner_symmetral(body, w)
            assert result.volume <= body.volume
            assert abs(result.volume - body.volume) <= F(1, 10**9)
            assert result.volume == body.volume
    for _ in range(10):
        body = random_polytope(3, 6, rng)
        w = random_direction(3, rng)
        assert steiner_symmetral(body, w).volume <= body.volume
    _passed("[9] steiner: 50x4 planar, 25 superadditivity, 3D bounds")


def test_c10_derivative_identity():
    """[10] both derivative routes agree exactly; the slope at zero is
    nonnegative whenever the volumes agree."""
    rng = random.Random(1010)
    for i in range(50):
        dim = 2 if i % 2 == 0 else 3
        first = random_polytope(dim, dim + 3, rng)
        second = random_polytope(dim, dim + 2, rng)
        assert derivative_identity_check(first, second) == 0
    equal_volume_pairs = [
        (unit_square(), box(3, F(1, 3))),
        (unit_square(), translate(unit_square(), (5, -1))),
        (unit_cube(), box(2, 1, F(1, 2))),
        (unit_cube(), box(F(1, 2), 4, F(1, 2))),
        (box(2, F(1, 2)), box(F(1, 4), 4)),
    ]
    for first, second in equal_volume_pairs:
        assert first.volume == second.volume
        slope = profile_polynomial(first, second)[1]
        assert slope >= 0
    _passed("[10] derivative identity on 50 pairs + slope sign on equal volumes")


def test_c11_ball_approximation():
    """[11] the inscribed 4m-gon drives n V_{n-1,1}(square, disc) to the
    square's perimeter within 1e-6 at m = 10**4."""
    approx = disc_polygon(10**4)
    value = 2 * mixed_area(unit_square(), approx)
    assert value <= 4
    assert 4 - value < F(1, 10**6)
    _passed(f"[11] ball approximation: deficit {float(4 - value):.2e} < 1e-6")


def test_c12_cli_contract(tmp_path, capsys):
    """[12] round-trip, determinism, and exit codes on a fixture corpus."""
    bodies = {
        "square": unit_square(),
        "cube": unit_cube(),
        "diamond": diamond(),
        "rect": box(2, 1),
        "homothet": translate(scale(unit_square(), 2), (3, 4)),
    }
    paths = {}
    for name, body in bodies.items():
        p = tmp_path / f"{name}.json"
        save_body(body, p)
        paths[name] = str(p)
        again = io.load_body(p)
        assert again == body
        assert io.dumps_body(again) == p.read_text()

    def run(argv):
        code = cli.run(argv)
        out = capsys.readouterr().out
        return code, out

    for argv in (
        ["volume", paths["square"]],
        ["mixedvol", paths["square"], paths["diamond"], "--method", "both"],
        ["check", paths["square"], paths["rect"], "--form", "bm", "--lambda", "1/2"],
        ["check", paths["square"], paths["homothet"], "--form", "mmv"],
        ["equality-diagnose", paths["square"], paths["homothet"]],
        ["random-body", "--dim", "2", "--vertices", "6", "--seed", "7"],
        ["reconstruct", paths["rect"]],
        ["steiner", paths["square"], "--direction", "1,1"],
    ):
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert code1 == code2 == 0
        assert out1 == out2

    bad = tmp_path / "collinear.json"
    bad.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "1"], ["2", "2"]]}))
    assert run(["volume", str(bad)])[0] == 3
    garbage = tmp_path / "garbage.json"
    garbage.write_text("[1, 2")
    assert run(["volume", str(garbage)])[0] == 2
    code, out = run(["equality-diagnose", paths["square"], paths["diamond"]])
    assert code == 0 and json.loads(out)["result"]["refutation"] is not None
    _passed("[12] CLI round-trip, determinism, exit codes")
