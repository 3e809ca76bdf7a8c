import importlib.util
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit.bodies import (
    axis_segment,
    box,
    diamond,
    random_polytope,
    standard_simplex,
    unit_cube,
    unit_square,
)
from convexkit.errors import LambdaRangeError, LowerDimensionalError, ZeroVolumeError
from convexkit.geometry import convex_hull, scale, translate
from convexkit.homothety import detect_homothety
from convexkit.inequalities import (
    Verdict,
    bm_check,
    concavity_profile,
    default_lambda_grid,
    derivative_identity_check,
    minkowski_check,
    mmv_implies_bm_trace,
    normalized_check,
    profile_polynomial,
)
from convexkit import geometry
from convexkit.volumes import combine, mixed_volume_interp


def test_bm_strict_rectangle(square, rect):
    r = bm_check(square, rect, F(1, 2))
    assert r.verdict is Verdict.STRICT
    assert r.quantities["volume_mix"] == F(3, 2)
    # sqrt(3/2) - (1 + sqrt 2)/2 = 0.017638...
    assert r.slack_numeric.startswith("0.01763809")


def test_bm_equality_translates(square):
    r = bm_check(square, translate(square, (5, 5)), F(3, 10))
    assert r.verdict is Verdict.EQUALITY


def test_bm_equality_homothety(square):
    r = bm_check(square, translate(scale(square, 3), (1, 1)), F(1, 2))
    assert r.verdict is Verdict.EQUALITY
    assert r.quantities["volume_mix"] == 4


@pytest.mark.parametrize("body", [unit_square(), unit_cube()], ids=["square", "cube"])
def test_bm_equality_shows_an_exact_zero_slack(body):
    # At lam = 1/2 with ratio 4/3 the floored roots sum to just below 0; an
    # exact zero sign is shown as 0, never as "-0.000...".
    r = bm_check(body, translate(scale(body, F(4, 3)), (1,) * body.dim), F(1, 2))
    assert r.verdict is Verdict.EQUALITY
    assert r.slack_numeric == "0." + "0" * 50


def test_bm_validation(square):
    with pytest.raises(LambdaRangeError):
        bm_check(square, square, F(3, 2))
    with pytest.raises(LowerDimensionalError):
        bm_check(square, axis_segment(2, 0), F(1, 2))


def test_bm_verdict_matches_mmv_verdict():
    # Two routes to the equality case: bm from the three volumes alone, mmv
    # from the mixed volume.  They must agree on random pairs and on
    # homothetic copies (the second body scaled and moved).
    rng = random.Random(4)
    for dim in (2, 3):
        for _ in range(4):
            first = random_polytope(dim, dim + 3, rng)
            second = random_polytope(dim, dim + 3, rng)
            ratio = F(rng.randint(1, 9), rng.randint(1, 4))
            shift = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(dim))
            for other in (second, translate(scale(first, ratio), shift)):
                expected = minkowski_check(first, other).verdict
                for lam in (F(1, 3), F(1, 2), F(5, 7)):
                    assert bm_check(first, other, lam).verdict is expected
    assert expected is Verdict.EQUALITY


def test_bm_strict_for_equal_volumes_not_homothetic():
    # Equal volumes make the ratio a = 1 rational, so the volume of the
    # combination must refute equality on its own.
    simplex = standard_simplex(3)
    mirror = convex_hull([tuple(-x for x in v) for v in simplex.vertices])
    assert mirror.volume == simplex.volume
    assert bm_check(simplex, mirror, F(1, 2)).verdict is Verdict.STRICT
    thin = box(2, F(1, 2))
    assert thin.volume == 1
    assert bm_check(unit_square(), thin, F(1, 2)).verdict is Verdict.STRICT
    assert minkowski_check(simplex, mirror).verdict is Verdict.STRICT


def test_bm_volume_matches_combination_differential():
    # bm's volume of (1-lam)K + lam L against the hull of that combination on
    # the 9-point grid, lam = 0 and 1 included: seeded pairs in 2D-4D, a
    # homothetic copy of the first body (ratio and shift) and a translate.
    rng = random.Random(17)
    for dim, size, count in ((2, 6, 3), (3, 6, 2), (4, 5, 1)):
        for _ in range(count):
            first = random_polytope(dim, size, rng)
            second = random_polytope(dim, size, rng)
            ratio = F(rng.randint(1, 9), rng.randint(1, 4))
            shift = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(dim))
            for other in (second, translate(scale(first, ratio), shift), translate(first, shift)):
                for lam in default_lambda_grid():
                    got = bm_check(first, other, lam).quantities["volume_mix"]
                    assert got == combine(1 - lam, first, lam, other).volume

def test_bm_sweep_combines_nothing_after_interpolation(monkeypatch):
    # The interpolated mixed volume builds one hull, of K + L, and reads its
    # later nodes off that hull's boundary cycle; a bm sweep over the
    # 9-point grid then reads every volume from that pair's polynomial and
    # builds no hull.  Every hull is built by geometry._hull_with_boundary.
    first, second = (random_polytope(3, 6, random.Random(seed)) for seed in (7001, 7002))
    built = []
    real = geometry._hull_with_boundary

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        built.append(result[0])
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("convexkit") and getattr(module, "_hull_with_boundary", None) is real:
            monkeypatch.setattr(module, "_hull_with_boundary", counting)
    mixed_volume_interp(first, second)
    assert len(built) == 1
    for lam in default_lambda_grid():
        bm_check(first, second, lam)
    assert built == [combine(1, first, 1, second)]


def test_minkowski_strict(square, dia):
    r = minkowski_check(square, dia)
    assert r.verdict is Verdict.STRICT
    assert (r.lhs_exact, r.rhs_exact) == (4, 2)


def test_minkowski_equality_homothety(square):
    r = minkowski_check(square, translate(scale(square, 2), (7, 0)))
    assert r.verdict is Verdict.EQUALITY


def test_minkowski_degenerate_trivial(square):
    r = minkowski_check(axis_segment(2, 0), square)
    assert r.degenerate
    assert r.verdict is Verdict.EQUALITY  # trivial-case convention
    assert r.rhs_exact == 0


def test_normalized_quotients(square, dia, cube):
    assert normalized_check(square, square).lhs_exact == 1
    r = normalized_check(square, dia)
    assert r.verdict is Verdict.STRICT and r.lhs_exact == 2
    r2 = normalized_check(cube, box(2, 1, F(1, 2)))
    assert r2.verdict is Verdict.STRICT
    assert r2.lhs_exact == F(343, 216)  # (7/6)^3 over unit volumes
    with pytest.raises(ZeroVolumeError):
        normalized_check(axis_segment(2, 0), square)


def test_concavity_profile_translates(square):
    p = concavity_profile(square, translate(square, (1, 0)), (0, F(1, 2), 1))
    assert [f for _, f in p.samples] == [1, 1, 1]
    assert all(p.certificates)


def test_concavity_profile_rectangle(square, rect):
    p = concavity_profile(square, rect, (0, F(1, 2), 1))
    assert [f for _, f in p.samples] == [1, F(3, 2), 2]
    assert all(p.certificates)
    # Only evenly spaced triples get a certificate: (1/4, 1/2, 1) gets none.
    uneven = concavity_profile(square, rect, (0, F(1, 4), F(1, 2), 1))
    assert len(uneven.samples) == 4 and uneven.certificates == (True,)


@pytest.mark.parametrize("ratio", [2, F(7, 3)])
def test_concavity_profile_homothetic_simplex(ratio):
    # f(t)^(1/3) is affine in t, so every midpoint certificate is an exact
    # equality, and it holds at every digit count.
    simplex = standard_simplex(3)
    for digits in (0, 2, 50):
        p = concavity_profile(simplex, scale(simplex, ratio), digits=digits)
        assert len(p.certificates) == 7
        assert all(p.certificates)


@settings(max_examples=30, deadline=None)
@given(
    dim=st.sampled_from((2, 3)),
    kind=st.sampled_from(("random", "homothetic", "nudged")),
    seed=st.integers(0, 2**32),
    ratio=st.fractions(min_value=F(1, 4), max_value=4, max_denominator=5),
    lam=st.fractions(min_value=0, max_value=1, max_denominator=9),
)
def test_verdicts_do_not_depend_on_digits(dim, kind, seed, ratio, lam):
    # Random pairs, homothetic copies, and copies with one vertex moved by
    # 10**-6, where the slack is far below what 0 or 2 digits display.
    rng = random.Random(seed)
    first = random_polytope(dim, dim + 3, rng)
    shift = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(dim))
    second = translate(scale(first, ratio), shift)
    if kind == "random":
        second = random_polytope(dim, dim + 3, rng)
    elif kind == "nudged":
        moved = (second.vertices[0][0] + F(1, 10**6),) + tuple(second.vertices[0][1:])
        second = convex_hull([moved, *second.vertices[1:]])
    digits = (0, 2, 50)
    verdicts = {bm_check(first, second, lam, digits=d).verdict for d in digits}
    profiles = {concavity_profile(first, second, digits=d).certificates for d in digits}
    assert len(verdicts) == 1 and Verdict.VIOLATION not in verdicts
    assert len(profiles) == 1 and all(profiles.pop())
    if 0 < lam < 1:
        homothetic = detect_homothety(first, second).homothetic
        assert (verdicts == {Verdict.EQUALITY}) == homothetic


def test_concavity_profile_homothety_affine_roots(square):
    p = concavity_profile(square, scale(square, 2), (0, F(1, 2), 1))
    assert [f for _, f in p.samples] == [1, F(9, 4), 4]
    assert [r[:6] for r in p.root_renderings] == ["1.0000", "1.5000", "2.0000"]


def test_concavity_default_grid(square, rect):
    p = concavity_profile(square, rect)
    assert len(p.samples) == 9
    assert len(p.certificates) == 7
    assert all(p.certificates)


def test_profile_polynomial_expansion(square, rect):
    # f(t) = V((1-t)S + tR) = (1+t) exactly: area of [0,1+t] x [0,1].
    assert profile_polynomial(square, rect) == (1, 1, 0)


def test_derivative_identity(square, dia, cube):
    assert derivative_identity_check(square, square) == 0
    assert derivative_identity_check(square, dia) == 0
    assert derivative_identity_check(cube, translate(cube, (1, 2, 3))) == 0


def test_derivative_value_from_mixed_volume(square, dia):
    # f'(0) = -n V(K) + n V_{n-1,1}(K, L) = -2 + 2*2 = 2 for the diamond.
    coeffs = profile_polynomial(square, dia)
    assert coeffs[1] == 2


def test_mmv_implies_bm_trace(square, rect, cube):
    tr = mmv_implies_bm_trace(square, rect, F(1, 2))
    assert tr.volume_mix == F(3, 2)
    assert (tr.term_first, tr.term_second) == (F(5, 4), F(7, 4))
    assert tr.identity_holds and tr.bound_first_holds and tr.bound_second_holds
    tr2 = mmv_implies_bm_trace(square, square, F(2, 7))
    assert tr2.identity_holds and tr2.volume_mix == 1
    tr3 = mmv_implies_bm_trace(cube, scale(cube, 2), F(1, 2))
    assert tr3.volume_mix == F(27, 8)
    assert (tr3.term_first, tr3.term_second) == (F(9, 4), F(9, 2))
    assert tr3.identity_holds


def load_fuzz_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "inequality_fuzz.py"
    spec = importlib.util.spec_from_file_location("inequality_fuzz", path)
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    return fuzz


def test_inequality_fuzz_script_4d(capsys):
    # Every fifth pair is a homothetic copy, so six pairs give one Equality.
    load_fuzz_script().main(["--pairs", "6", "--dim", "4"])
    out = capsys.readouterr().out
    assert "6 pairs in dimension 4" in out
    assert "Strict:   5" in out and "Equality: 1" in out


def test_inequality_fuzz_script_3d_zero_digits(capsys):
    # At --digits 0 the bm sign bracket starts at 10 places: the Equality
    # pairs take the exact-zero path from there, the others its integer
    # bracket at low precision.
    load_fuzz_script().main(["--pairs", "10", "--dim", "3", "--digits", "0"])
    out = capsys.readouterr().out
    assert "10 pairs in dimension 3 (seed 0, 0 digits)" in out
    assert "Strict:   8" in out and "Equality: 2" in out


def test_inequality_fuzz_script_3d_ten_points(capsys):
    # Hulls of 10 random points: most of a pair's 40 to 60 vertex sums are
    # not vertices of K + L, so the record's hull inserts many points that
    # it does not keep.
    load_fuzz_script().main(["--pairs", "20", "--dim", "3", "--vertices", "10", "--seed", "1"])
    out = capsys.readouterr().out
    assert "20 pairs in dimension 3 (seed 1, 50 digits)" in out
    assert "Strict:   16" in out and "Equality: 4" in out
