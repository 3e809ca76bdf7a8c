"""The integer forms of the per-call Brunn-Minkowski arithmetic against
their Fraction definitions.

``root_combination`` and ``signed_root_combination`` sum over a common
denominator in integers and compare the sign bracket in integers;
``minkowski_interpolate`` eliminates integer node values; and
``VolumePolynomial.combination_volume`` evaluates its Bernstein form in
integers.  Each must give the same Fraction, sign and error as the oracle
that works term by term in Fractions.  ``integer_nth_root``, whose Newton
steps start from a float seed, must give the floor root that bisection
(``math.isqrt`` for square roots) gives.  ``disc_polygon``'s integer best
approximation must give what ``Fraction.limit_denominator`` gives.
Each routine that takes lam checks it once per call, and
``VolumePolynomial`` names its integer contract when given other types,
with and without ``python -O``.
"""

import math
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from convexkit import inequalities, numeric, volumes
from convexkit.bodies import _best_approximation, box, random_polytope, unit_square
from convexkit.errors import InvariantError, LambdaRangeError
from convexkit.geometry import scale, translate
from convexkit.inequalities import bm_check, concavity_profile, default_lambda_grid
from convexkit.linalg import integer_nth_root
from convexkit.numeric import root_combination, signed_root_combination
from convexkit.volumes import VolumePolynomial, minkowski_interpolate, volume_polynomial

from oracles import (
    floor_root,
    fraction_combination_volume,
    fraction_interpolate,
    fraction_root_sum,
    fraction_signed_root_sum,
)

DIGITS = (0, 2, 50)


def coefficient(rng):
    """A nonzero int or Fraction coefficient."""
    if rng.random() < 0.4:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12))


def radicand(rng):
    return F(rng.randint(0, 50), rng.randint(1, 20)) if rng.random() > 0.1 else F(0)


def term_lists(seed, count):
    """Seeded sums of roots: unrelated terms, sums whose radical classes
    cancel exactly (also across degrees), Brunn-Minkowski slacks of
    homothetic volumes (exactly 0) and of nudged ones, and near-zero
    differences that need the precision doubled."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        kind = k % 5
        n = rng.choice([2, 3, 4])
        if kind == 0:
            terms = [(coefficient(rng), radicand(rng), rng.choice([2, 3, 4])) for _ in range(rng.randint(1, 4))]
        elif kind == 1:
            q, a, r = F(rng.randint(1, 30), rng.randint(1, 9)), coefficient(rng), F(rng.randint(1, 5), rng.randint(1, 4))
            terms = [(a, q * r**n, n), (-a * r, q, n)]
            if rng.random() < 0.5:
                terms.append((a, q**2, 2 * n))
                terms.append((-a, q, n))
        elif kind == 2:
            v1, ratio, lam = F(rng.randint(1, 99), rng.randint(1, 9)), F(rng.randint(1, 9), rng.randint(1, 4)), F(rng.randint(0, 8), 8)
            v_mid = v1 * ((1 - lam) + lam * ratio) ** n
            terms = [(F(1), v_mid, n), (lam - 1, v1, n), (-lam, v1 * ratio**n, n)]
        elif kind == 3:
            v1, v2, lam = F(rng.randint(1, 99), rng.randint(1, 9)), F(rng.randint(1, 99), rng.randint(1, 9)), F(rng.randint(1, 7), 8)
            v_mid = ((1 - lam) * v1 + lam * v2) * (1 + F(1, 10 ** rng.randint(1, 9)))
            terms = [(F(1), v_mid, n), (lam - 1, v1, n), (-lam, v2, n)]
        else:
            q = F(rng.randint(1, 30), rng.randint(1, 9))
            terms = [(1, q + F(1, 10 ** rng.randint(20, 120)), n), (-1, q, n)]
        out.append(terms)
    return out


@pytest.mark.parametrize("digits", DIGITS)
def test_root_combination_matches_fraction_sum(digits):
    for terms in term_lists(1400 + digits, 300):
        value = root_combination(terms, digits)
        assert isinstance(value, F)
        assert value == fraction_root_sum(terms, digits)


@pytest.mark.parametrize("digits", DIGITS)
def test_signed_root_combination_matches_fraction_bracket(digits):
    signs = set()
    for terms in term_lists(1500 + digits, 300):
        got = signed_root_combination(terms, digits)
        assert got == fraction_signed_root_sum(terms, digits, numeric.MAX_SIGN_DIGITS)
        signs.add(got[0])
    assert signs == {-1, 0, 1}


def test_sign_undecided_past_the_cap(monkeypatch):
    # sqrt(10**-25000) = 10**-12500 floors to 0 at every precision up to the
    # cap, and its one radical class does not cancel.
    tiny = [(F(1), F(1, 10**25000), 2)]
    assert fraction_signed_root_sum(tiny, 0, numeric.MAX_SIGN_DIGITS) is None
    with pytest.raises(InvariantError, match="undecided at 10000 digits"):
        signed_root_combination(tiny, 0)
    # sqrt(1 + 10**-300) - 1 is about 5 * 10**-301: decided under the cap,
    # undecided under a cap of 100 digits.
    near = [(1, 1 + F(1, 10**300), 2), (-1, F(1), 2)]
    assert signed_root_combination(near, 2) == fraction_signed_root_sum(near, 2, numeric.MAX_SIGN_DIGITS)
    monkeypatch.setattr(numeric, "MAX_SIGN_DIGITS", 100)
    assert fraction_signed_root_sum(near, 2, 100) is None
    with pytest.raises(InvariantError):
        signed_root_combination(near, 2)


def test_interpolation_matches_fraction_elimination():
    rng = random.Random(1600)
    for k in range(200):
        n = rng.randint(1, 4)
        coeffs = [F(rng.randint(0, 99), rng.randint(1, 30)) for _ in range(n + 1)]
        if k % 4 == 0:
            coeffs = [c.numerator for c in coeffs]
        values = [sum(c * e**i for i, c in enumerate(coeffs)) for e in range(n + 2)]
        numerators, den = minkowski_interpolate(values)
        assert all(type(c) is int for c in numerators)
        assert type(den) is int and den > 0
        got = tuple(F(c, den) for c in numerators)
        assert got == fraction_interpolate(values) == tuple(coeffs)
        # A corrupted node makes the system inconsistent.
        bad = list(values)
        bad[rng.randint(0, n + 1)] += F(1, rng.randint(1, 9 * 10**9))
        assert fraction_interpolate(bad) is None
        with pytest.raises(InvariantError, match="^volume polynomial failed the redundant-node check$"):
            minkowski_interpolate(bad)


def test_combination_volume_matches_bernstein_form():
    rng = random.Random(1700)
    grid = default_lambda_grid() + (F(1, 3), F(5, 7), 0, 1)
    for k in range(12):
        n = 2 + k % 2
        first = random_polytope(n, n + 3, rng)
        second = random_polytope(n, n + 3, rng) if k % 3 else translate(scale(first, F(3, 2)), (1,) * n)
        poly = volume_polynomial(first, second)
        for lam in grid:
            got = poly.combination_volume(F(lam))
            assert isinstance(got, F)
            assert got == fraction_combination_volume(poly.coefficients, lam)
        assert poly.combination_volume(F(0)) == first.volume
        assert poly.combination_volume(F(1)) == second.volume
    # (1 + eps)^3 gives 1 everywhere.
    cube = VolumePolynomial((1, 3, 3, 1))
    assert [cube.combination_volume(F(lam)) for lam in default_lambda_grid()] == [1] * 9


def test_combination_volume_takes_lambda_in_unit_interval():
    poly = VolumePolynomial((1, 0, 0))
    for lam in (F(-1, 2), F(3, 2), -0.5, 2):
        with pytest.raises(LambdaRangeError, match="outside \\[0, 1\\]"):
            poly.combination_volume(lam)
    # A float is read at its exact binary value: (1 - 1/2)^2 = 1/4.
    assert poly.combination_volume(0.5) == F(1, 4)
    assert poly.combination_volume(1) == 0


def test_each_lambda_is_checked_once_per_call(monkeypatch):
    # bm_check and concavity_profile check each lam once and evaluate the
    # polynomial at the checked value; a direct combination_volume call
    # checks its own.  A lam outside [0, 1] still raises on every route.
    calls = []
    real = volumes.as_lambda

    def counting(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(inequalities, "as_lambda", counting)
    monkeypatch.setattr(volumes, "as_lambda", counting)
    square, rect = unit_square(), box(2, 1)
    poly = volume_polynomial(square, rect)
    for route in (
        lambda lam: bm_check(square, rect, lam),
        poly.combination_volume,
        lambda lam: concavity_profile(square, rect, (lam,)),
    ):
        calls.clear()
        route(F(1, 3))
        assert calls == [F(1, 3)]
        for lam in (F(-1, 2), F(3, 2)):
            with pytest.raises(LambdaRangeError, match="outside \\[0, 1\\]"):
                route(lam)
    calls.clear()
    concavity_profile(square, rect, (0, F(1, 2), 1))
    assert calls == [0, F(1, 2), 1]
    calls.clear()
    concavity_profile(square, rect)
    assert calls == list(default_lambda_grid())


VOLUME_POLYNOMIAL_CONTRACT = """
import sys
from fractions import Fraction

sys.path.insert(0, sys.argv[1])
from convexkit.volumes import VolumePolynomial

for args in (((Fraction(1, 2), 1, 1),), ((1.0, 2, 1),), ((1, 2, 1), 1.5), ((1, 2, 1), Fraction(2))):
    try:
        VolumePolynomial(*args)
    except TypeError as exc:
        print(exc)
    else:
        print("accepted", args)
"""


def test_volume_polynomial_names_its_contract():
    # Non-integer numerators or denominators raise a TypeError that names
    # the contract, not math.gcd's; the check is no assert, so python -O
    # keeps it.
    message = "VolumePolynomial takes integer numerators over a nonzero integer denominator"
    for args in (((F(1, 2), 1, 1),), ((1.0, 2, 1),), ((1, 2, 1), 1.5), ((1, 2, 1), F(2))):
        with pytest.raises(TypeError, match=f"^{message}$"):
            VolumePolynomial(*args)
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", VOLUME_POLYNOMIAL_CONTRACT, str(Path(volumes.__file__).parent.parent)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{message}\n" * 4


def test_volume_polynomial_is_stored_in_lowest_terms():
    # One polynomial, 1/2 + eps + eps^2 / 2, written four ways.
    forms = [((1, 2, 1), 2), ((3, 6, 3), 6), ((-2, -4, -2), -4), ((10, 20, 10), 20)]
    polys = [VolumePolynomial(*form) for form in forms]
    assert {(p.numerators, p.denominator) for p in polys} == {((1, 2, 1), 2)}
    assert polys[0] == polys[2] and hash(polys[0]) == hash(polys[3])
    assert polys[1].coefficients == (F(1, 2), 1, F(1, 2))
    assert VolumePolynomial((0, 0, 0), 5) == VolumePolynomial((0, 0, 0))
    with pytest.raises(InvariantError, match="zero denominator"):
        VolumePolynomial((1, 2, 1), 0)
    with pytest.raises(InvariantError, match="negative Steiner coefficient"):
        VolumePolynomial((1, 2, 1), -2)


def nth_root_cases(rng):
    """(x, n) for n = 1..6: at every bit length 1..140 and at a stride up to
    2,000 bits, plus the bits where the float seed starts dropping low bits
    (40 n) and 50..62, a random x and, around its root r, r^n - 1, r^n,
    r^n + 1 and (r + 1)^n - 1."""
    cases = []
    for n in range(1, 7):
        lengths = {*range(1, 141), *range(141, 2001, 31), *range(50, 63), 1999, 2000}
        lengths |= {40 * n + d for d in (-1, 0, 1, n, n + 1)}
        for bits in sorted(lengths):
            x = rng.getrandbits(bits) | 1 << (bits - 1)
            r = math.isqrt(x) if n == 2 else floor_root(x, n)
            cases += [(y, n) for y in (x, r**n - 1, r**n, r**n + 1, (r + 1) ** n - 1) if y >= 0]
    return cases


def test_integer_nth_root_matches_bisection():
    for x, n in nth_root_cases(random.Random(2700)):
        r = integer_nth_root(x, n)
        assert r == (math.isqrt(x) if n == 2 else floor_root(x, n)), (x, n)
        assert r**n <= x < (r + 1) ** n


def test_best_approximation_matches_limit_denominator():
    rng = random.Random(24)
    cases = []
    for _ in range(4000):
        den = rng.choice([rng.randint(1, 50), rng.randint(1, 10**6), rng.getrandbits(80) + 1])
        bound = rng.choice([1, 2, 7, rng.randint(1, 1000), rng.randint(1, 10**7)])
        cases.append((F(rng.randint(-(10**9), 10**9), den), bound))
    # Floats, as ``disc_polygon`` passes them, on their exact binary values.
    for _ in range(2000):
        cases.append((F(rng.uniform(-4, 4) * 10 ** rng.randint(-6, 3)), rng.randint(1, 10**5)))
    # A denominator within the bound gives the value itself, negative ones
    # included, and half-integers tie at bound 1, where the floor wins.
    cases += [(F(k, d), b) for k in range(-20, 21) for d in range(1, 6) for b in range(d, 8)]
    cases += [(F(2 * k + 1, 2), 1) for k in range(-20, 20)]
    for x, bound in cases:
        y = x.limit_denominator(bound)
        assert _best_approximation(x.numerator, x.denominator, bound) == (y.numerator, y.denominator)
