"""Every ``InvariantError`` check, tripped by corrupting the one seam it
guards.

A check compares two routes to one quantity, so on correct code it never
fires, and a check that no test trips could be deleted with every other
test still passing.  Each test here corrupts one input or one routine that
the check reads, and asserts the error's class and message.
``test_hygiene.py`` requires every message raised in ``src/convexkit`` to
appear in some test.
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from convexkit import homothety, numeric, reconstruction, steiner
from convexkit.bodies import unit_cube, unit_square
from convexkit.errors import InvariantError
from convexkit.geometry import scale, translate
from convexkit.homothety import HomothetyWitness, normalize_shadows
from convexkit.linalg import vadd
from convexkit.numeric import signed_root_combination
from convexkit.reconstruction import recover_support_any, translates_decision
from convexkit.steiner import rounding_iteration, steiner_symmetral
from convexkit.volumes import VolumePolynomial


def test_a_shifted_shadow_witness_fails_the_normalized_shadows(monkeypatch):
    # The bottom shadows' witness, moved off by e_1 in the chart, sets L's
    # shadow beside K's instead of on it.
    real = homothety.detect_homothety

    def shifted(first, second):
        decision = real(first, second)
        witness = HomothetyWitness(decision.witness.ratio, vadd(decision.witness.shift, (1, 0)))
        return replace(decision, witness=witness)

    monkeypatch.setattr(homothety, "detect_homothety", shifted)
    cube = unit_cube()
    with pytest.raises(InvariantError, match="^normalized bottom shadows differ$"):
        normalize_shadows(cube, translate(scale(cube, 2), (1, 1, 1)))


def test_wrong_corner_normals_fail_to_close_a_probe(monkeypatch):
    # With +e1 in place of -e1, w = (1, 1) and the corner normals lie in one
    # half-plane, so no positive multipliers close the probe.
    monkeypatch.setattr(reconstruction, "_CORNER", ((1, 0), (0, -1)))
    with pytest.raises(InvariantError, match=r"^probe normals \(.*\) do not close$"):
        recover_support_any(lambda probe: F(0), (1, 1))


def test_a_skewed_oracle_fails_on_equal_bodies(monkeypatch):
    # The second body's mixed areas, each one more than the true value,
    # recover other supports for a translate of the first body.
    real = reconstruction.mixed_area_oracle
    made = []

    def skewed(body):
        oracle = real(body)
        made.append(oracle)
        return oracle if len(made) == 1 else (lambda probe: oracle(probe) + 1)

    monkeypatch.setattr(reconstruction, "mixed_area_oracle", skewed)
    square = unit_square()
    with pytest.raises(InvariantError, match="^recovered supports disagree on equal bodies$"):
        translates_decision(square, translate(square, (3, F(1, 2))))


def test_a_halved_volume_fails_the_symmetrals():
    # The symmetral is hulled from the chords, so it keeps the true volume,
    # which exceeds the body's corrupted field: in 3D as an inner
    # approximant too large, in 2D as a changed area.
    with pytest.raises(InvariantError, match="^inner approximant exceeded true volume$"):
        steiner_symmetral(replace(unit_cube(), volume=F(1, 2)), (1, 0, 0))
    with pytest.raises(InvariantError, match="^planar symmetral must preserve area$"):
        steiner_symmetral(replace(unit_square(), volume=F(1, 2)), (1, 0))


def test_a_growing_symmetral_fails_the_rounding_iteration(monkeypatch):
    monkeypatch.setattr(steiner, "steiner_symmetral", lambda body, w: scale(body, 2))
    with pytest.raises(InvariantError, match="^symmetrization changed the volume$"):
        rounding_iteration(unit_square(), [(1, 0)], 2)


def test_corrupt_polynomials_fail_their_checks():
    with pytest.raises(InvariantError, match="^volume polynomial has a zero denominator$"):
        VolumePolynomial((1, 2, 1), 0)
    with pytest.raises(InvariantError, match="^negative Steiner coefficient$"):
        VolumePolynomial((1, -1, 1))
    with pytest.raises(
        InvariantError, match="^volume polynomial violates the Aleksandrov-Fenchel inequalities$"
    ):
        VolumePolynomial((1, 0, 1))


def test_a_low_digit_cap_leaves_a_sign_undecided(monkeypatch):
    # sqrt(2) - sqrt(2 + 10**-60) needs about 60 digits to sign.
    monkeypatch.setattr(numeric, "MAX_SIGN_DIGITS", 40)
    terms = [(F(1), F(2), 2), (F(-1), 2 + F(1, 10**60), 2)]
    with pytest.raises(InvariantError, match="^sign of a root combination undecided at 40 digits$"):
        signed_root_combination(terms, 0)
