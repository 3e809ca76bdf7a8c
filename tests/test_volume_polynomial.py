"""The volume polynomial kept once per pair, and the routes it must agree with.

``volumes.volume_polynomial`` keeps ``volumes._interpolated_polynomial``'s
result for the last 8 ordered pairs.  The kept polynomial must equal a
fresh interpolation, its inner coefficients must equal the base-height
mixed volumes by Minkowski's theorem, its checks must still fire on every
call when they fail, and a repeat call on an equal pair must do no work.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_combine_memo import count_calls
from test_integer_rows import bodies

from convexkit import io, volumes
from convexkit.bodies import box, random_polytope, standard_simplex, unit_cube, unit_square
from convexkit.errors import InvariantError
from convexkit.geometry import convex_hull, scale, translate
from convexkit.inequalities import derivative_identity_check, profile_polynomial
from convexkit.volumes import (
    _interpolated_polynomial,
    mixed_volume_base_height,
    mixed_volume_interp,
    volume_polynomial,
)

from conftest import save_body


def cyclic_body(n, count, shift):
    """The cyclic polytope with vertices (t, t^2, ..., t^n), t = shift..shift+count-1."""
    return convex_hull([tuple(F(shift + k) ** e for e in range(1, n + 1)) for k in range(count)])


def assert_routes_agree(first, second):
    kept = volume_polynomial(first, second)
    assert kept == _interpolated_polynomial(first, second)
    # Minkowski's theorem: c_1 = n V(K[n-1], L) and c_(n-1) = n V(L[n-1], K).
    n = first.dim
    assert kept.coefficients[1] == n * mixed_volume_base_height(first, second)
    assert kept.coefficients[n - 1] == n * mixed_volume_base_height(second, first)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kept_polynomial_matches_interpolation_and_base_heights(n):
    rng = random.Random(f"assembled/{n}")
    for k in range({2: 40, 3: 24, 4: 8}[n]):
        first = random_polytope(n, rng.randint(n + 1, n + 4), rng)
        if k % 4 == 3:
            ratio = F(rng.randint(1, 5), rng.randint(1, 3))
            second = translate(scale(first, ratio), tuple(F(rng.randint(-5, 5)) for _ in range(n)))
        else:
            second = random_polytope(n, rng.randint(n + 1, n + 4), rng)
        assert_routes_agree(first, second)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(bodies(n), bodies(n))))
def test_kept_polynomial_on_integer_row_bodies(pair):
    first, second = pair
    assume(first.is_full_dimensional and second.is_full_dimensional)
    assume(len(first.lifted) * len(second.lifted) <= volumes.MAX_PAIR_POINTS[first.dim])
    assert_routes_agree(first, second)


def test_kept_polynomial_on_boxes_and_at_the_cap():
    cube = unit_cube()
    assert volume_polynomial(cube, box(1, 2, 3)).coefficients == (1, 6, 11, 6)
    assert volume_polynomial(box(1, 2, 3), cube).coefficients == (6, 11, 6, 1)
    assert volume_polynomial(unit_square(), box(2, 3)).coefficients == (1, 5, 6)
    assert volume_polynomial(box(1, 1, 1, 1), box(1, 2, 1, 3)).coefficients == (1, 7, 17, 17, 6)
    for first, second in ((cube, box(1, 2, 3)), (box(1, 1, 1, 1), standard_simplex(4))):
        assert_routes_agree(first, second)
    # 16 x 16 vertex pairs: exactly the 4D cap, every pair point a vertex of K + L.
    first, second = cyclic_body(4, 16, 0), cyclic_body(4, 16, 1)
    assert len(first.lifted) * len(second.lifted) == volumes.MAX_PAIR_POINTS[4]
    assert_routes_agree(first, second)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_wrong_node_fails_on_every_call(n, monkeypatch):
    first, second = box(*range(1, n + 1)), standard_simplex(n)
    volume_polynomial.cache_clear()
    real = volumes._minkowski_sum

    def wrong_last_node(a, b):
        record = real(a, b)
        return replace(record, nodes=record.nodes[:-1] + (record.nodes[-1] + 1,))

    monkeypatch.setattr(volumes, "_minkowski_sum", wrong_last_node)
    for routine in (volume_polynomial, volume_polynomial, mixed_volume_interp, profile_polynomial):
        # The cache keeps no exception: the check fails on every call.
        with pytest.raises(InvariantError, match="^volume polynomial failed the redundant-node check$"):
            routine(first, second)
    assert volume_polynomial.cache_info().currsize == 0
    monkeypatch.setattr(volumes, "_minkowski_sum", real)
    assert_routes_agree(first, second)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_wrong_base_height_fails_only_the_derivative_identity(n, monkeypatch):
    first, second = box(*range(1, n + 1)), standard_simplex(n)
    poly = volume_polynomial(first, second)
    interp = mixed_volume_interp(first, second)
    profile = profile_polynomial(first, second)
    real = volumes.mixed_volume_base_height
    monkeypatch.setattr(volumes, "mixed_volume_base_height", lambda a, b: real(a, b) + 1)
    monkeypatch.setattr("convexkit.inequalities.mixed_volume_base_height", volumes.mixed_volume_base_height)
    volume_polynomial.cache_clear()
    assert volume_polynomial(first, second) == poly
    assert mixed_volume_interp(first, second) == interp
    assert profile_polynomial(first, second) == profile
    # c10 compares the true interpolation with the wrong base-height.
    assert derivative_identity_check(first, second) == -n


def test_a_wrong_volume_field_is_caught_on_a_miss():
    first, second = unit_cube(), box(1, 2, 3)
    wrong = replace(first, volume=F(2))
    assert wrong == first
    volume_polynomial.cache_clear()
    with pytest.raises(InvariantError, match="^volume polynomial end coefficients differ from the volumes$"):
        volume_polynomial(wrong, second)
    # The key is the bodies' rows: an equal body reads the kept polynomial.
    poly = volume_polynomial(first, second)
    assert volume_polynomial(wrong, second) is poly


def test_repeat_pair_reads_the_kept_polynomial(tmp_path, monkeypatch):
    rng = random.Random(9401)
    first, second = (random_polytope(3, 6, rng) for _ in range(2))
    save_body(first, tmp_path / "first.json")
    copy = io.load_body(tmp_path / "first.json")
    assert copy is not first and copy == first
    volume_polynomial.cache_clear()
    solves = count_calls(monkeypatch, "solve")
    poly = volume_polynomial(first, second)
    assert len(solves) == 1
    assert volume_polynomial(copy, second) is poly
    assert len(solves) == 1
    for k in range(1, 4):
        assert mixed_volume_interp(copy, second) == poly.coefficients[1] / 3
        assert len(solves) == 1 + k
    info = volume_polynomial.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 1, 8)
