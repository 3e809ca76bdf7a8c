"""Property-based suite: the structural invariants hold on arbitrary small
rational inputs, not just on the hand-picked fixtures."""

import json
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexkit import io
from convexkit.geometry import (
    Subspace,
    bodies_equal,
    convex_hull,
    project,
    support,
    translate,
)
from convexkit.inequalities import Verdict, bm_check, minkowski_check
from convexkit.linalg import dot, vadd, vscale
from convexkit.steiner import steiner_symmetral
from convexkit.volumes import (
    combine,
    mixed_area,
    mixed_volume_base_height,
    mixed_volume_interp,
    volume,
)

from oracles import validate_polytope

coords = st.fractions(min_value=-4, max_value=4, max_denominator=4)
small_nonneg = st.fractions(min_value=0, max_value=3, max_denominator=3)


def points_strategy(dim, min_points, max_points):
    return st.lists(
        st.tuples(*[coords] * dim), min_size=min_points, max_size=max_points
    )


def polytope_strategy(dim, max_points=7):
    return (
        points_strategy(dim, dim + 1, max_points)
        .map(lambda pts: convex_hull(pts, allow_degenerate=True))
        .filter(lambda b: b.is_full_dimensional)
    )


directions_2d = st.tuples(coords, coords).filter(lambda w: any(x != 0 for x in w))


@settings(max_examples=40, deadline=None)
@given(polytope_strategy(2), polytope_strategy(2), small_nonneg, small_nonneg, directions_2d)
def test_support_linearity(first, second, a, b, w):
    mixed = combine(a, first, b, second)
    assert support(mixed, w) == a * support(first, w) + b * support(second, w)


@settings(max_examples=40, deadline=None)
@given(polytope_strategy(2))
def test_hull_idempotence_and_canonical_form(body):
    validate_polytope(body)
    assert bodies_equal(convex_hull(body.vertices), body)


@settings(max_examples=25, deadline=None)
@given(polytope_strategy(2, max_points=6))
def test_extremality(body):
    for i in range(len(body.vertices)):
        rest = [v for j, v in enumerate(body.vertices) if j != i]
        assert not bodies_equal(convex_hull(rest, allow_degenerate=True), body)


@settings(max_examples=30, deadline=None)
@given(polytope_strategy(3, max_points=6), st.tuples(coords, coords, coords))
def test_projection_restriction(body, a_coords):
    assume(any(x != 0 for x in a_coords))
    xi = Subspace(((1, 0, 0), (0, 1, 1)))
    a = a_coords[:2]
    assume(any(x != 0 for x in a))
    w = vadd(vscale(a[0], xi.basis[0]), vscale(a[1], xi.basis[1]))
    assert support(project(body, xi), a) == support(body, w)


@settings(max_examples=30, deadline=None)
@given(polytope_strategy(2), polytope_strategy(2))
def test_mixed_volume_routes_agree(first, second):
    assert (
        mixed_volume_interp(first, second)
        == mixed_volume_base_height(first, second)
    )


@settings(max_examples=30, deadline=None)
@given(polytope_strategy(2), polytope_strategy(2))
def test_mixed_area_symmetric_nonnegative(first, second):
    a = mixed_area(first, second)
    assert a == mixed_area(second, first)
    assert a >= 0
    assert mixed_area(first, first) == volume(first)


@settings(max_examples=30, deadline=None)
@given(polytope_strategy(2), polytope_strategy(2))
def test_no_violation_fuzz(first, second):
    assert minkowski_check(first, second).verdict is not Verdict.VIOLATION
    report = bm_check(first, second, F(1, 2))
    assert report.verdict is not Verdict.VIOLATION


@settings(max_examples=25, deadline=None)
@given(polytope_strategy(2), st.tuples(coords, coords))
def test_translation_invariance_of_mixed_volume(body, shift):
    other = combine(1, body, 1, body)
    moved = translate(body, shift)
    assert (
        mixed_volume_base_height(moved, other)
        == mixed_volume_base_height(body, other)
    )
    assert (
        mixed_volume_base_height(other, moved)
        == mixed_volume_base_height(other, body)
    )


@settings(max_examples=25, deadline=None)
@given(polytope_strategy(2), directions_2d)
def test_steiner_preserves_area(body, w):
    assert steiner_symmetral(body, w).symmetral.volume == body.volume


@settings(max_examples=30, deadline=None)
@given(polytope_strategy(2))
def test_body_file_roundtrip(body):
    text = io.dumps_body(body)
    again = io.parse_body(json.loads(text))
    assert bodies_equal(body, again)
    assert io.dumps_body(again) == text
