"""Differential test of the routines that run on a body's integer rows.

``support``, ``support_set``, every facet's offset and ``normal_sq``, and
``mixed_volume_base_height`` are checked against their ``Fraction``
definitions: the max of the dot products, the hull of the vertices that
attain it, and the running sum over facets.  Facet pseudo-volumes must
satisfy Minkowski's relation and give the body's volume by the pyramid
formula.  Inputs mix small rationals,
coordinates with 300-bit denominators (rational points on the unit circle
and sphere among them), flat bodies and single points, bodies from
``translate``, ``scale`` and ``combine``, and directions with
non-integer and negative entries.  The hull kernel's sorted distinct rows
must be the rows of the sorted distinct ``Fraction`` points, however the
coordinates are spelled, and the pair record's integer pair rows must
reduce to the rows of K + L's vertices.  Every constructor must return a
body whose rows are the canonical rows of its sorted vertices, and the
disc polygon, built from integer rows, must be the hull of its ``Fraction``
points on the unit circle.  ``project``, ``vertex_centroid``, the Steiner
symmetral and its containment test, and ``detect_homothety`` are checked
against the ``Fraction`` definitions in ``oracles``, on subspaces of every
dimension, directions and shifts with 61-bit prime denominators, and
homothetic pairs next to near misses.  ``translate``, ``scale`` and
``geometry._homothety`` must give the hull of the ``Fraction`` image points
a v + x: its rows, facets, volume and affine dimension.  On a seeded 2D-4D
corpus, 61-bit prime denominators, flat bodies and homothety images among
it, every facet's offset and pseudo-volume must be the brute-force
oracle's, as ``Fraction``s, and facets must compare equal after a homothety
and its inverse.  The disc polygon's rows must be those of its
``limit_denominator`` recipe for m = 1..200.  On the same corpus
``reflect_through_hyperplane`` must give the hull of the ``Fraction``
mirror points v - 2 (v.w / w.w) w.
"""

import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    _exact_root,
    affine_rank,
    brute_facets,
    brute_hull,
    centroid,
    fraction_maps_onto,
    fraction_outside,
    fraction_project,
    fraction_symmetral_points,
)
from test_hull_oracle import BIG_PRIMES

from convexkit import homothety, io, volumes
from convexkit.bodies import disc_polygon
from convexkit.errors import DimensionMismatchError
from convexkit.geometry import (
    Subspace,
    _homothety,
    _hull_with_boundary,
    _lift,
    _point,
    bodies_equal,
    convex_hull,
    project,
    reflect_through_hyperplane,
    scale,
    support,
    support_set,
    translate,
    vertex_centroid,
)
from convexkit.linalg import as_vec, dot, mat_rank, vadd, vscale
from convexkit.steiner import _contains, steiner_symmetral
from convexkit.volumes import combine, mixed_volume_base_height

small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
# Denominators of 300 bits and numerators up to 2^301: |x| < 4.
big = st.builds(F, st.integers(-(2**301), 2**301), st.integers(2**299, 2**300))
factors = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
directions = st.integers(2, 4).flatmap(
    lambda n: st.tuples(*[st.fractions(min_value=-9, max_value=9, max_denominator=7)] * n)
)


def sphere_point(n, params):
    """Inverse stereographic image of ``params`` (n - 1 rationals): a rational
    point exactly on the unit sphere in R^n."""
    s = sum(t * t for t in params)
    return tuple(2 * t / (s + 1) for t in params) + ((s - 1) / (s + 1),)


@st.composite
def points(draw, n):
    kind = draw(st.sampled_from(["small", "big", "sphere", "flat", "point"]))
    if kind == "point":
        return [draw(st.tuples(*[big] * n))]
    if kind == "sphere":
        # t = p / q with a 150-bit q puts 300-bit denominators on the sphere.
        param = st.builds(F, st.integers(-(2**151), 2**151), st.integers(2**149, 2**150))
        size = n + 1 if n == 4 else n + 3
        params = draw(st.lists(st.tuples(*[param] * (n - 1)), min_size=size, max_size=size))
        return [sphere_point(n, t) for t in params]
    coord = big if kind == "big" else small
    size = draw(st.integers(n + 1, n + 2 if n == 4 else n + 4))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=size, max_size=size))
    if kind == "flat":
        # Affine combinations of rank + 1 of the points span at most ``rank``.
        rank = draw(st.integers(1, n - 1))
        base = pts[: rank + 1]
        weights = st.lists(small, min_size=rank, max_size=rank)
        edges = [tuple(b[k] - base[0][k] for k in range(n)) for b in base[1:]]
        pts = base + [
            vadd(base[0], tuple(dot(cs, col) for col in zip(*edges)))
            for cs in draw(st.lists(weights, min_size=1, max_size=5))
        ]
    return pts


@st.composite
def bodies(draw, n):
    body = convex_hull(draw(points(n)), allow_degenerate=True)
    derive = draw(st.sampled_from(["none", "translate", "scale", "combine"]))
    if derive == "translate":
        body = translate(body, draw(st.tuples(*[st.one_of(small, big)] * n)))
    elif derive == "scale":
        body = scale(body, draw(factors))
    elif derive == "combine":
        other = convex_hull(draw(points(n)), allow_degenerate=True)
        a, b = draw(st.sampled_from([(1, 1), (F(1, 2), F(1, 2)), (F(2, 3), 3), (0, F(5, 4))]))
        body = combine(a, body, b, other)
    return body


@st.composite
def body_and_direction(draw):
    w = draw(directions.filter(lambda w: any(w)))
    return draw(bodies(len(w))), w


def fraction_support(body, w):
    return max(dot(v, w) for v in body.vertices)


def fraction_base_height(first, second):
    total = F(0)
    for f in first.facets:
        total += fraction_support(second, f.normal) * f.pseudo_volume / dot(f.normal, f.normal)
    return total / first.dim


def compute_rows(body):
    """Build ``body.vertices`` and check each against its row (X, d)."""
    for v, row in zip(body.vertices, body.lifted, strict=True):
        assert tuple(F(x, row[-1]) for x in row[:-1]) == v


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(points))
def test_hull_keeps_the_rows_it_lifted(pts):
    # A hull stores the rows it built the body from and builds no Fraction
    # until ``vertices`` is read; they are the rows ``_lift`` makes.
    body = convex_hull(pts, allow_degenerate=True)
    assert "vertices" not in vars(body)
    assert body.lifted == tuple(_lift(body.vertices))


@settings(max_examples=120, deadline=None)
@given(body_and_direction())
def test_support_and_support_set_match_fraction_definitions(case):
    body, w = case
    h = support(body, w)
    assert type(h) is F and h == fraction_support(body, w)
    face = support_set(body, w)
    expected = convex_hull([v for v in body.vertices if dot(v, w) == h], allow_degenerate=True)
    assert bodies_equal(face, expected)
    assert face.affine_dim == expected.affine_dim and face.volume == expected.volume


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(bodies(n), bodies(n))))
def test_facets_and_base_height_match_fraction_definitions(pair):
    first, second = pair
    for f in first.facets:
        assert type(f.offset) is F and all(type(c) is int for c in f.normal)
        assert f.offset == fraction_support(first, f.normal)
        nsq = f.normal_sq()
        assert type(nsq) is F and nsq == dot(f.normal, f.normal)
    if first.is_full_dimensional:
        # With V(F) u_F = pseudo * normal / |normal|^2: Minkowski's relation
        # sum V(F) u_F = 0, and the pyramid formula V = (1/n) sum h(u_F) V(F).
        weights = [f.pseudo_volume / f.normal_sq() for f in first.facets]
        assert all(f.pseudo_volume > 0 for f in first.facets)
        for k in range(first.dim):
            assert sum(wt * f.normal[k] for wt, f in zip(weights, first.facets)) == 0
        assert sum(wt * f.offset for wt, f in zip(weights, first.facets)) / first.dim == first.volume
        mixed = mixed_volume_base_height(first, second)
        assert type(mixed) is F and mixed == fraction_base_height(first, second)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(points), st.booleans(), st.booleans(), st.booleans())
def test_equal_bodies_share_equality_and_hash(pts, rows_first, rows_second, rescaled):
    first = convex_hull(pts, allow_degenerate=True)
    second = convex_hull(list(reversed(pts)), allow_degenerate=True)
    if rescaled:
        second = scale(scale(second, 3), F(1, 3))
    if rows_first:
        compute_rows(first)
    if rows_second:
        compute_rows(second)
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1


@settings(max_examples=60, deadline=None)
@given(body_and_direction(), st.data())
def test_rows_do_not_leak_into_derived_bodies(case, data):
    body, w = case
    n = body.dim
    compute_rows(body)
    x = data.draw(st.tuples(*[st.one_of(small, big)] * n))
    a = data.draw(factors)
    moved, scaled = translate(body, x), scale(body, a)
    assert support(moved, w) == support(body, w) + dot(x, w)
    assert support(scaled, w) == a * support(body, w)
    assert moved.vertices == tuple(vadd(v, x) for v in body.vertices)
    assert scaled.vertices == tuple(vscale(a, v) for v in body.vertices)


def spell(draw, x):
    """x as an equal int, unreduced "p/q" string or Fraction."""
    kinds = ["fraction", "str"] + (["int"] if x.denominator == 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return int(x)
    if kind == "str":
        k = draw(st.integers(1, 3))
        return f"{x.numerator * k}/{x.denominator * k}"
    return x


@st.composite
def spelled_points(draw):
    """Points of ``points`` plus one with ``BIG_PRIMES`` denominators and
    negative coordinates, some repeated, every coordinate spelled by
    ``spell``."""
    n = draw(st.integers(2, 4))
    pts = draw(points(n))
    pts.append(tuple(F(-1 - k, BIG_PRIMES[k % 3]) for k in range(n)))
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    return [tuple(spell(draw, x) for x in p) for p in draw(st.permutations(pts))]


@settings(max_examples=80, deadline=None)
@given(spelled_points())
def test_hull_rows_are_the_rows_of_the_sorted_distinct_points(spelled):
    # The rows are sorted and deduplicated on integer keys; the order and
    # the distinct points must be those of the Fraction tuples.
    pts = [as_vec(p) for p in spelled]
    _, rows, _ = _hull_with_boundary(_lift(pts), len(pts[0]))
    assert rows == _lift(sorted(set(pts)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_half_integer_pair_rows_reduce_to_the_vertices_rows(n):
    # Every coordinate is an odd multiple of 1/2, so each pair row
    # (X d_y + Y d_x, d_x d_y) has weight 4 and reduces to weight 1.
    rng = random.Random(f"half-integer/{n}")

    def half_integer_body():
        pts = [tuple(F(2 * rng.randint(-3, 3) + 1, 2) for _ in range(n)) for _ in range(n + 3)]
        return convex_hull(pts)

    first, second = half_integer_body(), half_integer_body()
    assert {row[-1] for row in first.lifted + second.lifted} == {2}
    total, pairs, _ = volumes._minkowski_sum(first, second)
    assert total.lifted == tuple(_lift(total.vertices))
    assert {row[-1] for row in total.lifted} == {1}
    # The record keeps each pair (x, y) as its triple (X d_y, Y d_x, d_x d_y).
    pairs = [(_point((*x, w)), _point((*y, w))) for x, y, w in pairs]
    assert [vadd(x, y) for x, y in pairs] == list(total.vertices)


def assert_canonical(body):
    """``lifted`` holds the ``_lift`` row of each vertex, and the vertices are
    sorted and distinct."""
    assert body.lifted == tuple(_lift(body.vertices))
    assert list(body.vertices) == sorted(set(body.vertices))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 17, 64])
def test_disc_rows_give_the_hull_of_its_fraction_points(m):
    points = []
    for k in range(m):
        theta = math.pi * (2 * k + 1) / (4 * m)
        t = F(math.tan(theta / 2)).limit_denominator(4 * m * 40)
        x, y = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        points += [(x, y), (-y, x), (-x, -y), (y, -x)]
    body, expected = disc_polygon(m), convex_hull(points)
    assert_canonical(body)
    assert body == expected and len(body.vertices) == 4 * m
    assert body.facets == expected.facets and body.volume == expected.volume
    assert all(x * x + y * y == 1 for x, y in body.vertices)


def test_disc_rows_follow_the_limit_denominator_recipe():
    # t is the best approximation of tan(theta / 2) with denominator at most
    # 160 m, as ``Fraction.limit_denominator`` finds it.
    for m in range(1, 201):
        points = []
        for k in range(m):
            theta = math.pi * (2 * k + 1) / (4 * m)
            t = F(math.tan(theta / 2)).limit_denominator(4 * m * 40)
            x, y = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
            points += [(x, y), (-y, x), (-x, -y), (y, -x)]
        assert disc_polygon(m).lifted == tuple(_lift(sorted(points))), m


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(points(n), points(n))), st.data())
def test_every_constructor_returns_canonical_rows(pair, data):
    first, second = (convex_hull(pts, allow_degenerate=True) for pts in pair)
    n = first.dim
    w = data.draw(st.tuples(*[small] * n).filter(any))
    x = data.draw(st.tuples(*[st.one_of(small, big)] * n))
    k = data.draw(st.integers(1, n - 1))
    basis = data.draw(st.lists(st.tuples(*[small] * n), min_size=k, max_size=k))
    assume(mat_rank(basis) == k)
    # Ratios whose numerator or denominator shares factors with the rows.
    d = first.lifted[0][-1]
    X = next((c for c in first.lifted[0][:-1] if c), 1)
    ratios = [data.draw(factors), F(d), F(1, d), F(abs(X), d), F(d, abs(X)), F(6, 35)]
    made = [
        first,
        translate(first, x),
        *(scale(first, a) for a in ratios),
        project(first, Subspace(tuple(basis))),
        support_set(first, w),
        reflect_through_hyperplane(first, w),
        combine(0, first, F(3, 4), second),
        combine(F(2, 3), first, F(2, 3), second),
        combine(F(1, 3), first, 2, second),
        io.parse_body(json.loads(io.dumps_body(first)), allow_degenerate=True),
    ]
    if first.is_full_dimensional and n <= 3:
        made.append(steiner_symmetral(first, w).symmetral)
    for body in made:
        assert_canonical(body)
    rebuilt = [
        scale(scale(first, 3), F(1, 3)),
        translate(translate(first, x), tuple(-c for c in x)),
        convex_hull(first.vertices[::-1], allow_degenerate=True),
    ]
    for body in rebuilt:
        assert body == first and hash(body) == hash(first)
        assert body.affine_dim == first.affine_dim and body.volume == first.volume


PRIME = 2**61 - 1
# Small rationals, or rationals over the 61-bit Mersenne prime.
entries = st.one_of(small, st.builds(F, st.integers(-(2**63), 2**63), st.just(PRIME)))


def assert_row_types(body):
    """Integer rows and normals, ``Fraction`` offsets, pseudo-volumes and volume."""
    assert all(type(c) is int for row in body.lifted for c in row)
    assert type(body.volume) is F
    for f in body.facets:
        assert all(type(c) is int for c in f.normal)
        assert type(f.offset) is F and type(f.pseudo_volume) is F


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(bodies), st.data())
def test_project_matches_the_fraction_definition(body, data):
    n = body.dim
    if data.draw(st.booleans()):
        body = translate(body, (F(1, PRIME),) + (F(-3, PRIME),) * (n - 1))
    k = data.draw(st.integers(1, n - 1))
    basis = data.draw(st.lists(st.tuples(*[entries] * n), min_size=k, max_size=k))
    assume(mat_rank(basis) == k)
    xi = Subspace(tuple(basis))
    shadow, expected = project(body, xi), fraction_project(body.vertices, xi.basis)
    assert shadow == expected and shadow.dim == k
    assert shadow.affine_dim == expected.affine_dim and shadow.volume == expected.volume
    assert shadow.facets == expected.facets
    assert_row_types(shadow)
    assert_canonical(shadow)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(bodies))
def test_vertex_centroid_matches_the_fraction_definition(body):
    c = vertex_centroid(body)
    assert type(c) is tuple and all(type(x) is F for x in c)
    assert c == centroid(body.vertices)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(bodies), st.data())
def test_steiner_symmetral_matches_the_fraction_chords(body, data):
    assume(body.is_full_dimensional)
    n = body.dim
    w = data.draw(st.tuples(*[entries] * n).filter(any))
    result = steiner_symmetral(body, w)
    facets = brute_hull(body.vertices)[1]
    expected = convex_hull(
        fraction_symmetral_points(body.vertices, facets, w), allow_degenerate=True
    )
    assert result.symmetral == expected and result.symmetral.facets == expected.facets
    assert result.symmetral.volume == expected.volume
    assert result.inner_approximation == (expected.volume < body.volume)
    assert_row_types(result.symmetral)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(bodies), st.data())
def test_containment_matches_the_fraction_definition(outer, data):
    assume(outer.is_full_dimensional)
    n = outer.dim
    kind = data.draw(st.sampled_from(["shrunk", "moved", "other"]))
    if kind == "other":
        inner = data.draw(bodies(n))
    else:
        # A copy shrunk about a vertex stays inside; a moved one may not.
        v = outer.vertices[data.draw(st.integers(0, len(outer.vertices) - 1))]
        inner = translate(scale(outer, F(1, 2)), vscale(F(1, 2), v))
        if kind == "moved":
            inner = translate(inner, data.draw(st.tuples(*[entries] * n)))
    outside = _contains(outer, inner)
    witness = fraction_outside([(f.normal, f.offset) for f in outer.facets], inner.vertices)
    assert outside == witness
    if witness is not None:
        assert all(type(x) is F for x in outside)


def expected_decision(first, second, centroid_shift=None):
    """(witness or None, reason) by the Fraction definitions: a the rational
    n-th root of the volume ratio, x the centroid shift (moved by
    ``centroid_shift`` when given), and the vertex map checked point by point."""
    a = _exact_root(second.volume / first.volume, first.dim)
    if a is None:
        return None, "volume-ratio-not-rational-power"
    x = tuple(s - a * f for s, f in zip(centroid(second.vertices), centroid(first.vertices)))
    if centroid_shift is not None:
        x = vadd(x, centroid_shift)
    witness = homothety.HomothetyWitness(a, x)
    # The library's own definition of the check agrees with the oracle.
    holds = fraction_maps_onto(first.vertices, second.vertices, a, x)
    assert holds == bodies_equal(second, _homothety(first, witness.ratio, witness.shift))
    return (witness, None) if holds else (None, "candidate-transform-mismatch")


def assert_decision(decision, witness, reason):
    assert decision.witness == witness and decision.reason == reason
    if witness is not None:
        assert type(decision.witness.ratio) is F
        assert all(type(c) is F for c in decision.witness.shift)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4).flatmap(bodies), factors, st.data())
def test_detect_homothety_matches_the_fraction_definition(first, a, data):
    # Homothetic pairs, pairs with one vertex moved, and homothetic pairs
    # whose candidate shift is pushed off by 1/3 along the first axis.
    assume(first.is_full_dimensional)
    n = first.dim
    x = data.draw(st.tuples(*[entries] * n))
    kind = data.draw(st.sampled_from(["homothetic", "moved", "shift"]))
    image = [tuple(a * c + s for c, s in zip(v, x)) for v in first.vertices]
    if kind == "moved":
        k = data.draw(st.integers(0, len(image) - 1))
        image[k] = vadd(image[k], data.draw(st.tuples(*[entries] * n).filter(any)))
    second = convex_hull(image, allow_degenerate=True)
    assume(second.is_full_dimensional)
    if kind != "shift":
        assert_decision(homothety.detect_homothety(first, second), *expected_decision(first, second))
        return
    off = (F(1, 3),) + (F(0),) * (n - 1)
    real = homothety.vertex_centroid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            homothety, "vertex_centroid", lambda b: vadd(real(b), off) if b is second else real(b)
        )
        decision = homothety.detect_homothety(first, second)
    assert_decision(decision, *expected_decision(first, second, off))
    assert decision.reason == "candidate-transform-mismatch"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_detect_homothety_rejects_a_volume_keeping_vertex_move(n):
    # A simplex's vertex moved parallel to the opposite facet keeps the
    # volume, so the ratio and shift candidates exist and only the vertex
    # map can refute them; the unmoved image is homothetic.
    rng = random.Random(f"simplex-move/{n}")
    for _ in range(10):
        pts = [tuple(F(rng.randint(-9, 9), rng.choice([1, 2, 3, PRIME])) for _ in range(n))]
        pts += [vadd(pts[0], tuple(F(rng.randint(-5, 5), 7) for _ in range(n))) for _ in range(n)]
        first = convex_hull(pts, allow_degenerate=True)
        if not first.is_full_dimensional:
            continue
        a = F(rng.randint(1, 9), rng.randint(1, 9))
        x = tuple(F(rng.randint(-9, 9), PRIME) for _ in range(n))
        image = [tuple(a * c + s for c, s in zip(p, x)) for p in pts]
        homothetic = convex_hull(image)
        assert_decision(
            homothety.detect_homothety(first, homothetic), homothety.HomothetyWitness(a, x), None
        )
        along = vadd(image[1], tuple(-c for c in image[2]))
        image[0] = vadd(image[0], vscale(F(1, 3), along))
        moved = convex_hull(image)
        assert moved.volume == homothetic.volume
        expected = expected_decision(first, moved)
        assert expected == (None, "candidate-transform-mismatch")
        assert_decision(homothety.detect_homothety(first, moved), *expected)


def facet_triples(body):
    return [(f.normal, f.offset, f.pseudo_volume) for f in body.facets]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(bodies), st.data())
def test_homotheties_match_the_hull_of_the_fraction_image(body, data):
    # translate, scale and _homothety against the hull of the points
    # a v + x, formed in Fractions, with ratios and shifts over the 61-bit
    # prime among them; flat bodies and single points included.
    n = body.dim
    a = data.draw(st.one_of(factors, st.builds(F, st.integers(1, 2**63), st.just(PRIME))))
    x = data.draw(st.tuples(*[entries] * n))
    zero = (F(0),) * n
    made = [
        (translate(body, x), F(1), x),
        (scale(body, a), a, zero),
        (_homothety(body, a, x), a, x),
    ]
    for image, ratio, shift in made:
        expected = convex_hull(
            [tuple(ratio * c + s for c, s in zip(v, shift)) for v in body.vertices],
            allow_degenerate=True,
        )
        assert image.dim == n and image.lifted == expected.lifted
        assert image.affine_dim == expected.affine_dim and image.volume == expected.volume
        assert facet_triples(image) == facet_triples(expected)
        assert_row_types(image)


def test_homothety_arguments_are_checked():
    body = convex_hull([(0, 0), (1, 0), (0, 1)])
    for ratio in (0, F(-1, 3)):
        with pytest.raises(ValueError, match="^scale factor must be positive$"):
            _homothety(body, ratio, (0, 0))
        with pytest.raises(ValueError, match="^scale factor must be positive$"):
            scale(body, ratio)
    for shift in ((1,), (1, 2, 3)):
        with pytest.raises(
            DimensionMismatchError, match="^translation length differs from dimension$"
        ):
            _homothety(body, F(2), shift)
        with pytest.raises(
            DimensionMismatchError, match="^translation length differs from dimension$"
        ):
            translate(body, shift)


def facet_corpus():
    """(body, its points as Fractions) for seeded bodies in 2D-4D: small
    rationals, coordinates over the 61-bit prime, flat bodies of every
    affine rank, and the ``translate``, ``scale`` and combined images of
    each by shifts and ratios over that prime, with the image points formed
    in Fractions."""
    rng = random.Random(24)

    def entry(kind):
        if kind == "prime" and rng.random() < 0.5:
            return F(rng.randint(-(2**63), 2**63), PRIME)
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    out = []
    for n in (2, 3, 4):
        for kind in ("small", "prime", "flat") * 3:
            size = rng.randint(n + 1, n + 3)
            pts = [tuple(entry(kind) for _ in range(n)) for _ in range(size)]
            if kind == "flat":
                # The last n - r coordinates are fixed affine functions of
                # the first r, so the points span at most r dimensions.
                r = rng.randint(1, n - 1)
                maps = [
                    (tuple(entry("small") for _ in range(r)), entry("small")) for _ in range(n - r)
                ]
                pts = [p[:r] + tuple(dot(c, p[:r]) + b for c, b in maps) for p in pts]
            body = convex_hull(pts, allow_degenerate=True)
            out.append((body, list(body.vertices)))
            shift = tuple(entry("prime") for _ in range(n))
            ratio = rng.choice([F(2), F(5, 3), F(rng.randint(1, 2**63), PRIME)])
            for a, x in ((F(1), shift), (ratio, (F(0),) * n), (ratio, shift)):
                image = translate(scale(body, a), x) if a != 1 else translate(body, x)
                out.append((image, [tuple(a * c + s for c, s in zip(v, x)) for v in body.vertices]))
    return out


def test_facet_values_match_the_brute_force_oracle():
    # Each facet's offset is the support on its normal and its pseudo-volume
    # is the oracle's V(F) |normal|, both as Fractions; flat bodies have no
    # facets.
    flat = 0
    for body, pts in facet_corpus():
        if affine_rank(pts) < body.dim:
            flat += 1
            assert body.affine_dim < body.dim and body.facets == ()
            continue
        got = [(f.normal, f.offset, f.pseudo_volume) for f in body.facets]
        assert got == brute_facets(pts)
        assert all(type(f.offset) is F and type(f.pseudo_volume) is F for f in body.facets)
    assert flat >= 9


def test_facets_survive_a_homothety_and_its_inverse():
    # Facet equality is by value, however a homothety leaves its numbers.
    for body, _ in facet_corpus():
        n = body.dim
        x = tuple(F(k + 1, PRIME) for k in range(n))
        assert scale(scale(body, 2), F(1, 2)).facets == body.facets
        assert scale(scale(body, F(PRIME, 3)), F(3, PRIME)).facets == body.facets
        assert translate(translate(body, x), tuple(-c for c in x)).facets == body.facets


def test_reflection_matches_the_hull_of_the_fraction_mirrors():
    # Directions with Fraction entries, over the 61-bit prime among them;
    # flat bodies and single-coordinate directions included.
    rng = random.Random(25)
    for body, _ in facet_corpus():
        n = body.dim
        for kind in ("axis", "small", "prime"):
            if kind == "axis":
                j = rng.randrange(n)
                w = tuple(F(3, 2) if k == j else F(0) for k in range(n))
            elif kind == "small":
                w = tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n))
                w = w if any(w) else (F(1, 7),) * n
            else:
                w = tuple(F(rng.randint(-(2**63), 2**63), PRIME) for _ in range(n))
            wsq = dot(w, w)
            mirrors = [
                tuple(c - 2 * dot(v, w) / wsq * x for c, x in zip(v, w)) for v in body.vertices
            ]
            expected = convex_hull(mirrors, allow_degenerate=True)
            image = reflect_through_hyperplane(body, w)
            assert image.dim == n and image.lifted == expected.lifted
            assert image.affine_dim == expected.affine_dim and image.volume == expected.volume
            assert facet_triples(image) == facet_triples(expected)
            assert_row_types(image)
