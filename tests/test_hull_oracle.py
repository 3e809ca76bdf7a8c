"""Differential test of the hull kernel against the brute-force oracle.

Inputs mix the degeneracies the kernel must resolve exactly: repeated
points, edge midpoints and centroids of n points (which lie on a facet
when those points span one), and, on request, coordinates whose
denominators are three large coprime primes, so that the lcm of all
denominators passes 256 bits.  Flat inputs of every affine rank below the
ambient dimension are checked in the chart of their affine hull, and
``mat_rank`` and ``solve`` against the oracle's elimination.  Every boundary
simplex the kernel returns must be outward in its vertex order, checked
against all the rows by the oracle's determinant.  Hulls of 9 to 14 points in 3D and 4D, where the
shuffled insertion order matters, must also close: their boundary
simplices meet in pairs along every ridge, with opposite orientations.
So must the cyclic 4D polytope of 30 points, with every point a vertex and
the most facets the Upper Bound Theorem allows.  So must the hulls of
pair points x + y of two small bodies, the input of every pair record,
with its repeated, interior and coplanar points; their facets and volume
are also checked against the oracle's pyramid formula.  The order is
private and repeatable.

The planar chain is checked on its own against the oracle's angular cycle,
on pools of up to 40 points of a small grid (many collinear triples), with
points on the line through the first and last sorted points, duplicates and
61-bit prime denominators mixed in, and on the disc 4m-gons.  The support
core is checked against the brute-force maximum in directions along facet
normals and edges, where maximizers tie, and base-height against the
interpolation route.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from convexkit.bodies import disc_polygon
from convexkit.errors import DimensionError, InvariantError
from convexkit.geometry import (
    _chain_2d,
    _hull_with_boundary,
    _lift,
    convex_hull,
    support,
    support_set,
)
from convexkit.linalg import independent_rows, mat_rank, solve
from convexkit.volumes import minkowski_interpolate, mixed_volume_base_height, mixed_volume_interp

from oracles import (
    _rref,
    affine_rank,
    brute_facets,
    brute_hull,
    brute_support,
    brute_volume,
    ccw_cycle,
    leibniz_det,
    shoelace_area,
)

# Mersenne primes 2^89 - 1, 2^107 - 1 and 2^127 - 1: their product has 323 bits.
BIG_PRIMES = (2**89 - 1, 2**107 - 1, 2**127 - 1)

coords = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def hull_inputs(draw):
    n = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[coords] * n), min_size=n + 1, max_size=n + 3, unique=True))
    if draw(st.booleans()):
        for i, prime in enumerate(BIG_PRIMES):
            axis = draw(st.integers(0, n - 1))
            nudge = F(draw(st.sampled_from([-1, 1])), prime)
            pts[i] = tuple(x + nudge if k == axis else x for k, x in enumerate(pts[i]))
    kinds = st.sampled_from(["duplicate", "midpoint", "centroid"])
    extras = draw(st.lists(kinds, max_size=8 - len(pts)))
    for kind in extras:
        size = {"duplicate": 1, "midpoint": 2, "centroid": n}[kind]
        index = st.integers(0, len(pts) - 1)
        ids = draw(st.lists(index, min_size=size, max_size=size, unique=True))
        pts.append(tuple(sum(pts[i][k] for i in ids) / size for k in range(n)))
    return draw(st.permutations(pts))


def assert_outward(rows, simplices):
    """Every boundary simplex is outward in its vertex order: the cross
    normal h of its rows has no row beyond it, and some row strictly inside.
    dot(h, row) is the determinant of the row stacked on the simplex's
    rows, taken by the oracle, so this gate shares no code with the
    kernel's ``cross_normal``."""
    for simplex in simplices:
        face = [rows[i] for i in simplex]
        sides = [leibniz_det([row, *face]) for row in rows]
        assert max(sides) <= 0 and min(sides) < 0


@settings(max_examples=150, deadline=None)
@given(hull_inputs())
# Disc 4m-gons, whose facets come straight off the counterclockwise chain.
@example(disc_polygon(1).vertices)
@example(disc_polygon(2).vertices)
@example(disc_polygon(5).vertices)
# A thin quadrilateral whose float angles around the centroid misorder it.
@example(
    [
        (F(-1, 2**89 - 1), F(0)),
        (F(-1, 2**107 - 1), F(2)),
        (F(-1, 2**127 - 1), F(1, 2)),
        (F(0), F(1)),
    ]
)
def test_hull_matches_brute_force(points):
    n = len(points[0])
    assume(affine_rank(points) == n)
    body, rows, simplices = _hull_with_boundary(_lift(points), n)
    assert body == convex_hull(points)
    vertices, facets = brute_hull(points)
    assert list(body.vertices) == vertices
    assert [(f.normal, f.offset) for f in body.facets] == facets
    assert_outward(rows, simplices)
    if n == 2:
        assert body.volume == shoelace_area(vertices)
    assert mixed_volume_base_height(body, body) == body.volume


@st.composite
def flat_inputs(draw):
    """Points origin + sum c_k e_k over at most n - 1 integer directions e_k,
    with repeated points and midpoints mixed in."""
    n = draw(st.integers(2, 4))
    rank = draw(st.integers(0, n - 1))
    origin = draw(st.tuples(*[coords] * n))
    directions = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=rank, max_size=rank)
    )
    weights = draw(st.lists(st.tuples(*[coords] * rank), min_size=1, max_size=rank + 4))
    pts = [
        tuple(o + sum(c * e[k] for c, e in zip(w, directions)) for k, o in enumerate(origin))
        for w in weights
    ]
    for kind in draw(st.lists(st.sampled_from(["duplicate", "midpoint"]), max_size=4)):
        ids = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=2, unique=True))
        if kind == "duplicate":
            ids = ids[:1]
        pts.append(tuple(sum(pts[i][k] for i in ids) / len(ids) for k in range(n)))
    return draw(st.permutations(pts))


def flat_oracle(points):
    """(affine rank, sorted extreme points) of a finite point set.

    The coordinates at the pivot columns of the reduced differences chart
    the affine hull injectively; extreme points are taken in that chart.
    """
    pts = sorted({tuple(F(x) for x in p) for p in points})
    _, pivots = _rref([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])
    chart = {p: tuple(p[j] for j in pivots) for p in pts}
    if not pivots:
        return 0, pts
    if len(pivots) == 1:
        keep = {min(chart.values()), max(chart.values())}
    else:
        keep = set(brute_hull(list(chart.values()))[0])
    return len(pivots), [p for p in pts if chart[p] in keep]


@settings(max_examples=150, deadline=None)
@given(flat_inputs())
def test_flat_hull_matches_chart_oracle(points):
    n = len(points[0])
    rank, vertices = flat_oracle(points)
    assert rank < n
    body = convex_hull(points, allow_degenerate=True)
    assert body.affine_dim == rank
    assert list(body.vertices) == vertices
    assert body.facets == () and body.volume == 0
    with pytest.raises(DimensionError):
        convex_hull(points)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(coords, st.builds(F, st.integers(-(2**130), 2**130), st.sampled_from(BIG_PRIMES))),
        min_size=2,
        max_size=14,
    )
)
def test_hulls_on_a_line_are_the_interval(xs):
    # A shadow on a line is hulled as rows of length 2, the one
    # full-dimensional hull below the plane; it is [min, max] in any order.
    assume(len(set(xs)) > 1)
    body = _hull_with_boundary(_lift([(x,) for x in xs]), 1)[0]
    lo, hi = min(xs), max(xs)
    assert body.affine_dim == 1 and body.vertices == ((lo,), (hi,)) and body.volume == hi - lo
    facets = [(f.normal, f.offset, f.pseudo_volume) for f in body.facets]
    assert facets == [((-1,), -lo, 1), ((1,), hi, 1)]


entries = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def matrices(draw):
    """Rows of equal length with zero rows and repeated rows mixed in."""
    width = draw(st.integers(1, 5))
    row = st.lists(entries, min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=5))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat"]), max_size=3)):
        if kind == "zero" or not rows:
            rows.append([0] * width)
        else:
            rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_mat_rank_matches_oracle(rows):
    kept = independent_rows(rows)
    assert mat_rank(rows) == len(kept) == len(_rref(rows)[1])
    # solve's back-substitution relies on this triangular shape.
    for k, (_, _, row) in enumerate(kept):
        assert all(row[j] == 0 for _, j, _ in kept[:k])


@st.composite
def systems(draw):
    """(rows, rhs) of m x n systems, m up to n + 3, mostly consistent: the
    rhs is rows x for a drawn x, unless an entry is nudged off it.  Zero
    rows, repeated rows and dependent columns make singular systems."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n + 3))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    index = st.integers(0, m - 1)
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "column"]), max_size=2)):
        if kind == "zero":
            rows[draw(index)] = [0] * n
        elif kind == "repeat":
            rows[draw(index)] = list(rows[draw(index)])
        elif n > 1:
            j, c = draw(st.integers(0, n - 2)), draw(entries)
            for row in rows:
                row[n - 1] = c * row[j]
    x = draw(st.lists(entries, min_size=n, max_size=n))
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    if draw(st.booleans()):
        rhs[draw(st.integers(0, m - 1))] += draw(st.sampled_from([1, -1, F(1, 3)]))
    return rows, rhs


def rref_solve(rows, rhs):
    """The unique solution by the oracle's elimination, or None: the
    augmented rows must have their pivots on exactly the n unknowns."""
    n = len(rows[0])
    a, pivots = _rref([[*row, b] for row, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(a[i][n] for i in range(n))


def pair_values(pair):
    """The values numerators[k] / den of a ``solve`` pair, or None."""
    if pair is None:
        return None
    numerators, den = pair
    return tuple(F(x) / den for x in numerators)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_matches_oracle(system):
    rows, rhs = system
    expected = rref_solve(rows, rhs)
    assert pair_values(solve(rows, rhs)) == expected
    # Each equation times the lcm of its denominators: integer rows with the
    # same solution, which ``solve`` returns as integers over a positive den.
    scaled = []
    for row, b in zip(rows, rhs):
        common = math.lcm(*(F(x).denominator for x in (*row, b)))
        scaled.append([int(F(x) * common) for x in (*row, b)])
    pair = solve([row[:-1] for row in scaled], [row[-1] for row in scaled])
    assert pair_values(pair) == expected
    if pair is not None:
        numerators, den = pair
        assert all(type(x) is int for x in numerators)
        assert type(den) is int and den > 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.fractions(min_value=0, max_value=9, max_denominator=6), min_size=2, max_size=5),
    st.sampled_from([0, 1, -1, F(1, 7)]),
)
def test_interpolation_checks_the_redundant_node(coeffs, nudge):
    n = len(coeffs) - 1
    values = [sum(c * e**i for i, c in enumerate(coeffs)) for e in range(n + 2)]
    values[-1] += nudge
    if nudge:
        with pytest.raises(InvariantError, match="^volume polynomial failed the redundant-node check$"):
            minkowski_interpolate(values)
    else:
        numerators, den = minkowski_interpolate(values)
        assert all(type(x) is int for x in numerators)
        assert type(den) is int and den > 0
        assert tuple(F(x, den) for x in numerators) == tuple(coeffs)


@st.composite
def larger_hull_inputs(draw):
    """9 to 14 points in 3D or 4D, where insertion order matters: subsets of
    the {0, 1, 2}^n lattice, or of the vertices of [0, 2]^n with its edge
    and 2-face midpoints, some of them nudged off by ``BIG_PRIMES``
    denominators."""
    n = draw(st.sampled_from([3, 4]))
    if draw(st.booleans()):
        pool = list(itertools.product(range(3), repeat=n))
    else:
        # Points of {0, 1, 2}^n with at most two coordinates equal to 1.
        pool = [p for p in itertools.product(range(3), repeat=n) if p.count(1) <= 2]
    pts = [tuple(F(x) for x in p) for p in draw(st.permutations(pool))[: draw(st.integers(9, 14))]]
    if draw(st.booleans()):
        for i, prime in enumerate(BIG_PRIMES):
            axis = draw(st.integers(0, n - 1))
            nudge = F(draw(st.sampled_from([-1, 1])), prime)
            pts[i] = tuple(x + nudge if k == axis else x for k, x in enumerate(pts[i]))
    return pts


def permutation_sign(seq) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    return -1 if inversions % 2 else 1


def induced_ridges(simplices, n) -> dict:
    """Sorted ridge -> the orientation signs its simplices induce on it: the
    ridge left by dropping vertex k of an ordered simplex carries (-1)^k."""
    signs = {}
    for simplex in simplices:
        for k in range(n):
            ridge = simplex[:k] + simplex[k + 1 :]
            sign = (-1) ** k * permutation_sign(ridge)
            signs.setdefault(tuple(sorted(ridge)), []).append(sign)
    return signs


@settings(max_examples=40, deadline=None)
@given(larger_hull_inputs())
def test_larger_hulls_match_brute_force_and_close(points):
    n = len(points[0])
    assume(affine_rank(points) == n)
    body, rows, simplices = _hull_with_boundary(_lift(points), n)
    assert body == convex_hull(points)
    vertices, facets = brute_hull(points)
    assert list(body.vertices) == vertices
    assert [(f.normal, f.offset) for f in body.facets] == facets
    # The outward simplices form a closed, coherently oriented boundary.
    assert_outward(rows, simplices)
    ridges = induced_ridges(simplices, n)
    assert all(sorted(signs) == [-1, 1] for signs in ridges.values())
    assert {i for simplex in simplices for i in simplex} <= set(range(len(rows)))
    assert body.volume == mixed_volume_base_height(body, body)


def pair_sums(first, second):
    """The pair points x + y of two vertex lists, as Fraction points."""
    return [tuple(F(a + b) for a, b in zip(x, y)) for x in first for y in second]


def nudge(pts, i, axis, amount):
    """Move pair point i by ``amount`` along ``axis``."""
    pts[i] = tuple(x + amount if k == axis else x for k, x in enumerate(pts[i]))


@st.composite
def pair_point_pools(draw):
    """The pair points x + y of two bodies with 4 to 6 vertices each on the
    {0, 1, 2}^3 grid, or 4 to 5 on the {0, 1}^4 grid: the shape of a pair
    record's hull input, with many pair points repeated, interior or on a
    common facet.  Some pair points are nudged off the grid by
    ``BIG_PRIMES`` denominators.  4D pools are the smaller ones, as the
    brute-force hull tries every 4-subset of the pair points; the 4D pairs
    of two 6-vertex bodies are the fixed examples below."""
    n = draw(st.sampled_from([3, 4]))
    grid = st.tuples(*[st.sampled_from(range(6 - n))] * n)
    size = 9 - n
    first, second = (draw(st.lists(grid, min_size=4, max_size=size, unique=True)) for _ in range(2))
    pts = pair_sums(first, second)
    if draw(st.booleans()):
        for prime in BIG_PRIMES:
            i, axis = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, n - 1))
            nudge(pts, i, axis, F(draw(st.sampled_from([-1, 1])), prime))
    return pts


# Two pairs of 6-vertex bodies in 4D.  The first pair's 36 pair points on
# the {0, 1, 2}^4 grid are distinct, and three of them are nudged by
# ``BIG_PRIMES`` denominators.  The second pair, on the {0, 1}^4 grid, has
# 31 distinct pair points, some repeated.
WIDE_4D_PAIR = pair_sums(
    [(0, 0, 2, 1), (0, 1, 0, 2), (0, 1, 0, 1), (1, 2, 0, 1), (0, 2, 1, 0), (1, 1, 1, 0)],
    [(1, 0, 1, 2), (2, 2, 1, 2), (1, 0, 0, 0), (2, 2, 2, 1), (0, 0, 1, 1), (2, 2, 0, 2)],
)
for k, prime in enumerate(BIG_PRIMES):
    nudge(WIDE_4D_PAIR, 7 * k, k, F((-1) ** k, prime))
UNIT_4D_PAIR = pair_sums(
    [(0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1)],
    [(0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 0)],
)


@settings(max_examples=15, deadline=None)
@given(pair_point_pools())
@example(WIDE_4D_PAIR)
@example(UNIT_4D_PAIR)
def test_pair_point_hulls_match_brute_force_and_close(points):
    n = len(points[0])
    assume(affine_rank(points) == n)
    body, rows, simplices = _hull_with_boundary(_lift(points), n)
    vertices, _ = brute_hull(points)
    assert list(body.vertices) == vertices
    facets = [(f.normal, f.offset, f.pseudo_volume) for f in body.facets]
    assert facets == brute_facets(points)
    assert body.volume == brute_volume(points)
    assert_outward(rows, simplices)
    ridges = induced_ridges(simplices, n)
    assert all(sorted(signs) == [-1, 1] for signs in ridges.values())


def test_hull_order_is_deterministic_and_private():
    # The insertion shuffle uses its own generator, seeded by the input:
    # repeated hulls agree simplex for simplex, whatever the global seed,
    # and the global random state is left as it was.
    rng = random.Random("private-shuffle")
    points = [tuple(F(rng.randint(0, 4)) for _ in range(4)) for _ in range(40)]
    rows = _lift(points)
    saved = random.getstate()
    try:
        first = _hull_with_boundary(rows, 4)
        assert random.getstate() == saved
        random.seed(1)
        second = _hull_with_boundary(rows, 4)
        random.seed(2)
        third = _hull_with_boundary(rows, 4)
    finally:
        random.setstate(saved)
    assert first[2] == second[2] == third[2]
    assert first[1] == second[1] == third[1]
    assert first[0] == second[0] == third[0]


def test_cyclic_4d_hull_has_the_upper_bound_facet_count():
    # 30 points on the moment curve t -> (t, t^2, t^3, t^4) span the cyclic
    # polytope C(30, 4): every point is a vertex, and its n(n - 3)/2 = 405
    # simplex facets are the most that 30 points in R^4 can have (McMullen's
    # Upper Bound Theorem).
    n = 30
    points = [tuple(F(t**k) for k in range(1, 5)) for t in range(n)]
    body, rows, simplices = _hull_with_boundary(_lift(points), 4)
    assert len(body.vertices) == n
    assert len(body.facets) == len(simplices) == n * (n - 3) // 2
    assert_outward(rows, simplices)
    ridges = induced_ridges(simplices, 4)
    assert all(sorted(signs) == [-1, 1] for signs in ridges.values())
    assert body.volume == mixed_volume_base_height(body, body)


# 2^61 - 1, 2^61 - 31 and 2^61 - 45, the three largest primes below 2^61.
PRIMES_61 = (2**61 - 1, 2**61 - 31, 2**61 - 45)


@st.composite
def planar_pools(draw):
    """Up to about 40 points of the {0, ..., 4}^2 grid, with points on the
    line through the first and last sorted ones, duplicates, and some
    points nudged off the grid by 61-bit prime denominators."""
    grid = list(itertools.product(range(5), repeat=2))
    pts = [tuple(F(x) for x in p) for p in draw(st.permutations(grid))[: draw(st.integers(3, 30))]]
    if draw(st.booleans()):
        for prime in draw(st.lists(st.sampled_from(PRIMES_61), max_size=3)):
            i, axis = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, 1))
            nudge = F(draw(st.integers(-3, 3)), prime)
            pts[i] = tuple(x + nudge if k == axis else x for k, x in enumerate(pts[i]))
    first, last = min(pts), max(pts)
    for t in draw(st.lists(st.fractions(0, 1, max_denominator=6), max_size=6)):
        pts.append(tuple(a + t * (b - a) for a, b in zip(first, last)))
    for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=4)):
        pts.append(pts[i])
    return draw(st.permutations(pts))


def check_planar_hull(points):
    """The 2D kernel against the oracle: the distinct sorted rows, the chain
    as the counterclockwise cycle of the extreme points from the least one,
    the facets with their pseudo-volumes, the area and the outward edges."""
    body, rows, simplices = _hull_with_boundary(_lift(points), 2)
    assert rows == _lift(sorted(set(points)))
    vertices, _ = brute_hull(points)
    assert list(body.vertices) == vertices
    oracle = ccw_cycle(vertices)
    start = oracle.index(vertices[0])
    cycle = _chain_2d(rows)
    assert [rows[i] for i in cycle] == _lift(oracle[start:] + oracle[:start])
    assert [(f.normal, f.offset, f.pseudo_volume) for f in body.facets] == brute_facets(points)
    assert body.volume == shoelace_area(vertices) == brute_volume(points)
    assert sorted(simplices) == sorted(zip(cycle[1:] + cycle[:1], cycle))
    assert_outward(rows, simplices)


@settings(max_examples=60, deadline=None)
@given(planar_pools())
# Three and four points, each with a point on the line through the ends.
@example([(F(0), F(0)), (F(2), F(0)), (F(1), F(1))])
@example([(F(0), F(0)), (F(4), F(4)), (F(2), F(2)), (F(0), F(3))])
@example([(F(0), F(0)), (F(2), F(1)), (F(1), F(-1)), (F(1), F(2))])
@example([(F(0), F(1)), (F(4), F(1)), (F(2), F(1)), (F(1), F(1, PRIMES_61[0]))])
def test_planar_chain_matches_brute_force(points):
    assume(affine_rank(points) == 2)
    check_planar_hull(points)


@pytest.mark.parametrize("m", range(1, 13))
def test_disc_polygon_chain_matches_brute_force(m):
    check_planar_hull(disc_polygon(m).vertices)


def support_bodies(n):
    """Full-dimensional bodies in R^n on a small grid, some coordinates with
    denominator 2 or 3, so that faces are parallel to coordinate planes and
    to each other."""
    coord = st.sampled_from([F(0), F(1), F(2), F(1, 2), F(2, 3)])
    pts = st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 4, unique=True)
    return pts.filter(lambda p: affine_rank(p) == n).map(convex_hull)


def tie_directions(body):
    """Facet normals, sums of two of them (for adjacent facets every vertex
    of their shared face attains the maximum), edge vectors between
    vertices, their negatives, and a facet normal scaled by 2/3, which
    lifts with a denominator."""
    normals = [f.normal for f in body.facets]
    sums = [tuple(map(sum, zip(u, v))) for u, v in itertools.combinations(normals, 2)]
    edges = [tuple(a - b for a, b in zip(p, q)) for p, q in itertools.combinations(body.vertices, 2)]
    found = normals + sums + edges + [tuple(-c for c in u) for u in normals + edges]
    found.append(tuple(F(2, 3) * c for c in normals[0]))
    return [w for w in found if any(w)]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(support_bodies(n), support_bodies(n))))
def test_support_core_matches_brute_force(pair):
    first, second = pair
    for w in tie_directions(first):
        h = brute_support(first.vertices, w)
        assert support(first, w) == h
        face = support_set(first, w)
        assert face.vertices == tuple(v for v in first.vertices if brute_support([v], w) == h)
    terms = [
        brute_support(second.vertices, f.normal) * f.pseudo_volume / f.normal_sq()
        for f in first.facets
    ]
    mixed = mixed_volume_base_height(first, second)
    assert mixed == sum(terms, F(0)) / first.dim == mixed_volume_interp(first, second)
