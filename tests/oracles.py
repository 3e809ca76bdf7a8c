"""Independent oracle implementations used to freeze expected test values.

Deliberately separate from the library code paths: the cycle ordering
sorts the extreme points by their exact angle around the centroid, a
half-plane test and then the sign of a cross product on Fractions, and
the area is the plain shoelace sum on that cycle.  The brute-force hull
tries every n-subset of the points as a facet: on the points scaled to
integers, the subset's normal is the signed maximal minors of its edge
rows, each a Leibniz permutation sum, and the points' levels are
compared in integers.  Facet pseudo-volumes and volumes
follow from it by the pyramid formula, one dimension down per facet.
Sums of roots, interpolation and combination volumes are evaluated by
their Fraction definitions, with roots floored by integer bisection.
Projections, chords, containment and homotheties are their
Fraction dot products and point maps; only the projection hands its
shadow points to the library's hull kernel, which the brute-force hull
checks on its own.
"""

import functools
import itertools
import math
from fractions import Fraction

from convexkit.geometry import _hull_with_boundary, _lift


def centroid(points):
    n = len(points)
    return tuple(sum(Fraction(p[i]) for p in points) / n for i in range(len(points[0])))


def _angle_order(u, v):
    """Compare the angles of two nonzero vectors in [0, 2 pi): first by
    half-plane (angle below pi or not), then by the sign of their cross
    product, all in the entries' own exact arithmetic."""
    lower = [y < 0 or (y == 0 and x < 0) for x, y in (u, v)]
    if lower[0] != lower[1]:
        return lower[0] - lower[1]
    cross = u[0] * v[1] - u[1] * v[0]
    return (cross < 0) - (cross > 0)


def ccw_cycle(points):
    """Extreme points assumed; order them counterclockwise by their exact
    angle around the centroid."""
    c = centroid(points)
    order = functools.cmp_to_key(_angle_order)
    return sorted(points, key=lambda p: order((p[0] - c[0], p[1] - c[1])))


def shoelace_area(points) -> Fraction:
    cyc = ccw_cycle(points)
    total = Fraction(0)
    for i in range(len(cyc)):
        x1, y1 = cyc[i]
        x2, y2 = cyc[(i + 1) % len(cyc)]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def brute_support(points, w) -> Fraction:
    return max(sum(a * b for a, b in zip(p, w)) for p in points)


def minkowski_points(a, pts1, b, pts2):
    return {
        tuple(a * x + b * y for x, y in zip(p, q)) for p in pts1 for q in pts2
    }


def perimeter_float(points) -> float:
    cyc = ccw_cycle(points)
    total = 0.0
    for i in range(len(cyc)):
        dx = float(cyc[(i + 1) % len(cyc)][0] - cyc[i][0])
        dy = float(cyc[(i + 1) % len(cyc)][1] - cyc[i][1])
        total += math.hypot(dx, dy)
    return total


@functools.cache
def _signed_permutations(n):
    """(sign, permutation) for every permutation of range(n), the sign by
    counting inversions."""
    return [
        ((-1) ** sum(a > b for a, b in itertools.combinations(p, 2)), p)
        for p in itertools.permutations(range(n))
    ]


def leibniz_det(rows):
    """Determinant of a square matrix as the sum over permutations p of
    sign(p) * prod_i rows[i][p(i)], in the entries' own arithmetic."""
    total = 0
    for sign, p in _signed_permutations(len(rows)):
        term = sign
        for row, j in zip(rows, p):
            term = term * row[j]
        total = total + term
    return total


def _rref(rows):
    """Reduced row echelon form over Fractions; returns (rows, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        r = len(pivots)
        pick = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pick is None:
            continue
        a[r], a[pick] = a[pick], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def affine_rank(points) -> int:
    pts = [tuple(Fraction(x) for x in p) for p in points]
    return len(_rref([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])[1])


def _hyperplane_normal(simplex):
    """Primitive integer normal of the hyperplane through n integer points
    in R^n, or None when the points are affinely dependent: the signed
    maximal minors of the n - 1 edge rows, which are all zero exactly when
    the edges are dependent."""
    n = len(simplex[0])
    edges = [[x - y for x, y in zip(p, simplex[0])] for p in simplex[1:]]
    normal = [
        (-1) ** j * leibniz_det([row[:j] + row[j + 1 :] for row in edges]) for j in range(n)
    ]
    g = math.gcd(*normal)
    return tuple(a // g for a in normal) if g else None


def brute_hull(points):
    """Extreme points and facets of a full-dimensional finite point set.

    Facets are the supporting hyperplanes through affinely independent
    n-subsets; a point is a vertex when the normals of the facets through
    it have rank n.  Returns (sorted vertices, facets) with facets sorted
    by outward primitive integer normal, each as (normal, offset).  Recent
    results are kept, keyed by the point set, since ``brute_facets`` and
    ``brute_volume`` start from the same hulls, down to each facet's
    chart; callers must not change the lists.
    """
    return _brute_hull(tuple(sorted({tuple(Fraction(x) for x in p) for p in points})))


@functools.lru_cache(maxsize=256)
def _brute_hull(pts):
    n = len(pts[0])
    # The points times the lcm of their denominators: the same hyperplanes,
    # and every level an integer.
    scale = math.lcm(*(x.denominator for p in pts for x in p))
    ints = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in pts]
    offsets = {}
    for simplex in itertools.combinations(ints, n):
        normal = _hyperplane_normal(simplex)
        if normal is None:
            continue
        level = sum(a * b for a, b in zip(normal, simplex[0]))
        above = below = False
        for p in ints:
            v = sum(a * b for a, b in zip(normal, p))
            above, below = above or v > level, below or v < level
            if above and below:
                break
        else:
            prim = normal if below else tuple(-a for a in normal)
            offsets[prim] = Fraction(max(sum(a * b for a, b in zip(prim, p)) for p in ints), scale)

    def on(prim, p):
        return sum(a * b for a, b in zip(prim, p)) == offsets[prim]

    vertices = [
        p for p in pts if len(_rref([list(u) for u in offsets if on(u, p)])[1]) == n
    ]
    facets = [(prim, offsets[prim]) for prim in sorted(offsets)]
    return vertices, facets


def brute_facets(points):
    """(normal, offset, pseudo_volume) of each facet of the hull of
    full-dimensional points, sorted by normal, from ``brute_hull``.

    A facet with primitive normal u charts one to one onto the coordinate
    hyperplane that drops the first coordinate j with u_j != 0, and its
    (n-1)-volume shrinks there by |u_j| / |u|.  So its pseudo-volume
    V(F) |u| is V(chart) |u|^2 / |u_j|, the chart's volume taken by
    ``brute_volume`` one dimension down.
    """
    vertices, facets = brute_hull(points)
    out = []
    for u, h in facets:
        j = next(i for i, c in enumerate(u) if c)
        chart = [p[:j] + p[j + 1 :] for p in vertices if _dot(u, p) == h]
        out.append((u, h, brute_volume(chart) * _dot(u, u) / abs(u[j])))
    return out


def brute_volume(points) -> Fraction:
    """n-volume of the hull of full-dimensional points in R^n: the length of
    a 1D hull, else the pyramid formula (1/n) sum h(u) pseudo / |u|^2 over
    ``brute_facets``."""
    n = len(points[0])
    if n == 1:
        return max(p[0] for p in points) - min(p[0] for p in points)
    return sum((h * pv / _dot(u, u) for u, h, pv in brute_facets(points)), Fraction(0)) / n


def validate_polytope(body) -> None:
    """Check a Polytope's canonical-form invariants; raises AssertionError."""
    assert list(body.vertices) == sorted(set(body.vertices))
    for f in body.facets:
        assert f.pseudo_volume > 0
        on = 0
        for v in body.vertices:
            s = sum(a * b for a, b in zip(v, f.normal))
            assert s <= f.offset
            on += s == f.offset
        assert on >= body.dim
    if body.is_full_dimensional and body.dim > 1:
        assert affine_rank(body.vertices) == body.dim


def floor_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for an integer x >= 0, by bisection."""
    lo, hi = 0, 1
    while hi**n <= x:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo


SIGN_GUARD = 10  # digits carried past the displayed ones, as documented


def fraction_root_sum(terms, digits):
    """sum c * q**(1/n) with each root floored at digits + guard places, in
    Fractions term by term."""
    p = digits + SIGN_GUARD
    total = Fraction(0)
    for c, q, n in terms:
        q = Fraction(q)
        root = Fraction(floor_root(q.numerator * 10 ** (p * n) // q.denominator, n), 10**p)
        total += Fraction(c) * root
    return total


def _exact_root(q: Fraction, n: int):
    num, den = floor_root(q.numerator, n), floor_root(q.denominator, n)
    return Fraction(num, den) if num**n == q.numerator and den**n == q.denominator else None


def radical_classes_cancel(terms) -> bool:
    """True when every radical class of sum c * q**(1/n) has coefficient 0."""
    degree = math.lcm(*(n for _, _, n in terms))
    classes = []  # [radicand raised to the common degree, class coefficient]
    for c, q, n in terms:
        if q == 0:
            continue
        raised = Fraction(q) ** (degree // n)
        for cls in classes:
            ratio = _exact_root(raised / cls[0], degree)
            if ratio is not None:
                cls[1] += c * ratio
                break
        else:
            classes.append([raised, Fraction(c)])
    return all(c == 0 for _, c in classes)


def fraction_signed_root_sum(terms, digits, max_digits):
    """(sign, value) of sum c * q**(1/n) by the Fraction bracket: with the
    roots floored at p places the sum lies in [value + 10**-p * (sum of
    c < 0), value + 10**-p * (sum of c > 0)]; 0 when that bracket holds 0
    and the radical classes cancel, else p doubles.  None once p passes
    ``max_digits`` with the sign undecided."""
    below = sum((Fraction(c) for c, _, _ in terms if c < 0), Fraction(0))
    above = sum((Fraction(c) for c, _, _ in terms if c > 0), Fraction(0))
    value = estimate = fraction_root_sum(terms, digits)
    p = digits + SIGN_GUARD
    while True:
        unit = Fraction(1, 10**p)
        sign = (estimate > -below * unit) - (estimate < -above * unit)
        if sign or (p == digits + SIGN_GUARD and radical_classes_cancel(terms)):
            return sign, value
        p *= 2
        if p > max_digits:
            return None
        estimate = fraction_root_sum(terms, p - SIGN_GUARD)


def fraction_interpolate(values):
    """Coefficients of the polynomial through values at eps = 0, 1, 2, ...
    with one node more than its degree needs, by Fraction elimination of
    the augmented Vandermonde rows; None when the nodes are inconsistent."""
    n = len(values) - 2
    a, pivots = _rref([[e**i for i in range(n + 1)] + [v] for e, v in enumerate(values)])
    if pivots != list(range(n + 1)):
        return None
    return tuple(a[i][n + 1] for i in range(n + 1))


def fraction_combination_volume(coefficients, lam) -> Fraction:
    """sum_i c_i lam^i (1-lam)^(n-i) in Fractions."""
    lam = Fraction(lam)
    n = len(coefficients) - 1
    return sum(
        (Fraction(c) * lam**i * (1 - lam) ** (n - i) for i, c in enumerate(coefficients)),
        Fraction(0),
    )


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def fraction_project(points, basis):
    """Hull of the shadow points (p.b_1, ..., p.b_k), flat hulls allowed."""
    shadow = [tuple(_dot(p, b) for b in basis) for p in points]
    return _hull_with_boundary(_lift(shadow), len(basis))[0]


def fraction_chord(facets, point, w):
    """(lo, hi) with {t : point + t w inside} = [lo, hi], clipping the line
    against each halfspace normal.x <= offset of ``facets``, (normal,
    offset) pairs; None when the clip leaves no bounded interval.  Facets
    parallel to w are skipped, as ``point`` is taken to lie inside."""
    lo = hi = None
    for normal, offset in facets:
        a = _dot(normal, w)
        if a == 0:
            continue
        t = (offset - _dot(normal, point)) / a
        if a > 0:
            hi = t if hi is None else min(hi, t)
        else:
            lo = t if lo is None else max(lo, t)
    if lo is None or hi is None or lo > hi:
        return None
    return lo, hi


def fraction_symmetral_points(points, facets, w):
    """The Steiner construction's points: for each point p, its chord
    [lo, hi] along w recentred on w-perp, p - (p.w / w.w) w +- (hi - lo) / 2 w."""
    wsq = _dot(w, w)
    out = []
    for p in points:
        lo, hi = fraction_chord(facets, p, w)
        c = _dot(p, w) / wsq
        half = (hi - lo) / 2
        out.append(tuple(x - c * y + half * y for x, y in zip(p, w)))
        out.append(tuple(x - c * y - half * y for x, y in zip(p, w)))
    return out


def fraction_outside(facets, points):
    """The first point, in the given order, with normal.x > offset for some
    (normal, offset) of ``facets``; None when all points lie inside."""
    for p in points:
        if any(_dot(normal, p) > offset for normal, offset in facets):
            return p
    return None


def fraction_maps_onto(first_points, second_points, ratio, shift):
    """True when x -> ratio x + shift carries the first extreme point set onto
    the second (ratio > 0 maps extreme points to extreme points)."""
    image = {tuple(ratio * x + s for x, s in zip(p, shift)) for p in first_points}
    return image == set(second_points)
