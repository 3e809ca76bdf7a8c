"""Standard bodies, seeded random bodies, and disc approximants."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .geometry import Polytope, _check_ambient, _hull_with_boundary, convex_hull
from .linalg import as_scalar, as_vec, primitive_int_vector, unit_vector


def box(*sides) -> Polytope:
    """Axis-aligned box [0, s1] x ... x [0, sn]."""
    sides = [as_scalar(s) for s in sides]
    pts = [()]
    for s in sides:
        pts = [p + (c,) for p in pts for c in (Fraction(0), s)]
    return convex_hull(pts)


def unit_square() -> Polytope:
    return box(1, 1)


def unit_cube() -> Polytope:
    return box(1, 1, 1)


def standard_simplex(n: int) -> Polytope:
    """conv{0, e1, ..., en}."""
    return convex_hull([(Fraction(0),) * n, *(unit_vector(n, i) for i in range(n))])


def diamond(r=1) -> Polytope:
    """2D cross-polytope conv{(+-r, 0), (0, +-r)}; area 2 r^2."""
    r = as_scalar(r)
    return convex_hull([(r, 0), (-r, 0), (0, r), (0, -r)])


def segment(a, b) -> Polytope:
    return convex_hull([as_vec(a), as_vec(b)], allow_degenerate=True)


def axis_segment(n: int, i: int, length=1) -> Polytope:
    """Segment from the origin to length*e_i in R^n."""
    return segment((Fraction(0),) * n, unit_vector(n, i, length))


def _best_approximation(num: int, den: int, bound: int) -> tuple:
    """(p, q), coprime with 0 < q <= bound, for the closest rational to
    num / den (coprime, den > 0) with denominator at most ``bound`` >= 1:
    the value ``Fraction(num, den).limit_denominator(bound)`` gives, by the
    same continued-fraction walk, in integers.

    The walk stops at the last convergent p1 / q1 with q1 <= bound; the
    other candidate is the semiconvergent (p0 + k p1) / (q0 + k q1) with the
    largest k that keeps its denominator in bound.  p1 / q1 wins ties, as
    there.  Convergents and semiconvergents are in lowest terms.
    """
    if den <= bound:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    # |p1 / q1 - x| <= |p / q - x| for x = num / den, times den q q1 > 0.
    if abs(p1 * den - num * q1) * q <= abs(p * den - num * q) * q1:
        return p1, q1
    return p, q


def disc_polygon(m: int) -> Polytope:
    """Inscribed 4m-gon approximating the unit disc, with rational vertices.

    Vertices lie exactly on the unit circle: each is ((1-t^2, 2t)) / (1+t^2)
    for a rational t close to tan(theta/2), theta running over first-quadrant
    angles offset by half a step so no vertex sits exactly on an axis.  The
    polygon is contained in the disc, so every support value is a rational
    lower bound for the disc's; at m = 10**4 the deficit is below 1e-8.
    t = p / q is the best approximation with q <= 160 m of the float
    tan(theta/2), taken on its exact integer ratio by
    ``_best_approximation``, so no Fraction is built for it.

    For t = p / q the vertex is the lifted row (X, Y, d), the primitive row
    of (q^2 - p^2, 2pq, q^2 + p^2), and its quarter-turns are (-Y, X, d),
    (-X, -Y, d) and (Y, -X, d); the rows go straight to the hull kernel.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    rows = []
    for k in range(m):
        theta = math.pi * (2 * k + 1) / (4 * m)
        p, q = _best_approximation(*math.tan(theta / 2).as_integer_ratio(), 4 * m * 40)
        x, y, d = primitive_int_vector((q * q - p * p, 2 * p * q, q * q + p * p))
        rows.extend([(x, y, d), (-y, x, d), (-x, -y, d), (y, -x, d)])
    return _hull_with_boundary(rows, 2)[0]


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-100, 100), rng.randint(1, 10))


def random_polytope(dim: int, n_points: int, rng: random.Random) -> Polytope:
    """Hull of seeded random rational points, retried until full-dimensional.

    Numerators lie in [-100, 100], denominators in [1, 10]; identical rng
    state yields an identical body.
    """
    _check_ambient(dim)
    if n_points < dim + 1:
        raise ValueError("need at least dim + 1 points")
    while True:
        pts = [
            tuple(random_rational(rng) for _ in range(dim)) for _ in range(n_points)
        ]
        body = convex_hull(pts, allow_degenerate=True)
        if body.is_full_dimensional:
            return body


def random_direction(dim: int, rng: random.Random):
    """Nonzero rational direction with small entries."""
    while True:
        w = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim))
        if any(x != 0 for x in w):
            return w
