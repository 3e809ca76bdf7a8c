"""Steiner symmetrization: recentre all chords parallel to a direction on
the hyperplane orthogonal to it.

The symmetral is built from the chord through every vertex: clip the line
v + t w against all facet halfspaces (exact), then place the recentred
endpoints symmetrically about w-perp.  In the plane the chord-length
function is piecewise linear with breakpoints exactly at projected
vertices, so this construction is exact.  In 3D it is exact whenever the
chord function is piecewise linear on the projected-vertex triangulation
and otherwise yields an inner approximation (the sampled endpoints lie on
the true symmetral's boundary); volume comparison detects which case
occurred.  Volume is preserved exactly whenever the construction is exact.

The clipping runs on integer rows: w is lifted once to W / e, each facet's
slope N.W is taken once per symmetral, and each vertex's cuts are compared
as integer quotients of its row (X, d).  The chord's ends t = (e / d) l
and (e / d) h, with l and h integer pairs, give the recentred ends as rows
in which e cancels, and those rows are hulled; no Fraction is built.  The
containment test of ``superadditivity_check`` compares N.X o_den with
o_num d on the same rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    DimensionError,
    EmptyScheduleError,
    GeometryError,
    InvariantError,
)
from .geometry import (
    Polytope,
    _check_direction,
    _check_full_dimensional,
    _hull_with_boundary,
    _lift,
    polygon_cycle,
)
from .linalg import as_vec, dot, primitive_int_vector, vsub
from .volumes import combine


@dataclass(frozen=True)
class SteinerResult:
    symmetral: Polytope  # exact in 2D, the triangulated construction in 3D
    inner_approximation: bool  # False whenever volume was preserved exactly


def _chord_interval(cuts, row):
    """Parameter range {t : v + t w in K} for the vertex row (X, d) of v, by
    exact facet clipping, with w = W / e, as the integer pairs (l, h) with
    denominators > 0 of its ends t d / e.

    ``cuts`` holds (N, o_num, o_den, s) for each facet N.x <= o_num / o_den
    not parallel to w, with s = o_den N.W.  The facet cuts the line at
    t = e (o_num d - o_den N.X) / (o_den d N.W); the positive factor e / d
    is common to every cut, so the cuts are compared as the integer
    quotients (o_num d - o_den N.X) / s, by cross-multiplication over
    positive denominators.
    """
    d = row[-1]
    lo = hi = None
    for normal, o_num, o_den, s in cuts:
        num = o_num * d - o_den * sum(map(mul, normal, row))
        if s < 0:
            num, s = -num, -s
            if lo is None or num * lo[1] > lo[0] * s:
                lo = num, s
        elif hi is None or num * hi[1] < hi[0] * s:
            hi = num, s
    if lo is None or hi is None or lo[0] * hi[1] > hi[0] * lo[1]:
        raise InvariantError("chord through a vertex misses the body")
    return lo, hi


def steiner_symmetral(body: Polytope, w) -> SteinerResult:
    """Symmetrize a full-dimensional body in R^2 or R^3 along direction w.

    A body in another dimension raises ``DimensionError``; then
    ``_check_direction`` checks w, and a flat body raises
    ``LowerDimensionalError``."""
    if body.dim not in (2, 3):
        raise DimensionError("symmetrization implemented for dimensions 2 and 3")
    w = _check_direction(body, w)
    _check_full_dimensional(body)
    *lifted_w, _ = _lift((w,))[0]
    cuts = []
    for f in body.facets:
        slope = sum(map(mul, f.normal, lifted_w))
        if slope:  # a facet parallel to w cannot cut the chord of a point in K
            o_num, o_den = f.offset_pair
            cuts.append((f.normal, o_num, o_den, o_den * slope))
    wsq = sum(c * c for c in lifted_w)
    rows = []
    for row in body.lifted:
        (l_n, l_d), (h_n, h_d) = _chord_interval(cuts, row)
        # The ends are v's foot on w-perp, v - (v.w / w.w) w, plus and minus
        # half the chord, (h_n / h_d - l_n / l_d) (e / 2d) w.  Over the
        # denominator d D, D = 2 l_d h_d (W.W) (``common``), e cancels: each
        # end is (X D + s W) / (d D) for s = +-half - foot below.
        dens = 2 * l_d * h_d
        common = dens * wsq
        half = (h_n * l_d - l_n * h_d) * wsq
        foot = dens * sum(map(mul, row, lifted_w))
        for s in (half - foot, -half - foot):
            end = (x * common + s * c for x, c in zip(row, lifted_w))
            rows.append(primitive_int_vector((*end, row[-1] * common)))
    symmetral = _hull_with_boundary(rows, body.dim)[0]
    if body.dim == 2 and symmetral.volume != body.volume:
        raise InvariantError("planar symmetral must preserve area")
    if symmetral.volume > body.volume:
        raise InvariantError("inner approximant exceeded true volume")
    return SteinerResult(symmetral, symmetral.volume < body.volume)


def _contains(outer: Polytope, inner: Polytope):
    """The first of inner's vertices outside a facet N.x <= o_num / o_den
    of outer, or None when inner lies in outer, tested on the vertex's row
    (X, d) as N.X o_den > o_num d.  (o_num, o_den) is the facet's stored
    offset pair, whose o_den is positive; no Fraction is read."""
    bounds = [(f.normal, *f.offset_pair) for f in outer.facets]
    for k, row in enumerate(inner.lifted):
        d = row[-1]
        for normal, o_num, o_den in bounds:
            if sum(map(mul, normal, row)) * o_den > o_num * d:
                return inner.vertices[k]
    return None


def superadditivity_check(first: Polytope, second: Polytope, w):
    """Exact check of st(K) + st(L) inside st(K + L): a vertex of the left
    side outside the right, or None when it is contained.

    In 3D both sides are the triangulated constructions, so the verdict
    refers to the computed bodies (exact on boxes and simplices).
    """
    left = combine(
        1, steiner_symmetral(first, w).symmetral, 1, steiner_symmetral(second, w).symmetral
    )
    right = steiner_symmetral(combine(1, first, 1, second), w).symmetral
    return _contains(right, left)


def _isoperimetric_ratio(body: Polytope) -> float:
    """perimeter^2 / (4 pi area) in floats.  The squared edges and the area
    are first divided by one power of four near the largest squared edge,
    which commutes with sqrt and float rounding: the ratio is the unscaled
    floats' whenever those are in range, and GeometryError past float range."""
    cycle = polygon_cycle(body)
    squares = [dot(e, e) for e in map(vsub, cycle[1:] + cycle[:1], cycle)]
    top = max(squares)
    unit = Fraction(4) ** ((top.numerator.bit_length() - top.denominator.bit_length()) // 2)
    perimeter = 0.0
    for sq in squares:
        perimeter += math.sqrt(float(sq / unit))
    area = float(body.volume / unit)
    ratio = perimeter**2 / (4 * math.pi * area) if area else math.inf
    if math.isinf(ratio):
        raise GeometryError("isoperimetric ratio past float range")
    return ratio


def rounding_iteration(body: Polytope, schedule, steps: int) -> tuple:
    """Iterate planar symmetrization through a cyclic direction schedule;
    one row (step, direction or None, exact volume, isoperimetric ratio)
    per step, step 0 first.

    Only volume constancy is asserted; the isoperimetric ratio column is
    reported so the rounding trend can be inspected, never asserted.
    Generic directions roughly double the vertex count (and compound the
    coordinate denominators) per step, so exact schedules beyond ~8 steps
    get expensive.
    """
    if body.dim != 2:
        raise DimensionError("rounding iteration is planar")
    schedule = tuple(as_vec(w) for w in schedule)
    if not schedule:
        raise EmptyScheduleError("schedule must contain at least one direction")
    rows = [(0, None, body.volume, _isoperimetric_ratio(body))]
    current = body
    for step in range(1, steps + 1):
        w = schedule[(step - 1) % len(schedule)]
        current = steiner_symmetral(current, w).symmetral
        if current.volume != body.volume:
            raise InvariantError("symmetrization changed the volume")
        rows.append((step, w, current.volume, _isoperimetric_ratio(current)))
    return tuple(rows)
