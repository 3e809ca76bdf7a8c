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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (
    DimensionError,
    EmptyScheduleError,
    InvariantError,
    LowerDimensionalError,
    ZeroDirectionError,
)
from .geometry import Polytope, convex_hull, polygon_cycle
from .linalg import as_vec, dot, is_zero_vec, vadd, vscale, vsub
from .volumes import combine


class SteinerExactness(enum.Enum):
    EXACT_2D = "Exact2D"
    TRIANGULATED_3D = "Triangulated3D"


@dataclass(frozen=True)
class SteinerResult:
    symmetral: Polytope
    direction: tuple
    exactness: SteinerExactness
    inner_approximation: bool  # False whenever volume was preserved exactly


def _chord_interval(body: Polytope, point, w):
    """Parameter range {t : point + t w in K}, via exact facet clipping."""
    lo, hi = None, None
    for f in body.facets:
        a = dot(f.normal, w)
        b = f.offset - dot(f.normal, point)
        if a == 0:
            continue  # point is in K, so this constraint cannot cut the fiber
        t = b / a
        if a > 0:
            hi = t if hi is None else min(hi, t)
        else:
            lo = t if lo is None else max(lo, t)
    if lo is None or hi is None or lo > hi:
        raise InvariantError("chord through a vertex misses the body")
    return lo, hi


def steiner_symmetral(body: Polytope, w) -> SteinerResult:
    """Symmetrize a full-dimensional body in R^2 or R^3 along direction w."""
    w = as_vec(w)
    if body.dim not in (2, 3):
        raise DimensionError("symmetrization implemented for dimensions 2 and 3")
    if len(w) != body.dim:
        raise DimensionError("direction length differs from ambient dimension")
    if is_zero_vec(w):
        raise ZeroDirectionError("direction must be nonzero")
    if not body.is_full_dimensional:
        raise LowerDimensionalError("symmetrization needs a full-dimensional body")
    wsq = dot(w, w)
    points = []
    for v in body.vertices:
        lo, hi = _chord_interval(body, v, w)
        base = vsub(v, vscale(dot(v, w) / wsq, w))  # projection onto w-perp
        half = (hi - lo) / 2
        points.append(vadd(base, vscale(half, w)))
        points.append(vsub(base, vscale(half, w)))
    symmetral = convex_hull(points, allow_degenerate=True)
    if body.dim == 2:
        exactness = SteinerExactness.EXACT_2D
        if symmetral.volume != body.volume:
            raise InvariantError("planar symmetral must preserve area")
        inner = False
    else:
        exactness = SteinerExactness.TRIANGULATED_3D
        if symmetral.volume > body.volume:
            raise InvariantError("inner approximant exceeded true volume")
        inner = symmetral.volume < body.volume
    return SteinerResult(symmetral, w, exactness, inner)


@dataclass(frozen=True)
class ContainmentVerdict:
    contained: bool
    witness_vertex: tuple | None  # a vertex of the left body outside the right


def _contains(outer: Polytope, inner: Polytope) -> ContainmentVerdict:
    for v in inner.vertices:
        for f in outer.facets:
            if dot(f.normal, v) > f.offset:
                return ContainmentVerdict(False, v)
    return ContainmentVerdict(True, None)


def superadditivity_check(first: Polytope, second: Polytope, w) -> ContainmentVerdict:
    """Exact check of st(K) + st(L) inside st(K + L).

    In 3D both sides are the triangulated constructions, so the verdict
    refers to the computed bodies (exact on boxes and simplices).
    """
    left = combine(
        1, steiner_symmetral(first, w).symmetral, 1, steiner_symmetral(second, w).symmetral
    )
    right = steiner_symmetral(combine(1, first, 1, second), w).symmetral
    return _contains(right, left)


@dataclass(frozen=True)
class RoundingTrace:
    rows: tuple  # (step, direction or None, exact volume, isoperimetric ratio)


def _isoperimetric_ratio(body: Polytope) -> float:
    cycle = polygon_cycle(body)
    perimeter = 0.0
    for i in range(len(cycle)):
        e = vsub(cycle[(i + 1) % len(cycle)], cycle[i])
        perimeter += math.sqrt(float(dot(e, e)))
    return perimeter**2 / (4 * math.pi * float(body.volume))


def rounding_iteration(body: Polytope, schedule, steps: int) -> RoundingTrace:
    """Iterate planar symmetrization through a cyclic direction schedule.

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
    return RoundingTrace(tuple(rows))
