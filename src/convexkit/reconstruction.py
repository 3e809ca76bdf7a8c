"""Support-function recovery of a planar body from mixed areas with probe
triangles, and the resulting translate decision.

After sliding a polygon into the positive corner (support 0 at -e1 and -e2),
the mixed area against a right triangle whose third outward normal points
into the open first quadrant exposes one support value:

    2 A(K, T_w) = h_K(w) * lam_w        (pseudo-length convention)

where lam_w = |edge| / |w| is rational.  Directions outside the closed first
quadrant are reached with a triangle built from w, one coordinate axis
normal, and an already-recovered first-quadrant normal.  Everything stays
rational because lengths only ever appear multiplied by their own normal's
length.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import (
    DimensionError,
    GeometryError,
    InvariantError,
    OracleError,
    QuadrantError,
    ZeroDirectionError,
)
from .geometry import Polytope, bodies_equal, convex_hull, support, translate
from .linalg import as_scalar, as_vec, det2, dot, is_zero_vec, vadd, vscale
from .volumes import mixed_area

# First-quadrant auxiliary normals tried, in order, when recovering a
# direction outside the closed first quadrant; the first candidate whose
# closing system has a strictly positive solution is used, and the recovered
# value is independent of the choice.
_AUX_CANDIDATES = (
    (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2),
    (1, 4), (4, 1), (3, 4), (4, 3), (1, 5), (5, 1),
)


@dataclass(frozen=True)
class CornerNormalizedBody:
    """Polygon translated so its support vanishes at -e1 and -e2."""

    body: Polytope
    applied_translation: tuple


@dataclass(frozen=True)
class ProbeTriangle:
    """Right probe with outward normals -e1, -e2 and w (positive quadrant).

    ``hypotenuse_pseudo_length`` is |hypotenuse| * |w|, always rational.
    Probes for boundary directions (w on a positive axis) degenerate to a
    segment; the recovery formula extends continuously to them.
    """

    triangle: Polytope
    hypotenuse_normal: tuple
    hypotenuse_pseudo_length: Fraction


def corner_normalize(body: Polytope) -> CornerNormalizedBody:
    """Slide a polygon into the positive corner; records the translation."""
    if body.dim != 2:
        raise DimensionError("corner normalization is a planar operation")
    if not body.is_full_dimensional:
        raise DimensionError("corner normalization needs a full-dimensional polygon")
    shift = (support(body, (-1, 0)), support(body, (0, -1)))
    return CornerNormalizedBody(translate(body, shift), shift)


def _probe_points(w, scale):
    return [
        (Fraction(0), Fraction(0)),
        (w[1] * scale, Fraction(0)),
        (Fraction(0), w[0] * scale),
    ]


def probe_triangle(w, scale=Fraction(1)) -> ProbeTriangle:
    """Triangle conv{0, (w2 c, 0), (0, w1 c)} whose hypotenuse normal is w."""
    w = as_vec(w)
    scale = as_scalar(scale)
    if len(w) != 2:
        raise DimensionError("probe triangles are planar")
    if not (w[0] > 0 and w[1] > 0):
        raise QuadrantError("probe normal must lie in the open positive quadrant")
    if scale <= 0:
        raise ValueError("probe scale must be positive")
    tri = convex_hull(_probe_points(w, scale))
    return ProbeTriangle(tri, w, scale * dot(w, w))


def _boundary_probe(w, scale=Fraction(1)) -> ProbeTriangle:
    """Degenerate probe for w on a positive coordinate axis."""
    tri = convex_hull(_probe_points(w, scale), allow_degenerate=True)
    return ProbeTriangle(tri, w, scale * dot(w, w))


# An oracle is any exact mixed-area functional A(K, .); tests may feed
# either the base-height or the interpolation implementation.
Oracle = Callable[[Polytope], Fraction]


def mixed_area_oracle(body: Polytope) -> Oracle:
    """The canonical oracle A(K, .) for a corner-normalized body."""
    return lambda probe_body: mixed_area(body, probe_body)


def _call_oracle(oracle: Oracle, probe_body: Polytope) -> Fraction:
    try:
        return as_scalar(oracle(probe_body))
    except GeometryError:
        raise
    except Exception as exc:  # noqa: BLE001 - oracle failures become OracleError
        raise OracleError(f"mixed-area oracle failed: {exc}") from exc


def recover_support(oracle: Oracle, w) -> Fraction:
    """h_K(w) for w in the open positive quadrant, from mixed areas alone.

    The value is exact and independent of the probe scale.
    """
    w = as_vec(w)
    probe = probe_triangle(w)
    area = _call_oracle(oracle, probe.triangle)
    return 2 * area * dot(w, w) / probe.hypotenuse_pseudo_length


def _closing_solution(normals):
    """Positive multipliers lam with sum lam_i n_i = 0 (lam for the last is 1),
    or None when the normals do not positively span the plane."""
    n1, n2, n3 = normals
    d = det2(n1[0], n2[0], n1[1], n2[1])
    if d == 0:
        return None
    l1 = det2(-n3[0], n2[0], -n3[1], n2[1]) / d
    l2 = det2(n1[0], -n3[0], n1[1], -n3[1]) / d
    if l1 <= 0 or l2 <= 0:
        return None
    return (l1, l2, Fraction(1))


def _angle_order_key(v):
    """Total exact ordering of directions by angle from the positive x-axis."""
    upper = 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
    return (upper, v)


def _triangle_from_normals(normals, lams) -> Polytope:
    """Triangle whose outward normals are ``normals`` with edge lengths
    lam_i |n_i|; the boundary closes because sum lam_i n_i = 0."""

    def cmp(i, j):
        a, b = normals[i], normals[j]
        ka, kb = _angle_order_key(a)[0], _angle_order_key(b)[0]
        if ka != kb:
            return -1 if ka < kb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        return 0 if cross == 0 else (-1 if cross > 0 else 1)

    order = sorted(range(3), key=functools.cmp_to_key(cmp))
    v = (Fraction(0), Fraction(0))
    pts = [v]
    for i in order[:-1]:
        edge = vscale(lams[i], (-normals[i][1], normals[i][0]))
        v = vadd(v, edge)
        pts.append(v)
    return convex_hull(pts)


def recover_support_other_quadrants(
    oracle: Oracle, w, aux: Optional[tuple] = None
) -> Fraction:
    """h_K(w) for w outside the open positive quadrant.

    Positive-axis boundary directions use the degenerate probe directly.
    Otherwise a triangle with outward normals {w, -e_i, q} is built for a
    first-quadrant q (the first valid candidate, or the supplied ``aux``),
    and h_K(w) is solved from the mixed area using h_K(-e_i) = 0 and the
    separately recovered h_K(q).
    """
    w = as_vec(w)
    if len(w) != 2:
        raise DimensionError("recovery is planar")
    if is_zero_vec(w):
        raise ZeroDirectionError("direction must be nonzero")
    if w[0] > 0 and w[1] > 0:
        raise QuadrantError("direction lies in the open positive quadrant; "
                            "use recover_support")
    if w[0] >= 0 and w[1] >= 0:  # positive axis boundary
        probe = _boundary_probe(w)
        area = _call_oracle(oracle, probe.triangle)
        return 2 * area * dot(w, w) / probe.hypotenuse_pseudo_length

    axes = ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))
    candidates = [as_vec(aux)] if aux is not None else [as_vec(q) for q in _AUX_CANDIDATES]
    for q in candidates:
        if not (q[0] > 0 and q[1] > 0):
            raise QuadrantError("auxiliary normal must lie in the open positive quadrant")
        for axis in axes:
            lams = _closing_solution((w, axis, q))
            if lams is None:
                continue
            tri = _triangle_from_normals((w, axis, q), lams)
            area = _call_oracle(oracle, tri)
            h_q = recover_support(oracle, q)
            # 2A = lam_w h(w) + lam_axis * 0 + lam_q h(q)
            return (2 * area - lams[2] * h_q) / lams[0]
    raise QuadrantError("no valid auxiliary normal closes a probe triangle")


def recover_support_any(oracle: Oracle, w) -> Fraction:
    """Dispatch between the two recovery routes."""
    w = as_vec(w)
    if len(w) == 2 and w[0] > 0 and w[1] > 0:
        return recover_support(oracle, w)
    return recover_support_other_quadrants(oracle, w)


def farey_fractions(order: int = 8):
    """Ascending Farey fractions of the given order in [0, 1)."""
    fracs = {Fraction(0)}
    for q in range(2, order + 1):
        for p in range(1, q):
            fracs.add(Fraction(p, q))
    return sorted(fracs)


def farey_directions(per_quadrant: int = 16, order: int = 8):
    """Deterministic direction grid: per-quadrant slopes from the Farey
    sequence (smallest denominators first), rotated through all quadrants.

    The default yields 64 directions, 16 per quadrant, axes included once.
    """
    slopes = sorted(farey_fractions(order), key=lambda f: (f.denominator, f.numerator))
    slopes = sorted(slopes[:per_quadrant])
    quadrant = [(Fraction(s.denominator), Fraction(s.numerator)) for s in slopes]
    dirs = []
    for x, y in quadrant:
        dirs.extend([(x, y), (-y, x), (-x, -y), (y, -x)])
    return tuple(dirs)


@dataclass(frozen=True)
class TranslateDecision:
    are_translates: bool
    translation: Optional[tuple]  # second = first + translation, when True
    witness_direction: Optional[tuple]
    trace: tuple  # (direction, recovered_first, recovered_second) rows


def translates_decision(
    first: Polytope, second: Polytope, direction_grid=None
) -> TranslateDecision:
    """Decide whether two polygons are translates of each other.

    The complete certificate is canonical equality after corner
    normalization; the per-direction trace of recovered support values is
    the constructive evidence (refutation is sound on any differing row).
    """
    cn_first = corner_normalize(first)
    cn_second = corner_normalize(second)
    grid = farey_directions() if direction_grid is None else tuple(
        as_vec(w) for w in direction_grid
    )
    oracle_first = mixed_area_oracle(cn_first.body)
    oracle_second = mixed_area_oracle(cn_second.body)
    rows = []
    witness = None
    for w in grid:
        ha = recover_support_any(oracle_first, w)
        hb = recover_support_any(oracle_second, w)
        rows.append((w, ha, hb))
        if ha != hb and witness is None:
            witness = w
    equal = bodies_equal(cn_first.body, cn_second.body)
    translation = None
    if equal:
        if witness is not None:
            raise InvariantError("recovered supports disagree on equal bodies")
        translation = tuple(
            a - b
            for a, b in zip(cn_first.applied_translation, cn_second.applied_translation)
        )
    return TranslateDecision(equal, translation, witness, tuple(rows))
