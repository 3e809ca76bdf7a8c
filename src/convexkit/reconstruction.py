"""Support-function recovery of a planar body from mixed areas with probe
triangles, and the resulting translate decision.

A probe triangle T with outward normals n_0, n_1, n_2 and edges
lam_i * rot(n_i), where sum lam_i n_i = 0, has the mixed area

    2 A(K, T) = sum_i lam_i h_K(n_i)        (pseudo-length convention)

so one probe exposes h_K(n_0) once h_K(n_1) and h_K(n_2) are known.  After
sliding a polygon into the positive corner its support vanishes at -e1 and
-e2; these corner normals close every direction of the closed first
quadrant, and one corner normal with a recovered first-quadrant normal
closes every other direction.  The multipliers are 2x2 minors of the
normals, so everything stays rational.
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

# First-quadrant auxiliary normals tried when recovering a direction outside
# the closed first quadrant.  (1, 1) alone closes every such w with one
# corner normal: for w = (-a, b), -e2 gives the multipliers (1, a + b, a);
# for w = (a, -b), -e1 gives (1, a + b, b); for w = (-a, -b), -e1 gives
# (1, b - a, b) when b >= a and -e2 gives (1, a - b, a) when a >= b.
_AUX_CANDIDATES = ((1, 1),)

# Outward normals at which a corner-normalized body has support 0.
_CORNER = ((-1, 0), (0, -1))


@dataclass(frozen=True)
class CornerNormalizedBody:
    """Polygon translated so its support vanishes at -e1 and -e2."""

    body: Polytope
    applied_translation: tuple


@dataclass(frozen=True)
class ProbeTriangle:
    """Right probe with outward normals -e1, -e2 and w (positive quadrant).

    ``hypotenuse_pseudo_length`` is |hypotenuse| * |w|, always rational.
    """

    triangle: Polytope
    hypotenuse_pseudo_length: Fraction


def corner_normalize(body: Polytope) -> CornerNormalizedBody:
    """Slide a polygon into the positive corner; records the translation."""
    if body.dim != 2:
        raise DimensionError("corner normalization is a planar operation")
    if not body.is_full_dimensional:
        raise DimensionError("corner normalization needs a full-dimensional polygon")
    shift = (support(body, (-1, 0)), support(body, (0, -1)))
    return CornerNormalizedBody(translate(body, shift), shift)


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
    tri = convex_hull([(0, 0), (w[1] * scale, 0), (0, w[0] * scale)])
    return ProbeTriangle(tri, scale * dot(w, w))


# An oracle is any exact mixed-area functional A(K, .); tests may feed
# either the base-height or the interpolation implementation.
Oracle = Callable[[Polytope], Fraction]


def mixed_area_oracle(body: Polytope) -> Oracle:
    """The canonical oracle A(K, .) for a corner-normalized body; it
    evaluates each distinct probe once, such as the auxiliary normal's.
    Recovery takes h_K(-e1) = h_K(-e2) = 0, so any other body raises:
    ``DimensionError`` from ``corner_normalize`` unless it is a
    full-dimensional polygon, else ``GeometryError``."""
    if corner_normalize(body).applied_translation != (0, 0):
        raise GeometryError("the mixed-area oracle needs a corner-normalized body")
    return functools.cache(lambda probe_body: mixed_area(body, probe_body))


def _call_oracle(oracle: Oracle, probe_body: Polytope) -> Fraction:
    try:
        return as_scalar(oracle(probe_body))
    except GeometryError:
        raise
    except Exception as exc:  # noqa: BLE001 - oracle failures become OracleError
        raise OracleError(f"mixed-area oracle failed: {exc}") from exc


def _cross(u, v):
    return det2(u[0], v[0], u[1], v[1])


def _closing_solution(normals):
    """Multipliers lam with sum lam_i n_i = 0, the first positive and the
    others nonnegative, or None when there are none.  They are the 2x2
    minors of the normals, so integer normals give integer multipliers."""
    n0, n1, n2 = normals
    lams = (_cross(n1, n2), _cross(n2, n0), _cross(n0, n1))
    if lams[0] < 0:
        lams = tuple(-lam for lam in lams)
    if lams[0] == 0 or min(lams) < 0:
        return None
    return lams


@functools.lru_cache(maxsize=256)
def _probe(normals, lams) -> Polytope:
    """Probe whose outward normals are ``normals``, walking the edges
    lam_i rot(n_i) counterclockwise; the walk closes because
    sum lam_i n_i = 0, and its order is 0, 1, 2 exactly when n_0 x n_1 > 0.
    A zero multiplier leaves a segment.  The probe depends on nothing else,
    so it is built once for every body and direction that shares it."""
    pts = [(0, 0)]
    for i in (0, 1) if _cross(normals[0], normals[1]) > 0 else (0, 2):
        pts.append(vadd(pts[-1], vscale(lams[i], (-normals[i][1], normals[i][0]))))
    return convex_hull(pts, allow_degenerate=True)


def _recover(oracle: Oracle, w, candidates) -> Fraction:
    """h_K(w) from one probe with outward normals w and two normals of known
    support: the corner pair inside the closed first quadrant, otherwise one
    corner normal and the first candidate q that closes, with h_K(q)
    recovered by the same routine."""
    if w[0] >= 0 and w[1] >= 0:
        normals = (w, *_CORNER)
        lams, known = _closing_solution(normals), 0
    else:
        for normals in ((w, axis, q) for q in candidates for axis in _CORNER):
            lams = _closing_solution(normals)
            if lams is not None:
                break
        else:
            raise QuadrantError("no valid auxiliary normal closes a probe triangle")
        known = lams[2] * _recover(oracle, normals[2], ())
    area = _call_oracle(oracle, _probe(normals, lams))
    return (2 * area - known) / lams[0]


def recover_support(oracle: Oracle, w) -> Fraction:
    """h_K(w) for w in the open positive quadrant, from mixed areas alone."""
    w = as_vec(w)
    if len(w) != 2:
        raise DimensionError("recovery is planar")
    if not (w[0] > 0 and w[1] > 0):
        raise QuadrantError("probe normal must lie in the open positive quadrant")
    return _recover(oracle, w, ())


def recover_support_other_quadrants(
    oracle: Oracle, w, aux: Optional[tuple] = None
) -> Fraction:
    """h_K(w) for w outside the open positive quadrant.

    Positive-axis directions are closed by the corner normals -e1, -e2.
    Otherwise a probe with outward normals {w, -e_i, q} is built for a
    first-quadrant q (the first candidate that closes, or the supplied
    ``aux``), and h_K(w) is solved from its mixed area using h_K(-e_i) = 0
    and the separately recovered h_K(q).
    """
    w = as_vec(w)
    if len(w) != 2:
        raise DimensionError("recovery is planar")
    if is_zero_vec(w):
        raise ZeroDirectionError("direction must be nonzero")
    if w[0] > 0 and w[1] > 0:
        raise QuadrantError("direction lies in the open positive quadrant; "
                            "use recover_support")
    candidates = _AUX_CANDIDATES if aux is None else (as_vec(aux),)
    if not all(q[0] > 0 and q[1] > 0 for q in candidates):
        raise QuadrantError("auxiliary normal must lie in the open positive quadrant")
    return _recover(oracle, w, candidates)


def recover_support_any(oracle: Oracle, w) -> Fraction:
    """h_K(w) for any nonzero planar direction w."""
    w = as_vec(w)
    if len(w) != 2:
        raise DimensionError("recovery is planar")
    if is_zero_vec(w):
        raise ZeroDirectionError("direction must be nonzero")
    return _recover(oracle, w, _AUX_CANDIDATES)


def farey_fractions(order: int = 8):
    """Ascending Farey fractions of the given order in [0, 1)."""
    fracs = {Fraction(0)}
    for q in range(2, order + 1):
        for p in range(1, q):
            fracs.add(Fraction(p, q))
    return sorted(fracs)


def farey_directions():
    """Deterministic direction grid: 16 slopes per quadrant from the Farey
    sequence of order 8 (smallest denominators first), rotated through all
    quadrants: 64 directions, axes included once."""
    slopes = sorted(farey_fractions(8), key=lambda f: (f.denominator, f.numerator))
    quadrant = [(Fraction(s.denominator), Fraction(s.numerator)) for s in sorted(slopes[:16])]
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
