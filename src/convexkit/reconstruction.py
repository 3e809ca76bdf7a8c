"""Support-function recovery of a planar body from mixed areas with probe
triangles, and the resulting translate decision.

A probe triangle T with outward normals n_0, n_1, n_2 and edges
lam_i * rot(n_i), where sum lam_i n_i = 0, has the mixed area

    2 A(K, T) = sum_i lam_i h_K(n_i)        (pseudo-length convention)

so one probe exposes h_K(n_0) once h_K(n_1) and h_K(n_2) are known.
``corner_normalize`` slides a polygon into the positive corner, where its
support vanishes at -e1 and -e2.  ``recover_support_any``, the one entry
point, reads h_K(w) off one probe that ``_probe`` builds: the corner normals
close every w of the closed first quadrant, and any other w closes with
(1, 1), whose support is recovered first, and -e2 when w_1 < w_2, -e1
otherwise.  The multipliers are 2x2 minors of the normals, so everything
stays rational."""

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
    ZeroDirectionError,
)
from .geometry import (
    Polytope,
    _check_full_dimensional,
    convex_hull,
    support,
    translate,
)
from .linalg import as_scalar, as_vec, det2, is_zero_vec, vadd, vscale
from .volumes import mixed_area

# Outward normals at which a corner-normalized body has support 0.
_CORNER = ((-1, 0), (0, -1))

# The first-quadrant normal that closes a probe with w and one corner normal
# for every w outside the closed first quadrant: for w = (-a, b), -e2 gives
# the multipliers (1, a + b, a); for w = (a, -b), -e1 gives (1, a + b, b);
# for w = (-a, -b), -e2 gives (1, a - b, a) when a > b and -e1 gives
# (1, b - a, b) otherwise.
_AUX = (1, 1)


@dataclass(frozen=True)
class CornerNormalizedBody:
    """Polygon translated so its support vanishes at -e1 and -e2."""

    body: Polytope
    applied_translation: tuple


def _corner_shift(body: Polytope) -> tuple:
    """(h_K(-e1), h_K(-e2)), the translation that slides a polygon into the
    positive corner; (0, 0) exactly when it is already there."""
    if body.dim != 2:
        raise DimensionError("corner normalization is a planar operation")
    _check_full_dimensional(body)
    return tuple(support(body, n) for n in _CORNER)


def corner_normalize(body: Polytope) -> CornerNormalizedBody:
    """Slide a polygon into the positive corner; records the translation."""
    shift = _corner_shift(body)
    return CornerNormalizedBody(translate(body, shift), shift)


# An oracle is any exact mixed-area functional A(K, .); tests may feed
# either the base-height or the interpolation implementation.
Oracle = Callable[[Polytope], Fraction]


def mixed_area_oracle(body: Polytope) -> Oracle:
    """The canonical oracle A(K, .) for a corner-normalized body; it
    evaluates each distinct probe once, such as the auxiliary normal's.
    Recovery takes h_K(-e1) = h_K(-e2) = 0, so any other body raises:
    ``DimensionError`` unless it is a full-dimensional polygon, else
    ``GeometryError``."""
    if _corner_shift(body) != (0, 0):
        raise GeometryError("the mixed-area oracle needs a corner-normalized body")
    return functools.cache(lambda probe_body: mixed_area(body, probe_body))


def _call_oracle(oracle: Oracle, probe_body: Polytope) -> Fraction:
    try:
        return as_scalar(oracle(probe_body))
    except GeometryError:
        raise
    except Exception as exc:  # noqa: BLE001 - oracle failures become OracleError
        raise OracleError(f"mixed-area oracle failed: {exc}") from exc


def _closing_solution(normals):
    """Multipliers lam with sum lam_i n_i = 0, the first positive and the
    others nonnegative.  They are the 2x2 minors of the normals, so integer
    normals give integer multipliers."""
    n0, n1, n2 = normals
    lams = (det2(*n1, *n2), det2(*n2, *n0), det2(*n0, *n1))
    if lams[0] < 0:
        lams = tuple(-lam for lam in lams)
    if lams[0] == 0 or min(lams) < 0:
        raise InvariantError(f"probe normals {normals} do not close")
    return lams


@functools.lru_cache(maxsize=256)
def _probe(normals, lams) -> Polytope:
    """Probe whose outward normals are ``normals``, walking the edges
    lam_i rot(n_i) counterclockwise; the walk closes because
    sum lam_i n_i = 0, and its order is 0, 1, 2 exactly when n_0 x n_1 > 0.
    A zero multiplier leaves a segment.  The probe depends on nothing else,
    so it is built once for every body and direction that shares it."""
    pts = [(0, 0)]
    for i in (0, 1) if det2(*normals[0], *normals[1]) > 0 else (0, 2):
        pts.append(vadd(pts[-1], vscale(lams[i], (-normals[i][1], normals[i][0]))))
    return convex_hull(pts, allow_degenerate=True)


def _recover(oracle: Oracle, w) -> Fraction:
    """h_K(w) from one probe with outward normals w, n_1 and n_2 of known
    support: the corner pair inside the closed first quadrant, otherwise
    -e2 when w_1 < w_2 and -e1 when not, and n_2 = ``_AUX``, whose support
    is recovered by the same routine.  h_K(n_1) is 0."""
    if w[0] >= 0 and w[1] >= 0:
        normals, h2 = (w, *_CORNER), 0
    else:
        normals = (w, _CORNER[1] if w[0] < w[1] else _CORNER[0], _AUX)
        h2 = _recover(oracle, _AUX)
    lams = _closing_solution(normals)
    area = _call_oracle(oracle, _probe(normals, lams))
    return (2 * area - lams[2] * h2) / lams[0]


def recover_support_any(oracle: Oracle, w) -> Fraction:
    """h_K(w) for any nonzero planar direction w, from mixed areas alone."""
    w = as_vec(w)
    if len(w) != 2:
        raise DimensionError("recovery is planar")
    if is_zero_vec(w):
        raise ZeroDirectionError("direction must be nonzero")
    return _recover(oracle, w)


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
    translation: Optional[tuple]  # second = first + translation; None unless translates
    trace: tuple  # (direction, recovered_first, recovered_second) rows


def translates_decision(first: Polytope, second: Polytope) -> TranslateDecision:
    """Decide whether two polygons are translates of each other.

    The complete certificate is canonical equality after corner
    normalization; the trace of recovered support values over the Farey
    grid is the constructive evidence (refutation is sound on any row whose
    two values differ).
    """
    cn_first = corner_normalize(first)
    cn_second = corner_normalize(second)
    oracle_first = mixed_area_oracle(cn_first.body)
    oracle_second = mixed_area_oracle(cn_second.body)
    rows = tuple(
        (w, recover_support_any(oracle_first, w), recover_support_any(oracle_second, w))
        for w in farey_directions()
    )
    translation = None
    if cn_first.body == cn_second.body:
        if any(ha != hb for _, ha, hb in rows):
            raise InvariantError("recovered supports disagree on equal bodies")
        translation = tuple(
            a - b
            for a, b in zip(cn_first.applied_translation, cn_second.applied_translation)
        )
    return TranslateDecision(translation, rows)
