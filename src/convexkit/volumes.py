"""Minkowski combinations, exact volume, and mixed volumes.

The mixed volume V_{n-1,1}(K, L) -- mixed area A(K, L) in the plane -- is
computed by two independent routes that must agree exactly:

* interpolation: V_n(K + eps L) is a polynomial of degree <= n in eps;
  evaluate it at integer nodes, interpolate exactly, and read off the
  linear coefficient (which equals n V_{n-1,1}(K, L));
* base-height: (1/n) sum over facets of P of h_K(u) V_{n-1}(P^u), carried
  out in the pseudo-volume convention so every summand is rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bodies import segment
from .errors import (
    DimensionError,
    DimensionMismatchError,
    LowerDimensionalError,
    NegativeCoefficientError,
    ZeroDirectionError,
)
from .geometry import Polytope, convex_hull, support
from .linalg import (
    as_scalar,
    as_vec,
    is_zero_vec,
    rational_nth_root,
    solve,
    vadd,
    vscale,
)
from .numeric import DEFAULT_DIGITS, format_fixed, sqrt_fraction


@dataclass(frozen=True)
class VolumePolynomial:
    """Coefficients c_0..c_n of V_n(K + eps L) as a polynomial in eps."""

    coefficients: tuple

    def __post_init__(self):
        assert all(c >= 0 for c in self.coefficients), "negative Steiner coefficient"

    def evaluate(self, eps) -> Fraction:
        eps = as_scalar(eps)
        return sum(c * eps**i for i, c in enumerate(self.coefficients))

    def derivative_at_zero(self) -> Fraction:
        return self.coefficients[1]


def combine(a, first: Polytope, b, second: Polytope) -> Polytope:
    """Minkowski combination a*K + b*L (hull of pairwise point combinations)."""
    a, b = as_scalar(a), as_scalar(b)
    if a < 0 or b < 0:
        raise NegativeCoefficientError("combination coefficients must be >= 0")
    if first.dim != second.dim:
        raise DimensionMismatchError("bodies live in different dimensions")
    pts = {
        vadd(vscale(a, x), vscale(b, y))
        for x in first.vertices
        for y in second.vertices
    }
    return convex_hull(pts, allow_degenerate=True)


def volume(body: Polytope) -> Fraction:
    """Exact n-volume (0 for lower-dimensional bodies)."""
    return body.volume


def minkowski_interpolate(values) -> tuple:
    """Exact polynomial coefficients through values at eps = 0, 1, 2, ...

    The last node is redundant: the unique polynomial of degree <= n is
    interpolated through the first n+1 values and the extra node acts as a
    consistency check on the hull/volume pipeline.
    """
    n = len(values) - 2
    rows = [[Fraction(e) ** i for i in range(n + 1)] for e in range(n + 1)]
    coeffs = solve(rows, values[: n + 1])
    assert coeffs is not None
    check = sum(c * Fraction(n + 1) ** i for i, c in enumerate(coeffs))
    assert check == values[n + 1], "volume polynomial failed the redundant-node check"
    return tuple(coeffs)


def volume_polynomial(first: Polytope, second: Polytope) -> VolumePolynomial:
    n = first.dim
    if second.dim != n:
        raise DimensionMismatchError("bodies live in different dimensions")
    values = [first.volume]
    for eps in range(1, n + 2):
        values.append(combine(1, first, eps, second).volume)
    coeffs = minkowski_interpolate(values)
    assert coeffs[0] == first.volume and coeffs[n] == second.volume
    return VolumePolynomial(coeffs)


def mixed_volume_interp(first: Polytope, second: Polytope) -> Fraction:
    """V_{n-1,1}(K, L) as (1/n) d/deps V_n(K + eps L) at eps = 0."""
    poly = volume_polynomial(first, second)
    return poly.derivative_at_zero() / first.dim


def mixed_volume_base_height(first: Polytope, second: Polytope) -> Fraction:
    """V_{n-1,1}(P, K) = (1/n) sum h_K(u) V_{n-1}(P^u) over facet normals of P.

    With pseudo_volume = V_{n-1}(facet) |normal| and h_K evaluated on the
    unnormalized normal, each summand h_K(normal) pseudo / |normal|^2 equals
    the unit-normal summand exactly and stays rational.
    """
    if not first.is_full_dimensional:
        raise LowerDimensionalError("base-height formula needs a full-dimensional body")
    if first.dim != second.dim:
        raise DimensionMismatchError("bodies live in different dimensions")
    total = Fraction(0)
    for f in first.facets:
        total += support(second, f.normal) * f.pseudo_volume / f.normal_sq()
    return total / first.dim


def mixed_area(first: Polytope, second: Polytope) -> Fraction:
    """Symmetric mixed area in the plane."""
    if first.dim != 2 or second.dim != 2:
        raise DimensionError("mixed area is the 2-dimensional mixed volume")
    if first.is_full_dimensional:
        return mixed_volume_base_height(first, second)
    if second.is_full_dimensional:
        return mixed_volume_base_height(second, first)
    return mixed_volume_interp(first, second)


def projection_prism_volume(body: Polytope, w) -> Fraction:
    """V_n(K + [0, w]) - V_n(K) = |w| V_{n-1}(K_u); the rational scaled form
    in which all projection-volume identities are stated."""
    w = as_vec(w)
    if is_zero_vec(w):
        raise ZeroDirectionError("direction must be nonzero")
    if len(w) != body.dim:
        raise DimensionMismatchError("direction length differs from dimension")
    zero = tuple(Fraction(0) for _ in range(body.dim))
    return combine(1, body, 1, segment(zero, w)).volume - body.volume


@dataclass(frozen=True)
class SurfaceArea:
    """Sum over facets of V_{n-1}(F), kept as exact (pseudo, |normal|^2) pairs.

    The total is sum pseudo_i / sqrt(normal_sq_i); irrational in general, so
    the exact pairs are retained and a high-precision rendering is offered.
    """

    terms: tuple

    def exact(self):
        """Exact rational total when every |normal| is rational, else None."""
        total = Fraction(0)
        for pseudo, nsq in self.terms:
            root = rational_nth_root(nsq, 2)
            if root is None:
                return None
            total += pseudo / root
        return total

    def numeric(self, digits: int = DEFAULT_DIGITS) -> str:
        total = Fraction(0)
        for pseudo, nsq in self.terms:
            # pseudo / sqrt(q) = pseudo * sqrt(q) / q
            total += pseudo * sqrt_fraction(nsq, digits + 10) / nsq
        return format_fixed(total, digits)


def surface_area(body: Polytope) -> SurfaceArea:
    if not body.is_full_dimensional:
        raise LowerDimensionalError("surface area needs a full-dimensional body")
    return SurfaceArea(tuple((f.pseudo_volume, f.normal_sq()) for f in body.facets))
