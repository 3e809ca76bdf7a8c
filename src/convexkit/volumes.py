"""Minkowski combinations, exact volume, and mixed volumes.

The mixed volume V_{n-1,1}(K, L) -- mixed area A(K, L) in the plane -- is
computed by two independent routes that must agree exactly:

* interpolation: V_n(K + eps L) is a polynomial of degree <= n in eps;
  evaluate it at integer nodes, interpolate exactly, and read off the
  linear coefficient (which equals n V_{n-1,1}(K, L));
* base-height: (1/n) sum over facets of P of h_K(u) V_{n-1}(P^u), carried
  out in the pseudo-volume convention so every summand is rational.

By Minkowski's theorem on mixed volumes the same polynomial gives every
combination volume, V((1-lam)K + lam L) = sum_i c_i lam^i (1-lam)^(n-i)
(Schneider, Convex Bodies, ch. 5), and the Brunn-Minkowski check reads its
three volumes from it instead of hulling a combination per lam.  For
a, b > 0 the faces of aK + bL are aF_K(u) + bF_L(u) (Fukuda 2004), so which
vertex pairs (x, y) give the vertices a x + b y of aK + bL does not depend
on a and b, and each vertex has exactly one such pair.  For the same reason
K + eps L has the normal fan of K + L for every eps > 0, and moving each
pair point x + y to x + eps y carries the boundary simplices of K + L's
hull onto a boundary cycle of K + eps L: one hull per pair gives every
node, each later one at one n x n integer determinant per simplex.

One pure function of an ordered pair of bodies, ``_minkowski_sum``, an
``lru_cache`` of 8 pairs, holds what a pair has shown: K + L, the pair
behind each of its vertices, which ``combine`` hulls on later unequal
combinations, and V(K + eps L), eps = 0..n+1, read off the boundary cycle
right after the one hull.  It is the only place that forms the pair points
of two bodies, and it first checks their number against
``io.MAX_PAIR_POINTS``.  Nodes are cached before they are checked; the
checks on the volume polynomial -- the redundant node, the end coefficients
and the Aleksandrov-Fenchel inequalities -- run on every call, so a failed
one raises ``InvariantError`` on every call, and ``python -O`` keeps them.
That per-call work is integer arithmetic: the interpolation eliminates the
node volumes scaled by their common denominator, and a combination volume
is the Bernstein form evaluated over the coefficients' common denominator,
each built into one Fraction at the end.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from operator import add

from .errors import (
    DimensionError,
    DimensionMismatchError,
    InvariantError,
    LowerDimensionalError,
    NegativeCoefficientError,
    PairPointsError,
    ZeroDirectionError,
)
from .geometry import (
    Polytope,
    _check_ambient,
    _hull_with_boundary,
    _image_rows,
    _integer_support,
    convex_hull,
    scale,
)
from .io import MAX_PAIR_POINTS
from .linalg import (
    as_scalar,
    as_vec,
    is_zero_vec,
    mat_det,
    over_common_denominator,
    primitive_int_vector,
    rational_nth_root,
    solve,
    tree_sum,
    vadd,
    vscale,
)
from .numeric import DEFAULT_DIGITS, format_fixed, root_combination


@dataclass(frozen=True)
class VolumePolynomial:
    """Coefficients c_0..c_n of V_n(K + eps L) as a polynomial in eps."""

    coefficients: tuple

    def __post_init__(self):
        if any(c < 0 for c in self.coefficients):
            raise InvariantError("negative Steiner coefficient")
        # c_i = C(n, i) W_i with W_i = V(K[n-i], L[i]); W_i^2 >= W_(i-1) W_(i+1)
        # holds for all convex bodies, here cross-multiplied by the binomials.
        c = self.coefficients
        n = len(c) - 1
        if any(
            c[i] ** 2 * comb(n, i - 1) * comb(n, i + 1) < c[i - 1] * c[i + 1] * comb(n, i) ** 2
            for i in range(1, n)
        ):
            raise InvariantError("volume polynomial violates the Aleksandrov-Fenchel inequalities")

    def combination_volume(self, lam) -> Fraction:
        """V((1-lam)K + lam L) = sum_i c_i lam^i (1-lam)^(n-i) for 0 <= lam <= 1,
        in integers for lam = p/q: sum_i c_i p^i (q-p)^(n-i) / q^n with the
        c_i over their common denominator, one Fraction built at the end."""
        n = len(self.coefficients) - 1
        p, q = lam.numerator, lam.denominator
        common, numerators = over_common_denominator(self.coefficients)
        total = sum(c * p**i * (q - p) ** (n - i) for i, c in enumerate(numerators))
        return Fraction(total, common * q**n)


def _pair_row(x_row, y_row) -> tuple:
    """The integer triple (X d_y, Y d_x, d_x d_y) of the pair point x + y,
    from the lifted rows (X, d_x) of x and (Y, d_y) of y: x + eps y is
    (X d_y + eps Y d_x) / (d_x d_y)."""
    *x, dx = x_row
    *y, dy = y_row
    return tuple(a * dy for a in x), tuple(b * dx for b in y), dx * dy


@functools.lru_cache(maxsize=8)
def _minkowski_sum(first: Polytope, second: Polytope) -> tuple:
    """K + L, the one vertex pair (x, y) behind each of its vertices, and
    V(K + eps L) for eps = 0..n+1, each node past eps = 1 off K + L's
    boundary cycle.  Past MAX_PAIR_POINTS vertex pairs in the bodies'
    dimension it raises ``PairPointsError`` before forming them, and
    outside dimensions 2..4 ``AmbientDimError``.

    Each pair point x + y is formed in integers from the bodies' lifted
    rows (X, d_x) and (Y, d_y), as the primitive row of
    (X d_y + Y d_x, d_x d_y): the row ``_lift`` makes of x + y, so K + L's
    ``lifted`` is still its vertices' own rows.  The hull runs on these
    rows, and on a repeated point the last pair wins.
    """
    count = len(first.lifted) * len(second.lifted)
    cap = MAX_PAIR_POINTS.get(first.dim, count)
    if count > cap:
        raise PairPointsError(
            f"{count} vertex pairs in dimension {first.dim}; at most {cap} may be combined"
        )
    _check_ambient(first.dim)
    origin = {}
    for x, x_row in zip(first.vertices, first.lifted):
        for y, y_row in zip(second.vertices, second.lifted):
            x_part, y_part, weight = triple = _pair_row(x_row, y_row)
            row = primitive_int_vector((*map(add, x_part, y_part), weight))
            origin[row] = (x, y, triple)
    body, rows, simplices = _hull_with_boundary(list(origin), first.dim)
    pairs = tuple(origin[row][:2] for row in body.lifted)
    # The boundary cycle: each sorted pair point x + y once as its
    # ``_pair_row``, and the hull's outward simplices as indices into those.
    cycle = (tuple(origin[row][2] for row in rows), simplices)
    nodes = (first.volume, body.volume) + tuple(
        _cycle_volume(cycle, eps) for eps in range(2, first.dim + 2)
    )
    return body, pairs, nodes


def combine(a, first: Polytope, b, second: Polytope) -> Polytope:
    """Minkowski combination a*K + b*L (hull of pairwise point combinations).

    A zero coefficient scales the other body, and equal ones scale K + L,
    which is hulled once per recent ordered pair; otherwise only the vertex
    pairs behind the vertices of K + L are combined.  Past MAX_PAIR_POINTS
    vertex pairs, a combination that forms them raises ``PairPointsError``.
    """
    a, b = as_scalar(a), as_scalar(b)
    if a < 0 or b < 0:
        raise NegativeCoefficientError("combination coefficients must be >= 0")
    if first.dim != second.dim:
        raise DimensionMismatchError("bodies live in different dimensions")
    if a == b == 0:
        return convex_hull([(0,) * first.dim], allow_degenerate=True)
    if a == 0:
        return scale(second, b)
    if b == 0:
        return scale(first, a)
    total, pairs, _ = _minkowski_sum(first, second)
    if a == b:
        return scale(total, a)
    return convex_hull([vadd(vscale(a, x), vscale(b, y)) for x, y in pairs], allow_degenerate=True)


def volume(body: Polytope) -> Fraction:
    """Exact n-volume (0 for lower-dimensional bodies)."""
    return body.volume


def minkowski_interpolate(values) -> tuple:
    """Exact polynomial coefficients through values at eps = 0, 1, 2, ...

    The last node is redundant: the n+2 distinct nodes give the integer
    Vandermonde rows full column rank, so ``solve`` finds the n+1
    coefficients exactly when the extra node lies on the polynomial through
    the others -- a consistency check on the hull/volume pipeline.  The
    values are scaled by the lcm D of their denominators, so ``solve``
    eliminates integer rows, and its solution is divided by D.
    """
    n = len(values) - 2
    common, scaled = over_common_denominator(values)
    coeffs = solve([[e**i for i in range(n + 1)] for e in range(n + 2)], scaled)
    if coeffs is None:
        raise InvariantError("volume polynomial failed the redundant-node check")
    return tuple(c / common for c in coeffs)


def _cycle_volume(cycle, eps) -> Fraction:
    """V(K + eps L) for eps > 0 off K + L's boundary cycle.

    K + eps L has the normal fan of K + L, and a pair point x + y on a face
    F_u(K + L) has x in F_u(K) and y in F_u(L), so moving every pair point
    to x + eps y carries the boundary simplices of K + L onto a boundary
    cycle of K + eps L.  Its volume is the sum of the signed cones from the
    origin, (-1)^(n+1) det(X_i + eps Y_i) / prod(w_i) / n! over the
    simplices' rows (X_i, Y_i, w_i), summed as integer pairs by
    ``tree_sum`` into one Fraction.
    """
    rows, simplices = cycle
    n = len(rows[0][0])
    moved = [tuple(a + eps * b for a, b in zip(x, y)) for x, y, _ in rows]
    cones = tree_sum(
        (mat_det([moved[i] for i in simplex]), prod(rows[i][2] for i in simplex))
        for simplex in simplices
    )
    return (cones if n % 2 else -cones) / factorial(n)


def volume_polynomial(first: Polytope, second: Polytope) -> VolumePolynomial:
    """V_n(K + eps L) from the node volumes at eps = 0..n+1.

    The nodes come from the pair's record in ``_minkowski_sum``, so K + L
    is hulled once per recent ordered pair; the interpolation and its
    checks run on every call.  The redundant node tests the cycle against
    V(K) from K's own hull, and c_n = V(L) tests it against L's.
    """
    n = first.dim
    if second.dim != n:
        raise DimensionMismatchError("bodies live in different dimensions")
    coeffs = minkowski_interpolate(_minkowski_sum(first, second)[2])
    if coeffs[0] != first.volume or coeffs[n] != second.volume:
        raise InvariantError("volume polynomial end coefficients differ from the volumes")
    return VolumePolynomial(coeffs)


def mixed_volume_interp(first: Polytope, second: Polytope) -> Fraction:
    """V_{n-1,1}(K, L) as (1/n) d/deps V_n(K + eps L) at eps = 0."""
    return volume_polynomial(first, second).coefficients[1] / first.dim


def mixed_volume_base_height(first: Polytope, second: Polytope) -> Fraction:
    """V_{n-1,1}(P, K) = (1/n) sum h_K(u) V_{n-1}(P^u) over facet normals of P.

    With pseudo_volume = V_{n-1}(facet) |normal| and h_K evaluated on the
    unnormalized normal, each summand h_K(normal) pseudo / |normal|^2 equals
    the unit-normal summand exactly and stays rational.  Each facet's
    primitive integer normal goes straight to the integer core of
    ``support``, which reads h_K = X.W / d off K's integer rows with no
    re-lift and no direction check, and each summand is kept as an integer
    pair; the summands, whose denominators are unrelated (a 400-gon has
    400), are added by ``tree_sum``.
    """
    if not first.is_full_dimensional:
        raise LowerDimensionalError("base-height formula needs a full-dimensional body")
    if first.dim != second.dim:
        raise DimensionMismatchError("bodies live in different dimensions")
    rows = second.lifted
    terms = []
    for f in first.facets:
        _, (h, d) = _integer_support(rows, f.normal)
        pseudo = f.pseudo_volume
        terms.append((h * pseudo.numerator, d * pseudo.denominator * sum(c * c for c in f.normal)))
    return tree_sum(terms) / first.dim


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
    # K + [0, w] is the hull of K's rows and those of its translate K + w.
    rows = body.lifted + _image_rows(body.lifted, 1, w)
    return _hull_with_boundary(rows, body.dim)[0].volume - body.volume


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
        # pseudo / sqrt(q) = (pseudo / q) * sqrt(q)
        terms = [(pseudo / nsq, nsq, 2) for pseudo, nsq in self.terms]
        return format_fixed(root_combination(terms, digits), digits)


def surface_area(body: Polytope) -> SurfaceArea:
    if not body.is_full_dimensional:
        raise LowerDimensionalError("surface area needs a full-dimensional body")
    return SurfaceArea(tuple((f.pseudo_volume, f.normal_sq()) for f in body.facets))
