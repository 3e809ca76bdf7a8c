"""Minkowski combinations, the volume polynomial, and mixed volumes.  A
body's exact volume is its ``volume`` field, summed by the hull.

The mixed volume V_{n-1,1}(K, L) -- mixed area A(K, L) in the plane -- is
computed by two independent routes that must agree exactly:

* interpolation: V_n(K + eps L) is a polynomial of degree <= n in eps;
  evaluate it at integer nodes, interpolate exactly, and read off the
  linear coefficient (which equals n V_{n-1,1}(K, L));
* base-height: (1/n) sum over facets of P of h_K(u) V_{n-1}(P^u), carried
  out on the primitive normals and the facets' weights V_{n-1}(P^u) / |u|,
  so every summand is rational.

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
(x, y) behind each of its vertices as the integer triple
(X d_y, Y d_x, d_x d_y) of the bodies' rows, and V(K + eps L),
eps = 0..n+1, read off the boundary cycle right after the one hull.  It is
the only place that pairs the vertices of two bodies, and it first checks
their number against ``MAX_PAIR_POINTS``.  One routine,
``_pair_points``, turns the triples into the rows of a x + b y: the pair
points x + y, the moved points x + eps y of each node, and the vertices
a x + b y that ``combine`` hulls for unequal coefficients, so no
``Fraction`` point is formed.

Nodes are cached before they are checked.  The checks on the volume
polynomial -- the redundant node, the end coefficients and the
Aleksandrov-Fenchel inequalities -- are integer arithmetic from the node
volumes: the interpolation eliminates the node volumes scaled by their
common denominator into one (numerators, den) pair, the end coefficients
are checked against V(K) and V(L) by cross-multiplication, and
``VolumePolynomial`` keeps the pair in lowest terms and runs its sign and
Aleksandrov-Fenchel checks on the numerators.  ``_interpolated_polynomial``
runs them on every call; ``volume_polynomial`` keeps its result in an
``lru_cache`` of 8 ordered pairs, so for the Brunn-Minkowski forms they
run once per pair.  The cache keys on the bodies' rows, so equal bodies
share one polynomial, and a body whose ``volume`` field disagrees with
its rows is caught only on a miss.  It keeps no exception, so a failed
check raises ``InvariantError`` on every call; the checks are explicit
raises, so ``python -O`` keeps them.  ``mixed_volume_interp`` and
``profile_polynomial`` interpolate on every call.  The kept polynomial is
the same interpolation, so reading it would leave them just as independent
of the base-height route.  They do not read it because
``perfbench/smoke.py`` requires ``linalg.solve.*`` to read non-zero on a
traced ``sweep-3d`` run that follows an untraced run of the same pairs:
with the kept polynomial read, every pair is warm by then and ``solve`` is
never called.  A combination volume is the Bernstein form evaluated over
the stored denominator, and the interpolated mixed volume is
numerators[1] / (den n): one Fraction per result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, prod

from .errors import (
    DimensionError,
    InvariantError,
    LambdaRangeError,
    NegativeCoefficientError,
    PairPointsError,
)
from .geometry import (
    Polytope,
    _check_ambient,
    _check_direction,
    _check_full_dimensional,
    _check_pair_dim,
    _hull_with_boundary,
    _image_rows,
    _integer_support,
    scale,
)
from .linalg import (
    as_scalar,
    mat_det,
    over_common_denominator,
    primitive_int_vector,
    rational_nth_root,
    solve,
    tree_sum,
)
from .numeric import DEFAULT_DIGITS, format_fixed, root_combination

# Most vertex pairs (x, y) of two bodies in R^n whose points x + y the pair
# record may form; past it `_minkowski_sum` raises PairPointsError.
# Hulling the pair points costs more per point in higher dimensions; at each
# cap the worst pairs measured (in 4D, cyclic polytopes whose every pair
# point is a vertex of K + L) take at most about 2 s under `mixedvol` and
# `check --form bm`.
MAX_PAIR_POINTS = {2: 4096, 3: 1024, 4: 256}


def as_lambda(t) -> Fraction:
    """An interpolation weight as a Fraction, checked to lie in [0, 1]."""
    t = as_scalar(t)
    if not 0 <= t <= 1:
        raise LambdaRangeError(f"lambda {t} outside [0, 1]")
    return t


@dataclass(frozen=True)
class VolumePolynomial:
    """Coefficients c_i = numerators[i] / denominator, i = 0..n, of
    V_n(K + eps L) as a polynomial in eps.

    It takes integer numerators over a nonzero integer denominator: other
    types raise ``TypeError``, which names that contract, and a zero
    denominator ``InvariantError``.  The integers are stored in lowest terms
    with a positive denominator, so two polynomials are equal exactly when
    their coefficients are, and the checks below compare integers."""

    numerators: tuple
    denominator: int = 1

    def __post_init__(self):
        try:
            g = gcd(*self.numerators, self.denominator)
        except TypeError:
            message = "VolumePolynomial takes integer numerators over a nonzero integer denominator"
            raise TypeError(message) from None
        if self.denominator == 0:
            raise InvariantError("volume polynomial has a zero denominator")
        g = g if self.denominator > 0 else -g
        c = tuple(a // g for a in self.numerators)
        object.__setattr__(self, "numerators", c)
        object.__setattr__(self, "denominator", self.denominator // g)
        if any(a < 0 for a in c):
            raise InvariantError("negative Steiner coefficient")
        # c_i = C(n, i) W_i with W_i = V(K[n-i], L[i]); W_i^2 >= W_(i-1) W_(i+1)
        # holds for all convex bodies, here cross-multiplied by the binomials
        # and, on both sides, by the squared denominator.
        n = len(c) - 1
        if any(
            c[i] ** 2 * comb(n, i - 1) * comb(n, i + 1) < c[i - 1] * c[i + 1] * comb(n, i) ** 2
            for i in range(1, n)
        ):
            raise InvariantError("volume polynomial violates the Aleksandrov-Fenchel inequalities")

    @functools.cached_property
    def coefficients(self) -> tuple:
        """The coefficients as Fractions, built on first read."""
        return tuple(Fraction(a, self.denominator) for a in self.numerators)

    def combination_volume(self, lam) -> Fraction:
        """V((1-lam)K + lam L) = sum_i c_i lam^i (1-lam)^(n-i) for lam in [0, 1].
        A lam outside [0, 1] raises ``LambdaRangeError``."""
        return self._combination_volume(as_lambda(lam))

    def _combination_volume(self, lam: Fraction) -> Fraction:
        """``combination_volume`` at a lam that ``as_lambda`` has already
        checked, in integers for lam = p/q: sum_i c_i p^i (q-p)^(n-i) / q^n
        over the stored denominator, one Fraction built at the end.  The
        checkers that take lam from their caller check it once and come
        here."""
        n = len(self.numerators) - 1
        p, q = lam.numerator, lam.denominator
        total = sum(c * p**i * (q - p) ** (n - i) for i, c in enumerate(self.numerators))
        return Fraction(total, self.denominator * q**n)


def _pair_row(x_row, y_row) -> tuple:
    """The integer triple (X d_y, Y d_x, d_x d_y) of the pair (x, y), from
    the lifted rows (X, d_x) of x and (Y, d_y) of y: x and y over the one
    weight d_x d_y."""
    *x, dx = x_row
    *y, dy = y_row
    return tuple(a * dy for a in x), tuple(b * dx for b in y), dx * dy


def _pair_points(pairs, a, b) -> list:
    """The row of a x + b y for each ``_pair_row`` triple (X', Y', w), for
    rational a, b >= 0, unreduced: with a = p / q and b = r / s it is
    (X' p s + Y' r q, w q s)."""
    (p, q), (r, s) = a.as_integer_ratio(), b.as_integer_ratio()
    ps, rq, qs = p * s, r * q, q * s
    return [(*(x * ps + y * rq for x, y in zip(xs, ys)), w * qs) for xs, ys, w in pairs]


@functools.lru_cache(maxsize=8)
def _minkowski_sum(first: Polytope, second: Polytope) -> tuple:
    """K + L, the ``_pair_row`` triple of the one vertex pair (x, y) behind
    each of its vertices, and V(K + eps L) for eps = 0..n+1, each node past
    eps = 1 off K + L's boundary cycle.  Outside dimensions 2..4 it raises
    ``AmbientDimError``, and past MAX_PAIR_POINTS vertex pairs in the
    bodies' dimension ``PairPointsError``, before forming them.  The
    caller has checked that the bodies share their dimension.

    The triples come from the bodies' lifted rows, and each pair point
    x + y is the primitive row of its ``_pair_points`` row
    (X d_y + Y d_x, d_x d_y): the row ``_lift`` makes of x + y, so K + L's
    ``lifted`` is still its vertices' own rows.  The hull runs on these
    rows, and on a repeated point the last pair wins.
    """
    _check_ambient(first.dim)
    count = len(first.lifted) * len(second.lifted)
    cap = MAX_PAIR_POINTS[first.dim]
    if count > cap:
        raise PairPointsError(
            f"{count} vertex pairs in dimension {first.dim}; at most {cap} may be combined"
        )
    triples = [_pair_row(x, y) for x in first.lifted for y in second.lifted]
    origin = dict(zip(map(primitive_int_vector, _pair_points(triples, 1, 1)), triples))
    body, rows, simplices = _hull_with_boundary(list(origin), first.dim)
    # The boundary cycle: each sorted pair point x + y once as its triple,
    # and the hull's outward simplices as indices into those.
    cycle = (tuple(origin[row] for row in rows), simplices)
    nodes = (first.volume, body.volume) + tuple(
        _cycle_volume(cycle, eps) for eps in range(2, first.dim + 2)
    )
    return body, tuple(origin[row] for row in body.lifted), nodes


def combine(a, first: Polytope, b, second: Polytope) -> Polytope:
    """Minkowski combination a*K + b*L (hull of pairwise point combinations).

    A zero coefficient scales the other body, and equal ones scale K + L,
    which is hulled once per recent ordered pair; otherwise only the vertex
    pairs behind the vertices of K + L are combined, as rows from their
    triples.  A negative coefficient raises ``NegativeCoefficientError``,
    then ``_check_pair_dim`` checks the bodies' dimensions; past
    MAX_PAIR_POINTS vertex pairs, a combination that forms them raises
    ``PairPointsError`` from ``_minkowski_sum``.
    """
    a, b = as_scalar(a), as_scalar(b)
    if a < 0 or b < 0:
        raise NegativeCoefficientError("combination coefficients must be >= 0")
    _check_pair_dim(first, second)
    if a == b == 0:
        return _hull_with_boundary([(0,) * first.dim + (1,)], first.dim)[0]
    if a == 0:
        return scale(second, b)
    if b == 0:
        return scale(first, a)
    total, pairs, _ = _minkowski_sum(first, second)
    if a == b:
        return scale(total, a)
    rows = [primitive_int_vector(row) for row in _pair_points(pairs, a, b)]
    return _hull_with_boundary(rows, first.dim)[0]


def minkowski_interpolate(values) -> tuple:
    """Exact polynomial coefficients through values at eps = 0, 1, 2, ...,
    as the integer pair (numerators, den): coefficient i is
    numerators[i] / den, with den > 0.

    The last node is redundant: the n+2 distinct nodes give the integer
    Vandermonde rows full column rank, so ``solve`` finds the n+1
    coefficients exactly when the extra node lies on the polynomial through
    the others -- a consistency check on the hull/volume pipeline.  The
    values are scaled by the lcm D of their denominators, so ``solve``
    eliminates integer rows, and its denominator is multiplied by D.
    """
    n = len(values) - 2
    common, scaled = over_common_denominator(values)
    solution = solve([[e**i for i in range(n + 1)] for e in range(n + 2)], scaled)
    if solution is None:
        raise InvariantError("volume polynomial failed the redundant-node check")
    numerators, den = solution
    return numerators, common * den


def _cycle_volume(cycle, eps) -> Fraction:
    """V(K + eps L) for eps > 0 off K + L's boundary cycle.

    K + eps L has the normal fan of K + L, and a pair point x + y on a face
    F_u(K + L) has x in F_u(K) and y in F_u(L), so moving every pair point
    to x + eps y carries the boundary simplices of K + L onto a boundary
    cycle of K + eps L.  Its volume is the sum of the signed cones from the
    origin, (-1)^(n+1) det(X_i + eps Y_i) / prod(w_i) / n! over the
    simplices' ``_pair_points`` rows (X_i + eps Y_i, w_i), summed as integer
    pairs by ``tree_sum``, with n! folded into the pair's one Fraction.
    """
    rows, simplices = cycle
    n = len(rows[0][0])
    moved = [row[:n] for row in _pair_points(rows, 1, eps)]
    num, den = tree_sum(
        (mat_det([moved[i] for i in simplex]), prod(rows[i][2] for i in simplex))
        for simplex in simplices
    )
    return Fraction(num if n % 2 else -num, den * factorial(n))


def _interpolated_polynomial(first: Polytope, second: Polytope) -> VolumePolynomial:
    """V_n(K + eps L) interpolated through the record's node volumes at
    eps = 0..n+1, on every call, in integers.

    The nodes come from the pair's record in ``_minkowski_sum``, so K + L
    is hulled once per recent ordered pair.  The redundant node tests the
    cycle against V(K) from K's own hull, and c_n = V(L), checked by
    cross-multiplication like c_0 = V(K), tests it against L's.
    """
    _check_pair_dim(first, second)
    n = first.dim
    numerators, den = minkowski_interpolate(_minkowski_sum(first, second)[2])
    for c, v in ((numerators[0], first.volume), (numerators[n], second.volume)):
        if c * v.denominator != v.numerator * den:
            raise InvariantError("volume polynomial end coefficients differ from the volumes")
    return VolumePolynomial(numerators, den)


@functools.lru_cache(maxsize=8)
def volume_polynomial(first: Polytope, second: Polytope) -> VolumePolynomial:
    """V_n(K + eps L), interpolated and checked once per recent ordered pair.

    It is ``_interpolated_polynomial`` kept in an ``lru_cache`` of 8 pairs,
    the record cache's size.  The key is the two bodies' rows, so an equal
    body (a ``load_body`` copy) reads the kept polynomial, and a body whose
    ``volume`` field disagrees with its rows is caught only on a miss.  A
    failed check raises on every call, as the cache keeps no exception.
    """
    return _interpolated_polynomial(first, second)


def mixed_volume_interp(first: Polytope, second: Polytope) -> Fraction:
    """V_{n-1,1}(K, L) as (1/n) d/deps V_n(K + eps L) at eps = 0, read off
    the polynomial ``_interpolated_polynomial`` interpolates and checks on
    every call, not the one ``volume_polynomial`` keeps."""
    poly = _interpolated_polynomial(first, second)
    return Fraction(poly.numerators[1], poly.denominator * first.dim)


def mixed_volume_base_height(first: Polytope, second: Polytope) -> Fraction:
    """V_{n-1,1}(P, K) = (1/n) sum h_K(u) V_{n-1}(P^u) over facet normals of P.

    With the facet's weight V_{n-1}(facet) / |normal| and h_K evaluated on
    the unnormalized normal, each summand h_K(normal) weight equals the
    unit-normal summand exactly and stays rational.  Each facet's
    primitive integer normal goes straight to the integer core of
    ``support``, which reads h_K = X.W / d off K's integer rows with no
    re-lift and no direction check, and its weight is read as the facet's
    integer pair, so each summand is the product of two integer pairs, with
    no |normal|^2 in it; the summands, whose denominators are unrelated (a
    400-gon has 400), are added by ``tree_sum``, and 1/n is folded into
    the one Fraction built from the sum.
    """
    _check_pair_dim(first, second)
    _check_full_dimensional(first)
    terms = []
    for f in first.facets:
        h, d = _integer_support(second.lifted, f.normal)
        w_n, w_d = f.weight_pair
        terms.append((h * w_n, d * w_d))
    num, den = tree_sum(terms)
    return Fraction(num, den * first.dim)


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
    in which all projection-volume identities are stated.  w is checked
    by ``_check_direction``."""
    w = _check_direction(body, w)
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
    _check_full_dimensional(body)
    return SurfaceArea(tuple((f.pseudo_volume, f.normal_sq()) for f in body.facets))
