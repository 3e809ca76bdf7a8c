"""Exact rational polytopes: hulls, support functions, projections.

Conventions used throughout the package:

* scalars are ``fractions.Fraction``, vectors are tuples of Fractions;
* a ``Polytope`` stores its extreme points only, lexicographically sorted,
  so equal bodies have identical representations;
* facet normals are outward primitive integer vectors, stored as ints
  (never normalized: unit normals of rational facets are irrational in
  general);
* a facet's weight is its (n-1)-volume divided by the euclidean length of
  the stored normal, and ``Facet.pseudo_volume`` is its (n-1)-volume times
  that length, the weight times |normal|^2.  Both are always rational,
  which is what keeps every downstream volume formula exact.  A facet
  stores its weight and its offset as the integer pairs (num, den) the
  hull forms them from, unreduced, and builds each ``Fraction`` on first
  read, ``pseudo_volume`` from the weight pair;
* hull predicates run on lifted rows: a point p becomes the integer row
  (X_1, ..., X_n, d) with X / d == p and d the lcm of p's own
  denominators.  Determinants of such rows are the affine ones times the
  positive product of the d's, so their signs decide orientation exactly;
* the hull kernel, ``_hull_with_boundary``, takes such rows and nothing
  else.  Library code forms the rows of every hull it builds from rows:
  projections, support sets, flat charts, homothety and reflection images,
  ``volumes``' pair points and combinations, and the Steiner chord ends.
  ``convex_hull`` is the way in for points from outside (body files,
  constructor arguments, probes), which it checks and lifts once, and
  ``Polytope.vertices`` the way out, for reports and files.  The kernel
  sorts and deduplicates the rows on integer keys, inserts them into the
  hull in a seeded shuffled order, and sums volumes as integer pairs.  Its
  3D and 4D insertion loop is straight-line code: each visibility test is
  one sum of products on the unpacked row and cross normal, and a 3D
  simplex's ridges are keyed as ordered pairs;
* a full-dimensional hull is built as boundary simplices whose vertex
  order is outward (n >= 2); ``_hull_with_boundary`` returns them with the
  Polytope, so ``volumes`` can read K + eps L's volume off K + L's hull.
  The orientation is built in, not tested afterwards: a 2D hull's facets
  are the edges of its counterclockwise monotone chain (Andrew's, with the
  rows split first by the line through the first and last of them, and
  every turn test written out on three integer rows), each normal,
  offset and length read off the edge's two rows, and in 3D and 4D each
  new simplex inherits the order of the visible simplex it replaces; only
  the first simplex's facets are oriented against an interior point;
* a Polytope is the lifted rows of its canonical vertices, ``lifted``;
  its ``Fraction`` ``vertices`` are built on first read.  A facet stores
  no vertex list;
* every homothety a K + x (a > 0), ``translate`` and ``scale`` included,
  is the one map ``_homothety``, on rows from ``_image_rows``;
* ``support``, ``support_set``, ``project``, ``vertex_centroid``,
  ``polygon_cycle`` and the facet offsets run on the rows: a direction
  w = W / e is checked and lifted once, X.W / d is compared across
  vertices by integer cross-multiplication, and one Fraction is built per
  result.  That integer core, ``_integer_support``, is one pass over the
  rows that keeps only the best pair (X.W, d), and ``support_set`` keeps
  the rows with X.W best_d == best d, the same comparison.  A caller that
  already holds an integer direction, such as a primitive facet normal,
  passes it straight to that core;
* projections return coordinates obtained by pairing points with the
  subspace basis vectors (x maps to (x.b1, ..., x.bd)), formed as rows:
  the basis is lifted once to rows (B_i, e_i), and a vertex row (X, d)
  maps to the primitive row of (X.B_i (E / e_i), d E) for E the lcm of
  the e_i, which goes straight to the hull kernel.  Under this chart a
  direction for the projected body is a coefficient vector a, standing
  for the ambient vector w = sum a_i b_i, and supports match exactly:
  support(project(K, xi), a) == support(K, w).  True d-volumes obey
  vol_true**2 == vol_chart**2 / det(Gram(basis)).

All values are immutable after construction and all operations are pure
functions, so everything here may be used concurrently without locking.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm, prod
from operator import mul

from .errors import (
    AmbientDimError,
    DegenerateBasisError,
    DimensionError,
    DimensionMismatchError,
    LowerDimensionalError,
    ZeroDirectionError,
)
from .linalg import (
    as_scalar,
    as_vec,
    cross_normal,
    dot,
    gram_matrix,
    independent_rows,
    is_zero_vec,
    mat_det,
    mat_rank,
    primitive_int_vector,
    tree_sum,
    vneg,
)

MIN_AMBIENT = 2
MAX_AMBIENT = 4


@dataclass(frozen=True, eq=False)
class Facet:
    """One facet of a full-dimensional polytope.

    normal:      outward primitive integer normal, a tuple of ints
    offset_pair: integers (num, den), den > 0, with num / den = h_P(normal);
                 every vertex v satisfies v.normal <= offset
    weight_pair: integers (num, den), den > 0, with num / den the
                 (n-1)-volume of the facet divided by |normal|

    The pairs are kept as the hull and ``_homothety`` form them, unreduced,
    so the hot readers (``mixed_volume_base_height``, the Steiner chords and
    containment) take them as they are.  ``offset`` is the offset pair's
    ``Fraction`` and ``pseudo_volume``, the (n-1)-volume times |normal|, is
    the weight times |normal|^2; both are built on first read, and equality
    compares the values, not the pairs.

    The hull builds each facet's orientation and normal with the facet: in
    2D off the counterclockwise chain, in 3D and 4D off simplices that are
    outward by construction.  Nothing is flipped or checked afterwards.  The
    vertices on a facet are the v with v.normal == offset; none are stored.
    """

    normal: tuple
    offset_pair: tuple
    weight_pair: tuple

    @cached_property
    def offset(self) -> Fraction:
        return Fraction(*self.offset_pair)

    @cached_property
    def pseudo_volume(self) -> Fraction:
        return Fraction(*self.weight_pair) * self.normal_sq()

    def __eq__(self, other):
        if not isinstance(other, Facet):
            return NotImplemented
        (a, b), (c, d) = self.offset_pair, other.offset_pair
        (e, f), (g, h) = self.weight_pair, other.weight_pair
        return self.normal == other.normal and a * d == c * b and e * h == g * f

    def __hash__(self):
        return hash((self.normal, self.offset, self.pseudo_volume))

    def normal_sq(self) -> Fraction:
        return Fraction(sum(c * c for c in self.normal))


@dataclass(frozen=True)
class Polytope:
    """Compact convex polytope given by its canonical extreme points.

    ``lifted`` holds the integer row (X, d) of each extreme point, as
    ``_lift`` makes it, in sorted point order.  A point has exactly one such
    row, so equality and the hash, over (dim, lifted) only, are set
    equality.  ``affine_dim < dim`` flags a lower-dimensional body (a legal
    result of projections and Minkowski combinations, never of the public
    hull constructor); such bodies carry no facets and have volume 0.
    """

    dim: int
    lifted: tuple
    facets: tuple = field(compare=False, repr=False)
    affine_dim: int = field(compare=False)
    volume: Fraction = field(compare=False)

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim

    @cached_property
    def vertices(self) -> tuple:
        """The extreme points X / d as tuples of Fractions, built on first read."""
        return tuple(_point(row) for row in self.lifted)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace spanned by rational basis vectors (1 <= dim <= n-1)."""

    basis: tuple

    def __post_init__(self):
        basis = tuple(as_vec(b) for b in self.basis)
        object.__setattr__(self, "basis", basis)
        if not basis:
            raise DegenerateBasisError("empty basis")
        n = len(basis[0])
        if any(len(b) != n for b in basis):
            raise DimensionMismatchError("basis vectors of unequal length")
        if not 1 <= len(basis) <= n - 1:
            raise DegenerateBasisError(
                f"subspace dimension must be in 1..{n - 1}, got {len(basis)}"
            )
        if mat_rank(basis) != len(basis):
            raise DegenerateBasisError("basis vectors are linearly dependent")

    @property
    def ambient(self) -> int:
        return len(self.basis[0])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def gram(self):
        return gram_matrix(self.basis)

    def gram_det(self) -> Fraction:
        return as_scalar(mat_det([list(r) for r in self.gram()]))


# ---------------------------------------------------------------------------
# hull construction
# ---------------------------------------------------------------------------


def _lift(points):
    """Integer row (X_1, ..., X_n, d) of each point, with X / d == p and d the
    lcm of that point's own denominators."""
    rows = []
    for p in points:
        d = lcm(*(x.denominator for x in p))
        rows.append(tuple(x.numerator * (d // x.denominator) for x in p) + (d,))
    return rows


def _chain_2d(rows):
    """Andrew's monotone chain on the rows of sorted, deduplicated 2D points;
    returns the CCW index cycle.

    As Andrew published it (IPL 1979), the rows are first split by the line
    from rows[0] to rows[-1], one orientation test each: its coefficients
    (a, b, c) give a row (x, y, d) the side a x + b y + c d, the 3x3
    determinant of the two end rows and this one.  The lower chain runs over
    the rows on or below the line, the upper over those on or above it, and
    rows on the line, the two ends among them, go to both.  A row strictly
    above the line is above every lower-hull edge, so it is never kept by
    the lower chain, and dropping it early leaves each chain as it was
    (Akl and Toussaint's throw-away step, IPL 1978).  Each turn test is the
    determinant of the three rows written out, positive exactly for a left
    turn as the row weights are positive; no list is built per test.
    Strict turns only, so collinear midpoints are dropped and the cycle
    contains exactly the extreme points.  On warm seed-3 ``round-bodies``
    passes (disc 4m-gons for m = 90..110, and balls) the split and the
    written-out test alone made a pass 6.3% faster than the chain over
    all rows with a ``mat_det`` per test (median of 30 alternating
    in-process rounds, ahead in 24); under cProfile the chain's time in a
    pass fell from 0.079 s to 0.022 s.
    """
    (x0, y0, d0), (x1, y1, d1) = rows[0], rows[-1]
    a, b, c = y0 * d1 - d0 * y1, d0 * x1 - x0 * d1, x0 * y1 - y0 * x1
    sides = [a * x + b * y + c * d for x, y, d in rows]

    def half(indices):
        out = []
        for i in indices:
            x3, y3, d3 = rows[i]
            while len(out) > 1:
                (x1, y1, d1), (x2, y2, d2) = rows[out[-2]], rows[out[-1]]
                if x3 * (y1 * d2 - d1 * y2) + y3 * (d1 * x2 - x1 * d2) + d3 * (x1 * y2 - y1 * x2) > 0:
                    break
                out.pop()
            out.append(i)
        return out

    lower = half([i for i, side in enumerate(sides) if side <= 0])
    return lower[:-1] + half([i for i in reversed(range(len(rows))) if sides[i] >= 0])[:-1]


def _oriented(rows, interior, vert_ids):
    """(vert_ids, h) for the simplex on these rows, outward in its vertex
    order: h = cross_normal of the rows in the returned order, and
    dot(h, row) > 0 exactly beyond its hyperplane.  Swapping two rows
    negates the cross normal."""
    h = cross_normal([rows[i] for i in vert_ids])
    if dot(h, interior) > 0:
        h = vneg(h)
        vert_ids = vert_ids[1::-1] + vert_ids[2:]
    return vert_ids, h


def _incremental_hull(rows, n, base, interior):
    """Simplicial boundary of a full-dimensional set, as oriented simplices.

    ``rows`` are lifted points affinely spanning R^n, and ``base`` indexes
    n+1 of them that are affinely independent.  The other points are
    inserted in a shuffled order: in sorted order every point is extreme
    when it arrives, the worst case for an incremental hull (Clarkson and
    Shor 1989), and most of the simplices built are thrown away again.  The
    shuffle comes from a local generator seeded by the number of rows, so
    the result depends on the input alone and the global ``random`` state
    is left as it was.  The facets and the canonical body do not depend on
    the order; only the triangulation of each facet may.

    Only the base simplex's facets are oriented against ``interior``.  A new
    simplex on a horizon ridge is the visible simplex's own vertex tuple
    with the dropped vertex r_k replaced by the new point p, and it is
    outward by construction.  dot(cross_normal(r_0, ..., r_(n-1)), x) is,
    up to a sign fixed by n, det(r_0, ..., r_(n-1), x), which alternates in
    all n+1 rows.  p is beyond the visible simplex, so swapping p and r_k
    gives the new simplex's cross normal h a strictly negative dot(h, r_k):
    r_k lies strictly inside the new simplex's hyperplane.  On a line
    (n = 1, a projection's chart) a simplex is one row, whose order cannot
    carry a flip; there the base starts at the least of the sorted rows, so
    every later point extends the other end, whose simplex is unflipped.

    In 3D and 4D the loop is straight-line code.  Each inserted row is
    unpacked once, and its visibility test against a simplex is one sum of
    products with the simplex's unpacked cross normal; only the line keeps
    ``dot``.  A 3D simplex (a, b, c) keys its ridges as the ordered pairs
    of {b, c}, {a, c} and {a, b} and offers the new simplices (p, b, c),
    (a, p, c) and (a, b, p): the generic loop's keys and simplices, in its
    order, so the horizon and the simplices come out the same.  4D keeps
    the generic loop.  A ``sweep-3d`` pair record's hull inserts about 26
    of its 30 rows, each tested against every current simplex, and keeps
    about 32 simplices.
    """
    facets = {}
    next_id = itertools.count()
    for subset in itertools.combinations(base, n):
        facets[next(next_id)] = _oriented(rows, interior, subset)

    in_base = set(base)
    order = [i for i in range(len(rows)) if i not in in_base]
    random.Random(len(rows)).shuffle(order)
    for pi in order:
        if n == 3:
            x, y, z, w = rows[pi]
            visible = [
                fid for fid, (_, (a, b, c, e)) in facets.items() if a * x + b * y + c * z + e * w > 0
            ]
        elif n == 4:
            x, y, z, w, v = rows[pi]
            visible = [
                fid
                for fid, (_, (a, b, c, e, f)) in facets.items()
                if a * x + b * y + c * z + e * w + f * v > 0
            ]
        else:
            visible = [fid for fid, (_, h) in facets.items() if dot(h, rows[pi]) > 0]
        if not visible:
            continue
        # A ridge of two visible simplices is met twice and dropped again;
        # the horizon's ridges are met once, each with its new simplex.
        horizon = {}
        for fid in visible:
            verts = facets.pop(fid)[0]
            if n == 3:
                a, b, c = verts
                ridge = (b, c) if b < c else (c, b)
                if horizon.pop(ridge, None) is None:
                    horizon[ridge] = pi, b, c
                ridge = (a, c) if a < c else (c, a)
                if horizon.pop(ridge, None) is None:
                    horizon[ridge] = a, pi, c
                ridge = (a, b) if a < b else (b, a)
                if horizon.pop(ridge, None) is None:
                    horizon[ridge] = a, b, pi
                continue
            for k in range(n):
                ridge = tuple(sorted(verts[:k] + verts[k + 1 :]))
                if horizon.pop(ridge, None) is None:
                    horizon[ridge] = verts[:k] + (pi,) + verts[k + 1 :]
        for verts in horizon.values():
            facets[next(next_id)] = verts, cross_normal([rows[i] for i in verts])
    return list(facets.values())


def _spans(vectors, n):
    """True iff the integer vectors span R^n.  The first n mostly settle it by
    one determinant; otherwise each is reduced once, fraction-free, against
    those kept so far, so the cost is linear in their number: a point inside
    an edge of a 4D hull lies on every facet around that edge.
    """
    if len(vectors) >= n and mat_det(vectors[:n]) != 0:
        return True
    return len(independent_rows(vectors)) == n


def _point(row) -> tuple:
    """The rational point X / d of the lifted row (X, d)."""
    *xs, d = row
    return tuple(Fraction(x, d) for x in xs)


def _build_polygon(rows):
    """``_build_full_dimensional`` for n == 2, read straight off the chain.

    The chain is the counterclockwise cycle of exactly the extreme points,
    so each of its edges a -> b is a facet, with the hull on its left.  For
    rows (x_a, y_a, d_a) and (x_b, y_b, d_b) the edge vector scaled by
    d_a d_b is the integer e = (x_b d_a - x_a d_b, y_b d_a - y_a d_b); with
    g = gcd(e) the outward primitive normal is u = (e_y, -e_x) / g, the
    edge's length is g |u| / (d_a d_b), so its weight is g / (d_a d_b),
    and the cone over it from the origin has signed area
    (x_a y_b - x_b y_a) / (2 d_a d_b).  The boundary simplices are the
    edges (b, a), whose cross normal is outward.
    """
    cycle = _chain_2d(rows)
    facets, cones, edges = [], [], []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        xa, ya, da = rows[a]
        xb, yb, db = rows[b]
        ex, ey = xb * da - xa * db, yb * da - ya * db
        g = gcd(ex, ey)
        u = (ey // g, -ex // g)
        facets.append(Facet(u, (u[0] * xa + u[1] * ya, da), (g, da * db)))
        cones.append((xa * yb - xb * ya, da * db))
        edges.append((b, a))
    facets.sort(key=lambda f: f.normal)
    num, den = tree_sum(cones)
    body = Polytope(
        dim=2,
        lifted=tuple(rows[i] for i in sorted(cycle)),
        facets=tuple(facets),
        affine_dim=2,
        volume=Fraction(num, 2 * den),
    )
    return body, tuple(edges)


def _build_full_dimensional(rows, n, base):
    """Canonical Polytope of the affinely spanning points of sorted, distinct
    lifted ``rows``, and its boundary simplices as outward-ordered index
    tuples into the rows; ``base`` indexes n+1 affinely independent ones.
    Coplanar simplices merge into a facet keyed by their primitive normal;
    the one gcd that makes a simplex's normal primitive is also the
    numerator of its share of the facet's weight."""
    if n == 2:
        return _build_polygon(rows)
    # A sum of rows stands for the average of its points weighted by their
    # d's, so this one lies inside the simplex on ``base``, inside the hull.
    interior = [sum(col) for col in zip(*(rows[i] for i in base))]
    simplices = _incremental_hull(rows, n, base, interior)

    # Merge coplanar simplices into maximal facets, keyed by the primitive
    # outward normal (unique per facet of a convex body).  For a simplex
    # whose rows' d's multiply to s, c = h[:n] / s is the outward cross
    # product of its edges and c.v = -h[n] / s at each of its vertices v.
    # With g = gcd(h[:n]) > 0 and h[:n] = g prim, lam = g / s ties the stored
    # primitive normal back to true areas, (n-1)-volume of the simplex =
    # lam * |prim| / (n-1)!, which makes the simplex's share of the facet's
    # weight, (n-1)-volume / |prim|, lam / (n-1)!.  The cone over the
    # simplex from the origin has signed volume -h[n] / (s * n!).  Both sums
    # are integer pairs from ``tree_sum``; the facet keeps its weight pair,
    # and the volume is the one Fraction built here.
    merged = {}
    cones = []
    for verts, h in simplices:
        s = prod(rows[i][n] for i in verts)
        cones.append((-h[n], s))
        g = gcd(*h[:n])
        prim = tuple(x // g for x in h[:n])
        pieces, members = merged.setdefault(prim, ([], set()))
        pieces.append((g, s))
        members.update(verts)
    num, den = tree_sum(cones)
    volume = Fraction(num, den * factorial(n))

    # Every vertex of a facet is a vertex of its triangulation, so a member
    # is extreme iff the normals of the facets it is a member of span R^n.
    # Every member lies on its facet's hyperplane, so any one gives the offset.
    norm_keys = sorted(merged)
    member_of = {}
    for prim in norm_keys:
        for i in merged[prim][1]:
            member_of.setdefault(i, []).append(prim)
    extreme = [i for i in sorted(member_of) if _spans(member_of[i], n)]

    facets = []
    for prim in norm_keys:
        pieces, members = merged[prim]
        row = rows[next(iter(members))]
        lam_n, lam_d = tree_sum(pieces)
        weight = (lam_n, lam_d * factorial(n - 1))
        facets.append(Facet(prim, (sum(map(mul, prim, row)), row[n]), weight))
    body = Polytope(
        dim=n,
        lifted=tuple(rows[i] for i in extreme),
        facets=tuple(facets),
        affine_dim=n,
        volume=volume,
    )
    return body, tuple(verts for verts, _ in simplices)


def _build_degenerate(rows, n, rank, basis_ids):
    """Flat hull of the points of sorted, distinct lifted ``rows``, of affine
    rank ``rank`` < n.

    On a line the lexicographic order runs along the line, so a segment's
    ends are the first and last rows.  From rank 2 up, the coordinates at
    the pivot columns of the affine hull's direction vectors chart that
    hull one to one (the reduced directions are triangular there); the
    extreme points chart onto the chart hull's.  A direction X / d - O / e
    is taken as the integer row X e - O d, a positive multiple with the
    same pivots, and a point's chart row is the primitive row of (X at
    those columns, d).
    """
    kept = [rows[0], rows[-1]] if rank else rows  # rank 0: a single point
    if rank > 1:
        *origin, e = rows[basis_ids[0]]
        directions = [
            [x * e - o * rows[i][n] for x, o in zip(rows[i], origin)] for i in basis_ids[1:]
        ]
        columns = [j for _, j, _ in independent_rows(directions)] + [n]
        chart = [primitive_int_vector([row[j] for j in columns]) for row in rows]
        extreme = set(_hull_with_boundary(chart, rank)[0].lifted)
        kept = [row for row, c in zip(rows, chart) if c in extreme]
    return Polytope(
        dim=n,
        lifted=tuple(kept),
        facets=(),
        affine_dim=rank,
        volume=Fraction(0),
    )


def _check_ambient(n):
    """Raise ``AmbientDimError`` unless MIN_AMBIENT <= n <= MAX_AMBIENT."""
    if not MIN_AMBIENT <= n <= MAX_AMBIENT:
        raise AmbientDimError(f"ambient dimension {n} outside {MIN_AMBIENT}..{MAX_AMBIENT}")


def _check_pair_dim(first, second):
    """Raise ``DimensionMismatchError`` unless the two bodies share their
    ambient dimension: the one check of every routine that takes a pair."""
    if first.dim != second.dim:
        raise DimensionMismatchError("bodies live in different dimensions")


def _check_full_dimensional(*bodies):
    """Raise ``LowerDimensionalError`` unless every body is full-dimensional:
    the one check of every routine that needs volume-bearing bodies."""
    if not all(body.is_full_dimensional for body in bodies):
        raise LowerDimensionalError("bodies must be full-dimensional")


def _hull_with_boundary(rows, n):
    """``convex_hull``'s work on lifted rows, returning what it builds on the
    way: the canonical Polytope, the distinct rows in sorted order, and the
    hull's boundary simplices as index tuples into those rows, none for a
    flat hull.  For n >= 2 each simplex's vertex order is outward: the cross
    normal of its rows in that order points out of the hull.

    ``rows`` are the rows (X, d) of points in R^n as ``_lift`` makes them:
    d is the least positive integer with X / d == the point, so equal
    points have equal rows.  They are sorted and deduplicated on integer
    keys, each coordinate x as floor(x 2^s) for 2^s > D^2, D the largest d:
    two coordinates that differ, X / d != Y / e, differ by at least
    1 / (d e) > 2^-s, so their keys differ in the same direction.  The keys
    sort as the points do and are equal exactly when the points are.  Keys
    over the lcm of all the d's would do the same, but on a rational circle
    that lcm has a factor per point, and the keys grow with the point count.
    """
    shift = 2 * max(row[n] for row in rows).bit_length()
    distinct = {tuple((x << shift) // row[n] for x in row[:n]): row for row in rows}
    rows = [distinct[key] for key in sorted(distinct)]
    # Points are affinely independent exactly when their rows are linearly so.
    basis_ids = [i for i, _, _ in independent_rows(rows)]
    rank = len(basis_ids) - 1
    if rank < n:
        return _build_degenerate(rows, n, rank, basis_ids), rows, ()
    body, simplices = _build_full_dimensional(rows, n, basis_ids)
    return body, rows, simplices


def convex_hull(points, *, allow_degenerate: bool = False):
    """Exact convex hull of rational points, as a canonical Polytope.

    The points are checked and lifted once; the hull runs on their integer
    rows, and the body keeps them.  A flat hull raises DimensionError once
    built, unless ``allow_degenerate`` is set (projections and Minkowski
    combinations of segments legitimately produce flat bodies).
    """
    pts = [as_vec(p) for p in points]
    if not pts:
        raise DimensionError("no points given")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionMismatchError("points of unequal length")
    _check_ambient(n)
    body = _hull_with_boundary(_lift(pts), n)[0]
    if body.affine_dim < n and not allow_degenerate:
        raise DimensionError(f"points span an affine subspace of dimension {body.affine_dim} < {n}")
    return body


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def _check_direction(body, w):
    """w as a Fraction vector, checked against ``body``: a length other
    than the body's dimension raises ``DimensionMismatchError``, and then a
    zero direction ``ZeroDirectionError``.  Every routine that takes a body
    and a direction checks it here; the routines' own checks (dimension 2
    or 3 for Steiner, full-dimensional bodies) stay with them."""
    w = as_vec(w)
    if len(w) != body.dim:
        raise DimensionMismatchError("direction length differs from ambient dimension")
    if is_zero_vec(w):
        raise ZeroDirectionError("direction must be nonzero")
    return w


def _integer_support(rows, direction):
    """The pair (X.W, d) of largest quotient X.W / d over lifted vertex rows
    (X, d), for an integer direction W, so h = X.W / d: one pass, compared
    by integer cross-multiplication, with no per-row list.  The direction
    is used as given, unchecked.  A warm seed-3 ``round-bodies`` pass makes
    12,174 scans, nearly all of the unit square's 4 rows; the one pass
    alone made it 2.1% faster than a list of every row's pair and a scan
    of its tail (median of 30 alternating in-process rounds, ahead in 19,
    within the rounds' spread)."""
    # (-1, 0) stands below every quotient: x * 0 > -1 * d for each d > 0.
    best, best_d = -1, 0
    for row in rows:
        x = sum(map(mul, row, direction))
        if x * best_d > best * row[-1]:
            best, best_d = x, row[-1]
    return best, best_d


def support(body: Polytope, w) -> Fraction:
    """Support value h_K(w) = max over vertices of v.w, exact: w is checked
    and lifted once to W / e, the vertex values X.W / d are compared as
    integer quotients on ``body.lifted`` and the largest becomes the one
    Fraction returned."""
    *lifted_w, e = _lift((_check_direction(body, w),))[0]
    best, best_d = _integer_support(body.lifted, lifted_w)
    return Fraction(best, best_d * e)


def support_set(body: Polytope, w) -> Polytope:
    """Face of K attaining h_K(w); may be lower-dimensional.  Its vertices
    are the rows with X.W best_d == best d for ``_integer_support``'s pair
    (best, best_d): the same integer comparison as ``support``'s, so ties
    are exact, and their rows are hulled.  X.W is formed a second time
    here, for the rows only: the one-pass core keeps no per-row list for
    the hot callers, ``support`` and base-height, that read the best pair
    alone."""
    *lifted_w, _ = _lift((_check_direction(body, w),))[0]
    best, best_d = _integer_support(body.lifted, lifted_w)
    face = [row for row in body.lifted if sum(map(mul, row, lifted_w)) * best_d == best * row[-1]]
    return _hull_with_boundary(face, body.dim)[0]


def project(body: Polytope, xi: Subspace) -> Polytope:
    """Orthogonal projection onto xi, in basis-pairing coordinates.

    The image point of x is (x.b1, ..., x.bd).  See the module docstring for
    the support and volume conventions attached to this chart.  It is formed
    on rows: with each b_i lifted to B_i / e_i and E the lcm of the e_i, the
    vertex row (X, d) maps to the primitive row of (X.B_i (E / e_i), d E),
    which is the image point's own row, and those rows are hulled.
    """
    if xi.ambient != body.dim:
        raise DimensionMismatchError("subspace ambient dimension mismatch")
    lifted_basis = _lift(xi.basis)
    common = lcm(*(row[-1] for row in lifted_basis))
    scaled = [[c * (common // row[-1]) for c in row[:-1]] for row in lifted_basis]
    # map() stops at the shorter argument, so X.B skips the row's weight d.
    rows = [
        primitive_int_vector((*(sum(map(mul, row, b)) for b in scaled), row[-1] * common))
        for row in body.lifted
    ]
    return _hull_with_boundary(rows, xi.dim)[0]


def projected_volume_sq(body: Polytope, xi: Subspace) -> Fraction:
    """Square of the true d-volume of the projection (rational by design)."""
    shadow = project(body, xi)
    if shadow.affine_dim < xi.dim:
        return Fraction(0)
    return shadow.volume**2 / xi.gram_det()


def bodies_equal(a: Polytope, b: Polytope) -> bool:
    """Exact set equality, via identical canonical representations."""
    return a.dim == b.dim and a.lifted == b.lifted


def _image_rows(rows, a, x) -> tuple:
    """Rows of the points a v + x for the lifted rows (X, d) of points v,
    with a = p / q > 0 and x = W / e: each maps to the primitive row of
    (X p e + W q d, d q e), the image point's own row.  The map keeps the
    points' order, so sorted rows stay sorted."""
    p, q = a.numerator, a.denominator
    *shift, e = _lift((x,))[0]
    pe = p * e
    return tuple(
        primitive_int_vector((*(c * pe + w * q * d for c, w in zip(xs, shift)), d * q * e))
        for *xs, d in rows
    )


def _homothety(body: Polytope, a, x) -> Polytope:
    """a K + x for a > 0 in one pass: rows by ``_image_rows``, each facet
    (u, h, w) to (u, a h + u.x, a^(n-1) w), as h_(aK+x)(u) = a h_K(u) + u.x,
    and the volume times a^n.  Every homothety of a body runs through here.

    The facets map in integers: with a = p / q and x = W / e, the pairs
    h = (h_n, h_d) and w = (w_n, w_d) become
    (p h_n e + (u.W) q h_d, q h_d e) and (w_n p^(n-1), w_d q^(n-1))."""
    a, x = as_scalar(a), as_vec(x)
    if a <= 0:
        raise ValueError("scale factor must be positive")
    if len(x) != body.dim:
        raise DimensionMismatchError("translation length differs from dimension")
    n = body.dim
    p, q = a.numerator, a.denominator
    *shift, e = _lift((x,))[0]
    grow_n, grow_d = p ** (n - 1), q ** (n - 1)
    facets = []
    for f in body.facets:
        (h_n, h_d), (w_n, w_d) = f.offset_pair, f.weight_pair
        offset = (p * h_n * e + sum(map(mul, f.normal, shift)) * q * h_d, q * h_d * e)
        facets.append(Facet(f.normal, offset, (w_n * grow_n, w_d * grow_d)))
    return Polytope(
        dim=n,
        lifted=_image_rows(body.lifted, a, x),
        facets=tuple(facets),
        affine_dim=body.affine_dim,
        volume=body.volume * a**n,
    )


def translate(body: Polytope, x) -> Polytope:
    """K + x, by ``_homothety``."""
    return _homothety(body, 1, x)


def scale(body: Polytope, a) -> Polytope:
    """a K for a > 0, by ``_homothety``."""
    return _homothety(body, a, (0,) * body.dim)


def reflect_through_hyperplane(body: Polytope, w) -> Polytope:
    """Mirror image across the hyperplane orthogonal to w, formed on rows:
    with w lifted to W / e, the mirror v - 2 (v.w / w.w) w of the vertex row
    (X, d) is the primitive row of (X (W.W) - 2 (X.W) W, d (W.W)), as e
    cancels, and those rows are hulled."""
    *lifted_w, _ = _lift((_check_direction(body, w),))[0]
    wsq = dot(lifted_w, lifted_w)
    rows = []
    for row in body.lifted:
        twice = 2 * sum(map(mul, row, lifted_w))
        mirror = (x * wsq - twice * c for x, c in zip(row, lifted_w))
        rows.append(primitive_int_vector((*mirror, row[-1] * wsq)))
    return _hull_with_boundary(rows, body.dim)[0]


def vertex_centroid(body: Polytope):
    """Average of the extreme points, summed on the rows: with D the lcm of
    the rows' d's, coordinate j is sum X_j (D / d) / (m D) over the m rows,
    one Fraction per coordinate."""
    rows = body.lifted
    common = lcm(*(row[-1] for row in rows))
    weights = [common // row[-1] for row in rows]
    columns = list(zip(*rows))[: body.dim]
    return tuple(Fraction(sum(map(mul, col, weights)), len(rows) * common) for col in columns)


def hyperplane_subspace(w) -> Subspace:
    """Deterministic rational basis of the hyperplane orthogonal to w."""
    w = as_vec(w)
    if is_zero_vec(w):
        raise ZeroDirectionError("direction must be nonzero")
    j = next(i for i, x in enumerate(w) if x != 0)
    basis = []
    for i in range(len(w)):
        if i == j:
            continue
        e = [Fraction(0)] * len(w)
        e[i] = Fraction(1)
        e[j] = -w[i] / w[j]
        basis.append(tuple(e))
    return Subspace(tuple(basis))


def polygon_cycle(body: Polytope):
    """Vertices of a 2D body in counterclockwise cyclic order."""
    if body.dim != 2:
        raise DimensionError("polygon cycle requires ambient dimension 2")
    if len(body.vertices) <= 2:
        return list(body.vertices)
    cyc = _chain_2d(body.lifted)
    return [body.vertices[i] for i in cyc]

