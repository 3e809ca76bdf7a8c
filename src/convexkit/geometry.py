"""Exact rational polytopes: hulls, support functions, projections.

Conventions used throughout the package:

* scalars are ``fractions.Fraction``, vectors are tuples of Fractions;
* a ``Polytope`` stores its extreme points only, lexicographically sorted,
  so equal bodies have identical representations;
* facet normals are outward primitive integer vectors (never normalized:
  unit normals of rational facets are irrational in general);
* ``Facet.pseudo_volume`` is the facet's (n-1)-volume multiplied by the
  euclidean length of the stored normal.  This product is always rational,
  which is what keeps every downstream volume formula exact;
* projections return coordinates obtained by pairing points with the
  subspace basis vectors (x maps to (x.b1, ..., x.bd)).  Under this chart
  a direction for the projected body is a coefficient vector a, standing
  for the ambient vector w = sum a_i b_i, and supports match exactly:
  support(project(K, xi), a) == support(K, w).  True d-volumes obey
  vol_true**2 == vol_chart**2 / det(Gram(basis)).

All values are immutable after construction and all operations are pure
functions, so everything here may be used concurrently without locking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import (
    AmbientDimError,
    DegenerateBasisError,
    DimensionError,
    DimensionMismatchError,
    ZeroDirectionError,
)
from .linalg import (
    as_scalar,
    as_vec,
    cross_normal,
    dot,
    gram_matrix,
    is_zero_vec,
    lcm_denominators,
    mat_det,
    mat_rank,
    primitive_int_vector,
    solve,
    tree_sum,
    vadd,
    vneg,
    vscale,
    vsub,
)

MIN_AMBIENT = 2
MAX_AMBIENT = 4

# Above this lcm-of-denominators size, hull predicates run on Fractions
# directly instead of rescaled integers.
_INT_SCALE_BIT_LIMIT = 256


@dataclass(frozen=True)
class Facet:
    """One facet of a full-dimensional polytope.

    normal:        outward primitive integer normal (as Fractions)
    offset:        h_P(normal); every vertex v satisfies v.normal <= offset
    vertex_indices: indices (into the canonical vertex list) lying on the facet
    pseudo_volume: (n-1)-volume of the facet times |normal|, a rational
    """

    normal: tuple
    offset: Fraction
    vertex_indices: tuple
    pseudo_volume: Fraction

    def normal_sq(self) -> Fraction:
        return dot(self.normal, self.normal)


@dataclass(frozen=True)
class Polytope:
    """Compact convex polytope given by its canonical extreme-point list.

    ``affine_dim < dim`` flags a lower-dimensional body (a legal result of
    projections and Minkowski combinations, never of the public hull
    constructor); such bodies carry no facets and have volume 0.
    Equality compares the canonical data (dim, vertices) only.
    """

    dim: int
    vertices: tuple
    facets: tuple = field(compare=False, repr=False)
    affine_dim: int = field(compare=False)
    volume: Fraction = field(compare=False)

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim


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


def _affine_rank_with_basis(points):
    """Affine rank plus indices [i0, i1, ...] of an affinely independent subset."""
    base = 0
    chosen = [0]
    rows = []
    for i in range(1, len(points)):
        cand = rows + [vsub(points[i], points[base])]
        if mat_rank(cand) == len(cand):
            rows = cand
            chosen.append(i)
            if len(rows) == len(points[0]):
                break
    return len(rows), chosen


def _chain_2d(pts):
    """Monotone chain on deduplicated 2D points; returns CCW index cycle.

    Strict turns only, so collinear midpoints are dropped and the cycle
    contains exactly the extreme points.
    """
    order = sorted(range(len(pts)), key=lambda i: pts[i])

    def half(indices):
        out = []
        for i in indices:
            while len(out) > 1:
                o, a = pts[out[-2]], pts[out[-1]]
                cross = (a[0] - o[0]) * (pts[i][1] - o[1]) - (a[1] - o[1]) * (
                    pts[i][0] - o[0]
                )
                if cross <= 0:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    lower = half(order)
    upper = half(order[::-1])
    return lower[:-1] + upper[:-1]


def _edge_simplices_2d(pts, cycle):
    out = []
    for k in range(len(cycle)):
        i, j = cycle[k], cycle[(k + 1) % len(cycle)]
        d = vsub(pts[j], pts[i])
        normal = (d[1], -d[0])  # outward for a CCW cycle
        out.append(((i, j), normal, dot(normal, pts[i])))
    return out


def _incremental_hull(pts, n):
    """Simplicial outward-oriented boundary facets of a full-dimensional set.

    ``pts`` are deduplicated coordinate tuples (ints or Fractions) affinely
    spanning R^n.  Returns a list of (vertex_indices, raw_normal, offset)
    where raw_normal is the edge cross product of the simplex (so its length
    encodes the simplex (n-1)-volume).
    """
    rank, base = _affine_rank_with_basis(pts)
    assert rank == n, "caller must guarantee full affine rank"
    interior = [0] * n  # centroid of the initial simplex, times n+1
    for i in base:
        interior = [c + x for c, x in zip(interior, pts[i])]

    def oriented(vert_ids):
        vs = [pts[i] for i in vert_ids]
        normal = cross_normal([vsub(v, vs[0]) for v in vs[1:]])
        off = dot(normal, vs[0])
        side = dot(normal, interior) - (n + 1) * off
        if side > 0:
            normal, off = vneg(normal), -off
        return tuple(vert_ids), normal, off

    facets = {}
    next_id = itertools.count()
    for subset in itertools.combinations(base, n):
        facets[next(next_id)] = oriented(subset)

    in_base = set(base)
    for pi, p in enumerate(pts):
        if pi in in_base:
            continue
        visible = [fid for fid, (_, nf, off) in facets.items() if dot(nf, p) > off]
        if not visible:
            continue
        ridge_count = {}
        for fid in visible:
            verts = facets[fid][0]
            for k in range(n):
                ridge = tuple(sorted(verts[:k] + verts[k + 1 :]))
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        for fid in visible:
            del facets[fid]
        for ridge, count in ridge_count.items():
            if count == 1:
                facets[next(next_id)] = oriented(ridge + (pi,))
    return list(facets.values())


def _build_full_dimensional(points, n):
    """Canonical Polytope of affinely spanning, deduplicated Fraction points."""
    scale = lcm_denominators(points, bit_limit=_INT_SCALE_BIT_LIMIT)
    if scale == 1:
        work = [tuple(int(x) for x in p) for p in points]
    elif scale.bit_length() <= _INT_SCALE_BIT_LIMIT:
        work = [tuple(int(x * scale) for x in p) for p in points]
    else:
        work, scale = points, 1  # Fraction predicates; exact, just slower

    if n == 2:
        simplices = _edge_simplices_2d(work, _chain_2d(work))
    elif n == 1:
        lo = min(range(len(work)), key=lambda i: work[i])
        hi = max(range(len(work)), key=lambda i: work[i])
        simplices = [((hi,), (1,), work[hi][0]), ((lo,), (-1,), -work[lo][0])]
    else:
        simplices = _incremental_hull(work, n)

    vol_scaled = tree_sum(dot(normal, work[verts[0]]) for verts, normal, _ in simplices)
    volume = Fraction(vol_scaled) / (factorial(n) * Fraction(scale) ** n)

    # Merge coplanar simplices into maximal facets, keyed by the primitive
    # outward normal (unique per facet of a convex body).  The cross-product
    # normal of a simplex computed on coordinates scaled by ``scale`` equals
    # scale**(n-1) times the one on original coordinates, so the positive
    # ratio lam below ties the stored primitive normal back to true areas:
    # (n-1)-volume of the simplex = lam * |prim| / (n-1)!.
    merged = {}
    for verts, normal, _ in simplices:
        prim = primitive_int_vector(normal)
        j = next(i for i, x in enumerate(prim) if x != 0)
        lam = as_scalar(normal[j]) / (prim[j] * Fraction(scale) ** (n - 1))
        entry = merged.setdefault(prim, [Fraction(0), set()])
        entry[0] += lam
        entry[1].update(verts)

    norm_keys = sorted(merged)
    facet_offsets = {}
    for prim in norm_keys:
        some_vertex = next(iter(merged[prim][1]))
        facet_offsets[prim] = as_scalar(dot(prim, points[some_vertex]))

    if n <= 2:
        # The chain (resp. the 1D extremes) already produced exactly the
        # extreme points, each group is a single edge, and incidence is the
        # membership itself -- no quadratic point-vs-facet scan needed.
        extreme = sorted(
            {i for prim in norm_keys for i in merged[prim][1]},
            key=lambda i: points[i],
        )
        incidence = {prim: merged[prim][1] for prim in norm_keys}
    else:
        # Extreme points carry incident facet normals of full rank; only
        # simplex members can be extreme, so scan just those.
        candidates = sorted({i for prim in norm_keys for i in merged[prim][1]})
        extreme = []
        incidence = {prim: set() for prim in norm_keys}
        for i in candidates:
            p = points[i]
            inc = [
                prim for prim in norm_keys if dot(prim, p) == facet_offsets[prim]
            ]
            if mat_rank(inc) == n:
                extreme.append(i)
                for prim in inc:
                    incidence[prim].add(i)
        extreme.sort(key=lambda i: points[i])

    vertices = tuple(points[i] for i in extreme)
    canonical_index = {i: k for k, i in enumerate(extreme)}

    facets = []
    for prim in norm_keys:
        lam_sum = merged[prim][0]
        on_facet = tuple(
            sorted(canonical_index[i] for i in incidence[prim] if i in canonical_index)
        )
        pseudo = lam_sum * dot(prim, prim) / factorial(n - 1)
        facets.append(
            Facet(
                normal=tuple(Fraction(c) for c in prim),
                offset=facet_offsets[prim],
                vertex_indices=on_facet,
                pseudo_volume=pseudo,
            )
        )
    return Polytope(
        dim=n,
        vertices=vertices,
        facets=tuple(facets),
        affine_dim=n,
        volume=volume,
    )


def _build_degenerate(points, n, rank, basis_ids):
    """Lower-dimensional hull: find extreme points inside the affine hull."""
    if rank == 0:
        verts = (points[0],)
    else:
        origin = points[basis_ids[0]]
        basis = [vsub(points[i], origin) for i in basis_ids[1:]]
        coords = []
        for p in points:
            a = solve([[b[j] for b in basis] for j in range(n)], vsub(p, origin))
            assert a is not None, "point outside its own affine hull"
            coords.append(a)
        if rank == 1:
            lo = min(range(len(points)), key=lambda i: coords[i])
            hi = max(range(len(points)), key=lambda i: coords[i])
            keep = {lo, hi}
        else:
            inner = convex_hull(coords, allow_degenerate=False, _ambient_check=False)
            kept_coords = set(inner.vertices)
            keep = {i for i in range(len(points)) if coords[i] in kept_coords}
        verts = tuple(sorted(points[i] for i in keep))
    return Polytope(
        dim=n, vertices=verts, facets=(), affine_dim=rank, volume=Fraction(0)
    )


def convex_hull(points, *, allow_degenerate: bool = False, _ambient_check: bool = True):
    """Exact convex hull of rational points, as a canonical Polytope.

    Raises DimensionError when the hull is lower-dimensional, unless
    ``allow_degenerate`` is set (projections and Minkowski combinations of
    segments legitimately produce flat bodies).
    """
    pts = [as_vec(p) for p in points]
    if not pts:
        raise DimensionError("no points given")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionMismatchError("points of unequal length")
    if _ambient_check and not MIN_AMBIENT <= n <= MAX_AMBIENT:
        raise AmbientDimError(f"ambient dimension {n} outside {MIN_AMBIENT}..{MAX_AMBIENT}")
    pts = sorted(set(pts))
    rank, basis_ids = _affine_rank_with_basis(pts)
    if rank < n:
        if not allow_degenerate:
            raise DimensionError(
                f"points span an affine subspace of dimension {rank} < {n}"
            )
        return _build_degenerate(pts, n, rank, basis_ids)
    return _build_full_dimensional(pts, n)


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def _check_direction(body, w):
    w = as_vec(w)
    if len(w) != body.dim:
        raise DimensionMismatchError("direction length differs from ambient dimension")
    if is_zero_vec(w):
        raise ZeroDirectionError("direction must be nonzero")
    return w


def support(body: Polytope, w) -> Fraction:
    """Support value h_K(w) = max over vertices of v.w (exact)."""
    w = _check_direction(body, w)
    return max(dot(v, w) for v in body.vertices)


def support_set(body: Polytope, w) -> Polytope:
    """Face of K attaining h_K(w); may be lower-dimensional."""
    w = _check_direction(body, w)
    h = support(body, w)
    face = [v for v in body.vertices if dot(v, w) == h]
    return convex_hull(face, allow_degenerate=True, _ambient_check=False)


def project(body: Polytope, xi: Subspace) -> Polytope:
    """Orthogonal projection onto xi, in basis-pairing coordinates.

    The image point of x is (x.b1, ..., x.bd).  See the module docstring for
    the support and volume conventions attached to this chart.
    """
    if xi.ambient != body.dim:
        raise DimensionMismatchError("subspace ambient dimension mismatch")
    coords = [tuple(dot(v, b) for b in xi.basis) for v in body.vertices]
    return convex_hull(coords, allow_degenerate=True, _ambient_check=False)


def projected_volume_sq(body: Polytope, xi: Subspace) -> Fraction:
    """Square of the true d-volume of the projection (rational by design)."""
    shadow = project(body, xi)
    if shadow.affine_dim < xi.dim:
        return Fraction(0)
    return shadow.volume**2 / xi.gram_det()


def bodies_equal(a: Polytope, b: Polytope) -> bool:
    """Exact set equality, via identical canonical representations."""
    return a.dim == b.dim and a.vertices == b.vertices


def translate(body: Polytope, x) -> Polytope:
    x = as_vec(x)
    if len(x) != body.dim:
        raise DimensionMismatchError("translation length differs from dimension")
    facets = tuple(
        Facet(f.normal, f.offset + dot(f.normal, x), f.vertex_indices, f.pseudo_volume)
        for f in body.facets
    )
    return Polytope(
        dim=body.dim,
        vertices=tuple(vadd(v, x) for v in body.vertices),
        facets=facets,
        affine_dim=body.affine_dim,
        volume=body.volume,
    )


def scale(body: Polytope, a) -> Polytope:
    a = as_scalar(a)
    if a <= 0:
        raise ValueError("scale factor must be positive")
    n = body.dim
    facets = tuple(
        Facet(f.normal, f.offset * a, f.vertex_indices, f.pseudo_volume * a ** (n - 1))
        for f in body.facets
    )
    return Polytope(
        dim=n,
        vertices=tuple(vscale(a, v) for v in body.vertices),
        facets=facets,
        affine_dim=body.affine_dim,
        volume=body.volume * a**n,
    )


def reflect_through_hyperplane(body: Polytope, w) -> Polytope:
    """Mirror image across the hyperplane orthogonal to w."""
    w = _check_direction(body, w)
    wsq = dot(w, w)
    mapped = [vsub(v, vscale(2 * dot(v, w) / wsq, w)) for v in body.vertices]
    return convex_hull(mapped, allow_degenerate=True, _ambient_check=False)


def vertex_centroid(body: Polytope):
    n = len(body.vertices)
    total = body.vertices[0]
    for v in body.vertices[1:]:
        total = vadd(total, v)
    return vscale(Fraction(1, n), total)


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
    cyc = _chain_2d(list(body.vertices))
    return [body.vertices[i] for i in cyc]


def validate_polytope(body: Polytope) -> None:
    """Check the canonical-form invariants; raises AssertionError on a bug."""
    assert list(body.vertices) == sorted(set(body.vertices))
    for f in body.facets:
        assert f.pseudo_volume > 0
        on = 0
        for v in body.vertices:
            s = dot(v, f.normal)
            assert s <= f.offset
            on += s == f.offset
        assert on >= body.dim
        assert len(f.vertex_indices) == on
    if body.is_full_dimensional and body.dim > 1:
        rank, _ = _affine_rank_with_basis(list(body.vertices))
        assert rank == body.dim
