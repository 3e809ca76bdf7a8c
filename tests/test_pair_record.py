"""Differential test of the pair record against the hull kernel.

``volumes._minkowski_sum(K, L)`` keeps K + L's boundary cycle.  In 3D and
4D a record miss runs only the hull's first steps, node 1 is read off the
cycle with the later nodes, and K + L's body is built from the kept rows
and simplices when first read.  Each record must match the kernel run whole on the rows
of every pair point x + y, formed here from the bodies' ``Fraction``
vertices: node 1 is that hull's volume, the body is that hull, and the
record keeps the vertex pair behind each of its vertices, and only those
where it starts with the body (2D, or a flat K + L).  Inputs are seeded
3D and 4D pools with homothetic pairs among them, coplanar simplices
(cube + cube), a flat K + L (two segments), a point plus a body, two 2D
pairs, and two 4D moment-curve pairs at the 16 x 16 cap.  On a fresh pair
the node volumes, both polynomials and a Brunn-Minkowski sweep must build
no body and test no vertex for extremeness; ``combine(1, K, 1, L)`` builds
it once.  A record miss reads all n + 1 nodes past V(K) in one pass over
the cycle, in 2D, 3D and 4D alike.
"""

import random
from fractions import Fraction as F

import pytest
from test_combine_memo import count_calls, snapshot
from test_volume_polynomial import cyclic_body

from convexkit import geometry, volumes
from convexkit.bodies import box, random_polytope, segment, unit_cube, unit_square
from convexkit.geometry import _hull_with_boundary, _lift, convex_hull, scale, translate
from convexkit.inequalities import bm_check, default_lambda_grid
from convexkit.linalg import primitive_int_vector, vadd
from convexkit.volumes import combine, mixed_volume_interp, volume_polynomial


def point(p):
    return convex_hull([p], allow_degenerate=True)


def check_record(first, second):
    """A fresh record of (K, L) against the kernel's hull of all pair points."""
    volumes._minkowski_sum.cache_clear()
    record = volumes._minkowski_sum(first, second)
    sums = {vadd(x, y) for x in first.vertices for y in second.vertices}
    whole = _hull_with_boundary(_lift(sums), first.dim)[0]
    assert record.nodes[1] == whole.volume
    assert record.body == whole and snapshot(record.body) == snapshot(whole)
    assert [f.weight_pair for f in record.body.facets] == [f.weight_pair for f in whole.facets]
    # The kept pairs, which unequal combinations hull, are behind every vertex.
    kept = {primitive_int_vector(row) for row in volumes._pair_points(record.pairs, 1, 1)}
    assert set(whole.lifted) <= kept <= set(record.rows)
    if not record.simplices:
        # A record that starts with its body keeps exactly the vertices' pairs.
        assert kept == set(whole.lifted)


@pytest.mark.parametrize("n", [3, 4])
def test_records_match_the_kernel_on_seeded_pools(n):
    rng = random.Random(f"pair-record/{n}")
    for k in range({3: 12, 4: 6}[n]):
        first = random_polytope(n, rng.randint(n + 1, n + 4), rng)
        if k % 3 == 2:
            shift = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
            second = translate(scale(first, F(rng.randint(1, 5), rng.randint(1, 3))), shift)
        else:
            second = random_polytope(n, rng.randint(n + 1, n + 4), rng)
        check_record(first, second)


@pytest.mark.parametrize(
    "first, second",
    [
        (unit_cube(), unit_cube()),
        (unit_cube(), box(2, 1, 3)),
        (segment((0, 0, 0), (1, 2, 3)), segment((1, 0, 0), (0, 1, F(1, 2)))),
        (segment((0, 0, 0, 0), (1, 2, 3, 4)), segment((0, 0, 0, 0), (2, 4, 6, 8))),
        (point((1, F(1, 2), -2)), random_polytope(3, 6, random.Random(5))),
        (random_polytope(4, 6, random.Random(6)), point((1, 2, 3, 4))),
        (unit_square(), box(2, 1)),
        (segment((0, 0), (1, 1)), segment((0, 0), (2, 2))),
    ],
    ids=[
        "cube-cube",
        "cube-box",
        "segments-3d",
        "parallel-segments-4d",
        "point-body",
        "body-point",
        "square-rectangle-2d",
        "parallel-segments-2d",
    ],
)
def test_records_match_the_kernel_on_unusual_cycles(first, second):
    check_record(first, second)


@pytest.mark.parametrize("second", ["shifted", "mirrored"])
def test_record_matches_the_kernel_at_the_4d_cap(second):
    # The shifted curve shares many pair points; on the mirrored one, at
    # half-integer t < 0, every pair point is a vertex of K + L.
    first = cyclic_body(4, 16, 0)
    if second == "shifted":
        second = cyclic_body(4, 16, 1)
    else:
        second = convex_hull([tuple(F(-2 * t - 1, 2) ** e for e in range(1, 5)) for t in range(16)])
    assert len(first.lifted) * len(second.lifted) == volumes.MAX_PAIR_POINTS[4]
    check_record(first, second)


@pytest.mark.parametrize("n", [3, 4])
def test_a_fresh_record_builds_its_body_only_for_equal_coefficients(n, monkeypatch):
    rng = random.Random(f"lazy-body/{n}")
    first, second = (random_polytope(n, n + 3, rng) for _ in range(2))
    volumes._minkowski_sum.cache_clear()
    volume_polynomial.cache_clear()
    built = count_calls(monkeypatch, "_canonical_body")
    extreme = count_calls(monkeypatch, "_spans", geometry)
    mixed_volume_interp(first, second)
    volume_polynomial(first, second)
    for lam in default_lambda_grid():
        bm_check(first, second, lam)
    assert volumes._minkowski_sum.cache_info().misses == 1
    # No facet merge and no extreme-point test ran for the record.
    assert built == [] and extreme == []
    total = combine(1, first, 1, second)
    assert combine(1, first, 1, second) == total
    assert combine(F(1, 2), first, F(1, 2), second) == scale(total, F(1, 2))
    assert len(built) == 1 and extreme != []
    assert volumes._minkowski_sum.cache_info().misses == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_record_miss_reads_its_nodes_in_one_pass(n, monkeypatch):
    rng = random.Random(f"node-pass/{n}")
    first, second = (random_polytope(n, n + 3, rng) for _ in range(2))
    volumes._minkowski_sum.cache_clear()
    passes = count_calls(monkeypatch, "_cycle_nodes")
    record = volumes._minkowski_sum(first, second)
    assert len(passes) == 1 and len(record.nodes) == n + 2
    assert volumes._minkowski_sum(first, second) is record
    assert len(passes) == 1
    # Node 1 comes from the same pass, not from a cone sum of its own.
    assert not hasattr(geometry, "_cone_volume")
