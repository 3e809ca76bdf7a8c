"""Differential test of ``combine`` against the hull of all pairwise sums.

``combine`` may reuse what an earlier call on the same ordered pair of
bodies learned, so every check here runs a sequence of combinations over a
shared pool of bodies: the same pair with several coefficients (zero and
equal ones included), both argument orders, and more distinct pairs than a
small memo holds.  Pools mix full-dimensional, flat and segment bodies.
"""

import dataclasses
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit import io, volumes
from convexkit.bodies import random_polytope
from convexkit.geometry import convex_hull, scale, translate
from convexkit.linalg import vadd, vscale
from convexkit.volumes import (
    combine,
    mixed_volume_interp,
    projection_prism_volume,
    volume_polynomial,
)

from conftest import save_body

coords = st.fractions(min_value=-3, max_value=3, max_denominator=3)
coefficients = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(2), F(5, 2)])


def pairwise_hull(a, first, b, second):
    """The oracle: hull of a x + b y over all vertex pairs."""
    pts = {vadd(vscale(a, x), vscale(b, y)) for x in first.vertices for y in second.vertices}
    return convex_hull(pts, allow_degenerate=True)


def snapshot(body):
    return (
        body.dim,
        body.vertices,
        body.volume,
        body.affine_dim,
        [(f.normal, f.offset, f.pseudo_volume) for f in body.facets],
    )


@st.composite
def bodies(draw, n):
    """A body in R^n: full-dimensional, flat (last coordinate fixed) or a segment."""
    kind = draw(st.sampled_from(["full", "flat", "segment"]))
    if kind == "segment":
        ends = draw(st.lists(st.tuples(*[coords] * n), min_size=2, max_size=2, unique=True))
        return convex_hull(ends, allow_degenerate=True)
    size = {2: 5, 3: 5, 4: 4}[n]
    pts = draw(st.lists(st.tuples(*[coords] * n), min_size=n + 1, max_size=n + size))
    if kind == "flat":
        level = draw(coords)
        pts = [p[:-1] + (level,) for p in pts]
    return convex_hull(pts, allow_degenerate=True)


@st.composite
def combination_runs(draw):
    """A pool of bodies and a sequence of (i, j, a, b) combinations on it.

    Each drawn pair is combined with several coefficient pairs, where equal
    and zero coefficients are always among them, and then once in the other
    argument order.
    """
    n = draw(st.integers(2, 4))
    pool = draw(st.lists(bodies(n), min_size=2, max_size={2: 12, 3: 10, 4: 6}[n]))
    index = st.integers(0, len(pool) - 1)
    runs = []
    for _ in range(draw(st.integers(1, {2: 14, 3: 10, 4: 4}[n]))):
        i, j = draw(index), draw(index)
        for a, b in draw(st.lists(st.tuples(coefficients, coefficients), min_size=1, max_size=3)):
            runs.append((i, j, a, b))
        runs.append((i, j, F(1, 2), F(1, 2)))
        runs.append((i, j, F(0), F(3, 2)))
        runs.append((j, i, F(2), F(1, 3)))
    return pool, runs


@settings(max_examples=40, deadline=None)
@given(combination_runs())
def test_combine_matches_pairwise_hull(run):
    pool, runs = run
    for i, j, a, b in runs:
        got = combine(a, pool[i], b, pool[j])
        assert snapshot(got) == snapshot(pairwise_hull(a, pool[i], b, pool[j]))


def test_combine_past_memo_size_and_back():
    # Twelve distinct pairs push the first ones out; coming back to them must
    # still give the oracle's answer.
    rng = random.Random(7)
    pool = [
        convex_hull([tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)) for _ in range(6)])
        for _ in range(4)
    ]
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    for weights in ((F(1), F(1)), (F(1, 4), F(3, 4)), (F(3), F(1, 2))):
        for i, j in pairs:
            got = combine(weights[0], pool[i], weights[1], pool[j])
            want = pairwise_hull(weights[0], pool[i], weights[1], pool[j])
            assert snapshot(got) == snapshot(want)


def test_combine_shared_pairs_across_threads():
    rng = random.Random(11)
    pool = [
        convex_hull([tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)) for _ in range(5)])
        for _ in range(3)
    ]
    jobs = [
        (i, j, F(k, 8), F(8 - k, 8))
        for i in range(3)
        for j in range(3)
        for k in range(9)
    ]
    expected = {job: snapshot(pairwise_hull(job[2], pool[job[0]], job[3], pool[job[1]])) for job in jobs}

    def work(offset):
        order = jobs[offset:] + jobs[:offset]
        return all(
            snapshot(combine(a, pool[i], b, pool[j])) == expected[(i, j, a, b)]
            for i, j, a, b in order
        )

    # Nine pairs, so the threads also evict each other's records; a short
    # switch interval makes them interleave inside combine.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool_exec:
            futures = [pool_exec.submit(work, offset) for offset in (0, 20, 40, 60)]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)


def count_calls(monkeypatch, name):
    """Count the calls made through the global ``name`` of every convexkit
    module that binds the same object as ``volumes`` does."""
    calls = []
    real = getattr(volumes, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("convexkit") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_minkowski_sum_is_hulled_once_per_pair(monkeypatch):
    # K + L is hulled from all vertex pairs once; a later unequal positive
    # combination hulls only the pairs behind the vertices of K + L, and the
    # pair's volume polynomial hulls nothing.  Every hull, convex_hull's
    # too, is built by geometry._hull_with_boundary.
    first, second = (random_polytope(3, 6, random.Random(seed)) for seed in (9101, 9102))
    hulls = count_calls(monkeypatch, "_hull_with_boundary")
    total = combine(1, first, 1, second)
    assert combine(1, first, 1, second) == total
    assert len(hulls) == 1
    third = combine(F(1, 3), first, F(2, 3), second)
    assert len(hulls) == 2 and len(hulls[1][0]) == len(total.vertices)
    poly = volume_polynomial(first, second)
    assert poly.coefficients[0] == first.volume
    assert mixed_volume_interp(first, second) == poly.coefficients[1] / 3
    assert len(hulls) == 2
    assert snapshot(third) == snapshot(pairwise_hull(F(1, 3), first, F(2, 3), second))


def test_node_volumes_survive_other_combinations(monkeypatch):
    # Prisms K + [0, w] hull K and K + w and leave the pair records alone,
    # so they cannot push a pair's node volumes out: the next polynomial
    # hulls nothing.
    first, second, other = (random_polytope(3, 6, random.Random(seed)) for seed in (9201, 9202, 9203))
    before = volume_polynomial(first, second)
    records = volumes._minkowski_sum.cache_info()
    for k in range(8):
        projection_prism_volume(other, (F(1), F(k), F(k * k - 3)))
    assert volumes._minkowski_sum.cache_info() == records
    combines = count_calls(monkeypatch, "combine")
    assert volume_polynomial(first, second) == before
    assert combines == []


def test_equal_bodies_hash_equal_and_share_a_record(tmp_path):
    # A body is its canonical rows, so equal bodies from every constructor
    # hash alike and find each other's pair record, and equality, hash and
    # repr read the fields alone.
    rng = random.Random(9301)
    points = [tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)) for _ in range(7)]
    body, other = convex_hull(points), random_polytope(3, 6, rng)
    shown = repr(body)
    save_body(body, tmp_path / "body.json")
    copies = [
        convex_hull(points[::-1]),
        scale(scale(body, 3), F(1, 3)),
        translate(translate(body, (1, F(1, 2), -2)), (-1, F(-1, 2), 2)),
        io.load_body(tmp_path / "body.json"),
        dataclasses.replace(body),
    ]
    for copy in copies:
        assert copy is not body and copy == body and repr(copy) == shown
        assert hash(copy) == hash(body) == hash((body.dim, body.lifted))
    assert repr(body) == shown
    # replace builds a new object, which hashes its own fields.
    moved = dataclasses.replace(body, lifted=body.lifted[1:])
    assert moved != body
    assert hash(moved) == hash((body.dim, body.lifted[1:]))

    combine(1, body, 1, other)
    before = volumes._minkowski_sum.cache_info()
    for copy in copies:
        combine(1, copy, 1, other)
    after = volumes._minkowski_sum.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (len(copies), 0)
