import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from convexkit.bodies import box, random_polytope, standard_simplex, unit_cube, unit_square
from convexkit.errors import DimensionError, EmptyScheduleError
from convexkit.geometry import convex_hull, reflect_through_hyperplane
from convexkit.reconstruction import farey_fractions
from convexkit.steiner import (
    rounding_iteration,
    steiner_symmetral,
    superadditivity_check,
)
from conftest import make_rng


def test_symmetral_square_axis(square):
    r = steiner_symmetral(square, (1, 0))
    assert r == convex_hull([(-F(1, 2), 0), (F(1, 2), 0), (-F(1, 2), 1), (F(1, 2), 1)])
    assert r.dim == 2
    assert r.volume == square.volume


def test_symmetral_triangle(tri):
    r = steiner_symmetral(tri, (1, 0))
    assert r == convex_hull([(-F(1, 2), 0), (F(1, 2), 0), (0, 1)])
    assert r.volume == F(1, 2)


def test_symmetral_square_diagonal(square):
    # Chords parallel to (1,1) recentred on the line y = -x: the extreme
    # chords are the corners (1,0) and (0,1), the middle chord is the full
    # diagonal, giving the square with corners (+-1/2, +-1/2); area 1 exact.
    r = steiner_symmetral(square, (1, 1))
    assert r == convex_hull([(F(1, 2), F(1, 2)), (-F(1, 2), -F(1, 2)), (F(1, 2), -F(1, 2)), (-F(1, 2), F(1, 2))])
    assert r.volume == 1


def test_symmetral_reflection_and_idempotence():
    rng = make_rng(9)
    for _ in range(5):
        body = random_polytope(2, 6, rng)
        for w in [(1, 0), (1, 1), (2, -1)]:
            sym = steiner_symmetral(body, w)
            assert sym.volume == body.volume
            assert sym == reflect_through_hyperplane(sym, w)
            assert steiner_symmetral(sym, w) == sym


def test_symmetral_3d_exact_on_boxes_and_simplices(cube):
    for body in (cube, box(2, 1, F(1, 2)), standard_simplex(3)):
        for w in [(0, 0, 1), (1, 0, 0)]:
            r = steiner_symmetral(body, w)
            assert r.dim == 3
            assert r.volume == body.volume


def test_symmetral_3d_inner_approximation_bound():
    rng = make_rng(21)
    for _ in range(4):
        body = random_polytope(3, 6, rng)
        r = steiner_symmetral(body, (1, 1, 1))
        assert r.volume <= body.volume


def test_symmetral_dimension_errors(square):
    with pytest.raises(DimensionError):
        steiner_symmetral(
            convex_hull([p + (0,) * 2 for p in square.vertices] + [(0, 0, 1, 0), (0, 0, 0, 1)]),
            (1, 0, 0, 0),
        )


def test_superadditivity(square, tri):
    assert superadditivity_check(square, square, (1, 0)) is None
    assert superadditivity_check(square, tri, (1, 0)) is None
    assert superadditivity_check(square, tri, (1, 1)) is None


def test_superadditivity_random_pairs():
    rng = make_rng(33)
    for _ in range(5):
        a = random_polytope(2, 5, rng)
        b = random_polytope(2, 5, rng)
        for w in [(1, 0), (1, 2)]:
            assert superadditivity_check(a, b, w) is None


def test_rounding_iteration(square, tri):
    trace = rounding_iteration(square, [(1, 0)], 3)
    vols = [row[2] for row in trace]
    assert vols == [1, 1, 1, 1]
    # The body stabilizes after the first step, and so does its ratio.
    assert trace[1][3] == trace[2][3] == trace[3][3]
    trace2 = rounding_iteration(tri, [(1, 0), (0, 1), (1, 1), (1, -1)], 8)
    assert all(row[2] == F(1, 2) for row in trace2)
    with pytest.raises(EmptyScheduleError):
        rounding_iteration(square, [], 2)


def default_schedule():
    """Planar Farey-slope direction cycle of order 4."""
    dirs = [(F(s.denominator), F(s.numerator)) for s in farey_fractions(4)]
    dirs.append((F(0), F(1)))
    dirs.extend((-d[1], d[0]) for d in dirs[1:-1])
    return tuple(dirs)


def test_default_schedule_rounds_triangle(tri):
    # Generic directions double the vertex count per step, so keep this short.
    trace = rounding_iteration(tri, default_schedule(), 6)
    # the isoperimetric ratio column is reported, not asserted; check shape
    assert len(trace) == 7
    assert trace[-1][2] == F(1, 2)


def test_rounding_demo_script_keeps_the_volume():
    # The demo runs the planar Steiner and hull path end to end.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "rounding_demo.py"), "--steps", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2", "3"]
    assert all(row[2] == "1/2" for row in rows)
