"""The three benchmark workloads: seeded inputs, one task at a time, exact checks.

Every input comes from the benchmark's own seeded generators; convexkit only
ever receives the generated points or body files.  A workload's constructor
is the set-up that ``setup_s`` measures: it builds ``tasks``, the fixed list
of task inputs that one pass of the timed loop runs.  ``run(task)`` raises
``TaskFailure`` (or whatever the program raised) when any check fails; the
caller counts it and carries on.  ``Coverage`` is the small pass that every
traced run appends, so that every layer is reached on every workload.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
import random
from fractions import Fraction
from math import lcm

# Calls go through module attributes so that the traced run's wrappers,
# installed on these module namespaces, see the benchmark's own calls too.
from convexkit import bodies, cli, geometry, inequalities, io, volumes
from convexkit.inequalities import Verdict

from tracer import INT_SCALE_BIT_LIMIT

SLACK_FLOOR = Fraction(-1, 10**30)
SOUND = (Verdict.STRICT, Verdict.EQUALITY)


class TaskFailure(Exception):
    """A task ran but its output broke an exact check."""


def _value(x):
    # Mixed-volume routes return a result object today; a bare Fraction works too.
    return getattr(x, "value", x)


def _require(condition, message):
    if not condition:
        raise TaskFailure(message)


def _rational(rng, num=100, den=10):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


# ---------------------------------------------------------------------------
# sweep-3d: the c01/c02 acceptance loop on random 3D pairs
# ---------------------------------------------------------------------------


class Sweep3D:
    """Random 3D pairs of 5-6 points; two mixed-volume routes plus the checkers.

    Set-up hulls two fresh bodies per task, so no body is shared between tasks.
    Tasks cycle through the vertex counts (5, 5), (5, 6) and (6, 6), and every
    generated point is a vertex: a pass then holds the same mix of sizes
    whatever the seed, so the task-time median sits in the (5, 6) stratum
    instead of moving with the seed's share of small bodies.
    """

    name = "sweep-3d"
    PASS_SIZE = 90
    SIZES = ((5, 5), (5, 6), (6, 6))

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"sweep-3d/{seed}")
        self.grid = inequalities.default_lambda_grid()
        self.tasks = [
            tuple(self._body(n) for n in self.SIZES[k % len(self.SIZES)])
            for k in range(self.PASS_SIZE)
        ]

    def _body(self, n):
        # Numerators in [-100, 100], denominators in [1, 10]: the lcm stays far
        # below the integer-scaling limit, so every hull is integer-scaled.
        while True:
            pts = [tuple(_rational(self.rng) for _ in range(3)) for _ in range(n)]
            body = geometry.convex_hull(pts, allow_degenerate=True)
            if body.is_full_dimensional and len(body.vertices) == n:
                return body

    def label(self, task):
        return "pair"

    def run(self, task):
        first, second = task
        interp = _value(volumes.mixed_volume_interp(first, second))
        base = _value(volumes.mixed_volume_base_height(first, second))
        _require(interp == base, f"mixed-volume routes disagree: {interp} != {base}")
        for report in (
            inequalities.minkowski_check(first, second),
            inequalities.normalized_check(first, second),
        ):
            _require(report.verdict in SOUND, f"{report.form.value}: {report.verdict.value}")
        for lam in self.grid:
            report = inequalities.bm_check(first, second, lam)
            _require(report.verdict in SOUND, f"bm at {lam}: {report.verdict.value}")
            _require(Fraction(report.slack_numeric) >= SLACK_FLOOR, f"bm slack at {lam}")


# ---------------------------------------------------------------------------
# round-bodies: disc and ball approximants on the Fraction hull path
# ---------------------------------------------------------------------------


def sphere_points(rng, count):
    """Distinct rational points exactly on the unit sphere.

    Inverse stereographic projection of seeded rational (u, v), with the
    last coordinate's sign drawn so both caps are covered.  Points are added
    past ``count`` until the denominator lcm exceeds the integer-scaling
    limit, so the hull is guaranteed to take the Fraction path.
    """
    pts = set()
    den_lcm = 1
    while len(pts) < count or den_lcm.bit_length() <= INT_SCALE_BIT_LIMIT:
        u, v = _rational(rng, 30), _rational(rng, 30)
        s = u * u + v * v
        z = (s - 1) / (s + 1) * rng.choice((1, -1))
        p = (2 * u / (s + 1), 2 * v / (s + 1), z)
        if p not in pts:
            pts.add(p)
            den_lcm = lcm(den_lcm, *(c.denominator for c in p))
    return sorted(pts)


def spread_sizes(rng, bounds, count):
    """``count`` sizes spread evenly over ``bounds`` from a seeded offset, shuffled.

    Every seed then gets the same mix of sizes, give or take one step, so
    the tail of a pass does not move with the seed's share of large inputs.
    """
    lo, hi = bounds
    offset = rng.random()
    sizes = [lo + int((i + offset) * (hi - lo + 1) / count) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


class RoundBodies:
    """Disc 4m-gons from ``disc_polygon`` and rational ball approximants.

    Two tasks in three are discs, so the task-time median sits inside one
    mode of the two-kind mix rather than between them.
    """

    name = "round-bodies"
    PASS_SIZE = 45
    DISC_M = (90, 110)
    BALL_POINTS = (36, 44)

    def __init__(self, seed, workdir, size=None):
        rng = random.Random(f"round-bodies/{seed}")
        self.square = bodies.unit_square()
        self.cube = bodies.unit_cube()
        size = self.PASS_SIZE if size is None else size
        balls = spread_sizes(rng, self.BALL_POINTS, size // 3)
        discs = spread_sizes(rng, self.DISC_M, size - size // 3)
        self.tasks = [
            ("ball", sphere_points(rng, balls.pop())) if k % 3 == 2 else ("disc", discs.pop())
            for k in range(size)
        ]

    def label(self, task):
        return task[0]

    def run(self, task):
        kind, arg = task
        if kind == "disc":
            disc = bodies.disc_polygon(arg)
            _require(len(disc.vertices) == 4 * arg, "disc lost a vertex")
            area = volumes.mixed_area(self.square, disc)
            other = _value(volumes.mixed_volume_base_height(disc, self.square))
            _require(area == other, f"A(square, D) {area} != base-height(D, square) {other}")
            _require(2 * area <= 4, "2 A(square, disc) exceeds the perimeter 4")
        else:
            ball = geometry.convex_hull(arg)
            _require(len(ball.vertices) == len(arg), "a point on the sphere is not extreme")
            mixed = _value(volumes.mixed_volume_base_height(self.cube, ball))
            _require(0 < mixed <= 2, f"V21(cube, ball) = {mixed} outside (0, 2]")


# ---------------------------------------------------------------------------
# cli-mix: every subcommand, in-process, on seeded body files
# ---------------------------------------------------------------------------

# Base shapes for the body files.  Seeded perturbations of at most 10 per
# coordinate keep every point extreme (margins are at least 30), so the
# combinatorics and hence each command's cost barely move with the seed,
# while the coordinates still differ from seed to seed.
HEXAGON = ((60, 0), (30, 52), (-30, 52), (-60, 0), (-30, -52), (30, -52))
OCTAHEDRON = ((60, 0, 0), (-60, 0, 0), (0, 60, 0), (0, -60, 0), (0, 0, 60), (0, 0, -60))
PRISM = tuple((x, y, z) for z in (45, -45) for x, y in ((60, 0), (-30, 52), (-30, -52)))
SIMPLEX_PLUS = (
    (60, 0, 0, 0), (0, 60, 0, 0), (0, 0, 60, 0), (0, 0, 0, 60),
    (-40, -40, -40, -40), (35, 35, 35, 35),
)
SIMPLEX_PLUS_MIRROR = tuple((x, -y, z, -w) for x, y, z, w in SIMPLEX_PLUS)


def _perturbed(rng, base):
    return [tuple(c + _rational(rng, 10) for c in p) for p in base]


class BodySet:
    """One seeded family of body files plus the exact facts the checks expect."""

    def __init__(self, rng, workdir, tag):
        k2 = _perturbed(rng, HEXAGON)
        k3 = _perturbed(rng, OCTAHEDRON)
        self.ratio = Fraction(rng.randint(2, 9), rng.randint(1, 5))
        self.shift = tuple(_rational(rng, 20, 5) for _ in range(3))
        shear = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        points = {
            "K2": k2,
            "S2": [(x + shear * y, y) for x, y in k2],  # area-preserving shear
            "K3": k3,
            "L3": _perturbed(rng, PRISM),
            "H3": [tuple(self.ratio * c + x for c, x in zip(p, self.shift)) for p in k3],
            "K4": _perturbed(rng, SIMPLEX_PLUS),
            "L4": _perturbed(rng, SIMPLEX_PLUS_MIRROR),
        }
        self.paths, self.bodies = {}, {}
        for name, pts in points.items():
            path = os.path.join(workdir, f"{name}-{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"dim": len(pts[0]), "vertices": [[str(c) for c in p] for p in pts]}, fh)
            self.paths[name] = path
            self.bodies[name] = io.load_body(path)
            if len(self.bodies[name].vertices) != len(pts):
                raise RuntimeError(f"set-up body {name} lost a vertex")
        self.random_seed = rng.randrange(2**32)

    def calls(self):
        """(argv, content check) for every subcommand on this set."""
        p = self.paths
        return [
            (["volume", p["K3"]], self._volume),
            (["mixedvol", p["K3"], p["L3"], "--method", "both"], self._mixedvol),
            (["mixedvol", p["K4"], p["L4"], "--method", "both"], self._mixedvol),
            (["check", p["K3"], p["L3"], "--form", "bm", "--lambda", "1/2"], self._bm),
            (["check", p["K3"], p["L3"], "--form", "mmv"], self._strict),
            (["check", p["K3"], p["L3"], "--form", "mmv1"], self._strict),
            (["equality-diagnose", p["K3"], p["H3"]], self._diagnose_equal),
            (["equality-diagnose", p["K3"], p["L3"]], self._diagnose_strict),
            (["equality-diagnose", p["K2"], p["S2"]], self._diagnose_strict),
            (["random-body", "--dim", "3", "--vertices", "6", "--seed", str(self.random_seed)],
             self._random),
            (["project", p["K4"], "--onto", "1,0,0,0;0,1,0,0;0,0,1,0"], self._project),
            (["steiner", p["K2"], "--direction", "1,1"], self._steiner_2d),
            (["steiner", p["K3"], "--direction", "1,1,1"], self._steiner_3d),
            (["steiner", p["K2"], "--direction", "1,0", "--steps", "3",
              "--schedule", "1,0;0,1;1,1"], self._rounding),
            (["reconstruct", p["K2"]], self._reconstruct),
            (["homothety", p["K3"], p["H3"]], self._homothety),
            (["homothety", p["K3"], p["H3"], "--via-projections"], self._projections),
        ]

    # -- first-pass content checks -----------------------------------------

    def _volume(self, r):
        k3 = self.bodies["K3"]
        expected = _value(volumes.mixed_volume_base_height(k3, k3))
        _require(Fraction(r["volume"]) == expected, "volume != V21(K, K)")

    def _mixedvol(self, r):
        _require(r["agree"] is True and r["base_height"] == r["interp"], "routes disagree")

    def _bm(self, r):
        _require(r["verdict"] in ("Strict", "Equality"), f"bm verdict {r['verdict']}")
        _require(Fraction(r["slack"]) >= SLACK_FLOOR, "bm slack below the floor")

    def _strict(self, r):
        _require(r["verdict"] == "Strict", f"{r['form']} verdict {r['verdict']}")

    def _diagnose_equal(self, r):
        _require(r["verdict"] == "Equality", f"homothetic pair gave {r['verdict']}")
        w = r["witness"]
        _require(
            Fraction(w["a"]) == self.ratio and tuple(map(Fraction, w["x"])) == self.shift,
            "witness differs from the constructed homothety",
        )

    def _diagnose_strict(self, r):
        _require(r["verdict"] == "Strict", f"strict pair gave {r['verdict']}")
        _require(r.get("refutation") is not None, "no refutation for a strict pair")

    def _random(self, body):
        _require(body["dim"] == 3 and 4 <= len(body["vertices"]) <= 6, "bad random body")

    def _project(self, r):
        _require(r["full_dimensional"] is True and r["body"]["dim"] == 3, "bad projection")

    def _steiner_2d(self, r):
        _require(r["exactness"] == "Exact2D", "2D symmetral not exact")
        _require(Fraction(r["volume"]) == self.bodies["K2"].volume, "area not preserved")

    def _steiner_3d(self, r):
        _require(r["exactness"] == "Triangulated3D", "3D symmetral kind")
        _require(Fraction(r["volume"]) <= self.bodies["K3"].volume, "3D symmetral too large")

    def _rounding(self, r):
        area = self.bodies["K2"].volume
        _require(len(r["trace"]) == 4, "rounding trace length")
        _require(all(Fraction(row["volume"]) == area for row in r["trace"]), "area drifted")

    def _reconstruct(self, r):
        _require(r["all_agree"] is True and r["directions"] == 64, "reconstruction mismatch")

    def _homothety(self, r):
        # detect_homothety reads first = ratio * second + shift.
        _require(r["homothetic"] is True, "homothetic pair not detected")
        _require(Fraction(r["witness"]["a"]) == 1 / self.ratio, "wrong homothety ratio")

    def _projections(self, r):
        _require(r["conclusion"] == "Homothetic", f"projections gave {r['conclusion']}")
        _require(Fraction(r["witness"]["a"]) == self.ratio, "wrong projection witness")


class CliMix:
    """Every subcommand through ``convexkit.cli.run``, in-process, one task each.

    A pass runs the full call list on each of ``SETS`` body sets.  The first
    pass checks each report's content exactly; later passes (and the traced
    replay) must reproduce the first pass byte for byte.
    """

    name = "cli-mix"
    SETS = 6

    def __init__(self, seed, workdir, stream="cli-mix", sets=None):
        rng = random.Random(f"{stream}/{seed}")
        sets = [
            BodySet(rng, workdir, f"{stream}-{tag}")
            for tag in range(self.SETS if sets is None else sets)
        ]
        self.tasks = [
            (index, argv, check)
            for index, (argv, check) in enumerate(c for bs in sets for c in bs.calls())
        ]
        self.reference = {}

    def label(self, task):
        return task[1][0]

    def run(self, task):
        index, argv, check = task
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        _require(code == 0, f"exit {code}: {err.getvalue().strip()[:200]}")
        text = out.getvalue()
        if index in self.reference:
            _require(text == self.reference[index], "output differs from the first pass")
            return
        report = json.loads(text)
        check(report if argv[0] == "random-body" else report["result"])
        self.reference[index] = text


class Coverage:
    """One body set of CLI calls plus one Fraction-path ball.

    Every traced run replays this pass after the workload's own, so each
    per-layer metric has a non-zero reading on every workload.  Its inputs
    come from a seed stream of their own and it is never part of the
    untraced timed loop.
    """

    name = "coverage"
    BALL_POINTS = 12

    def __init__(self, seed, workdir):
        rng = random.Random(f"coverage/{seed}")
        self.cli = CliMix(seed, workdir, stream="coverage", sets=1)
        self.round = RoundBodies(seed, workdir, size=0)
        ball = ("ball", sphere_points(rng, self.BALL_POINTS))
        self.tasks = [(self.cli, t) for t in self.cli.tasks] + [(self.round, ball)]

    def label(self, task):
        owner, inner = task
        return owner.label(inner)

    def run(self, task):
        owner, inner = task
        owner.run(inner)


WORKLOADS = {w.name: w for w in (Sweep3D, RoundBodies, CliMix)}
