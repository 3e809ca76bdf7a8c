"""Homothety detection, shadow normalization, and the equality-case pipeline.

A pair is homothetic when L = aK + x with a > 0.  For rational-vertex
polytopes the decision is exact and total: a is forced to be the n-th root
of the volume ratio (rational whenever a homothety exists, since a is a
difference quotient of rational support values), x is forced by vertex
centroids, and the candidate is confirmed by canonical equality.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bodies import segment, standard_simplex
from .errors import (
    DimensionError,
    DimensionMismatchError,
    LowerDimensionalError,
    NotHomotheticProjectionError,
    VolumeMismatchError,
)
from .geometry import (
    Polytope,
    bodies_equal,
    convex_hull,
    hyperplane_subspace,
    project,
    scale,
    support,
    translate,
    vertex_centroid,
)
from .inequalities import default_lambda_grid
from .linalg import as_scalar, as_vec, rational_nth_root, vadd, vscale, vsub
from .volumes import combine, mixed_volume_base_height, projection_prism_volume


@dataclass(frozen=True)
class HomothetyWitness:
    """An exact homothety of a pair: second = ratio * first + shift."""

    ratio: Fraction
    shift: tuple


@dataclass(frozen=True)
class HomothetyDecision:
    witness: Optional[HomothetyWitness]
    reason: Optional[str] = None  # set when witness is None

    @property
    def homothetic(self) -> bool:
        return self.witness is not None


def apply_witness(first: Polytope, witness: HomothetyWitness) -> Polytope:
    return translate(scale(first, witness.ratio), witness.shift)


def detect_homothety(first: Polytope, second: Polytope) -> HomothetyDecision:
    """Exact homothety decision for full-dimensional rational polytopes."""
    if first.dim != second.dim:
        raise DimensionMismatchError("bodies live in different dimensions")
    if not (first.is_full_dimensional and second.is_full_dimensional):
        raise LowerDimensionalError("homothety detection needs full-dimensional bodies")
    ratio = rational_nth_root(second.volume / first.volume, first.dim)
    if ratio is None:
        return HomothetyDecision(None, reason="volume-ratio-not-rational-power")
    shift = vsub(vertex_centroid(second), vscale(ratio, vertex_centroid(first)))
    witness = HomothetyWitness(ratio, shift)
    if bodies_equal(second, apply_witness(first, witness)):
        return HomothetyDecision(witness)
    return HomothetyDecision(None, reason="candidate-transform-mismatch")


def default_direction_set(dim: int, seed: int = 2024, random_count: int = 20):
    """Axes, all (+-1)-diagonals, and seeded random rational directions.

    The last axis direction e_n comes first, as the projection pipeline
    requires it to be present.
    """
    dirs = []
    for i in reversed(range(dim)):
        e = [Fraction(0)] * dim
        e[i] = Fraction(1)
        dirs.append(tuple(e))
    diag = [[Fraction(1)]]
    for _ in range(dim - 1):
        diag = [d + [s] for d in diag for s in (Fraction(1), Fraction(-1))]
    dirs.extend(tuple(d) for d in diag)
    rng = random.Random(seed)
    seen = set(dirs)
    target = len(dirs) + random_count
    while len(dirs) < target:
        w = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim))
        if any(x != 0 for x in w) and w not in seen:
            dirs.append(w)
            seen.add(w)
    return tuple(dirs)


@dataclass(frozen=True)
class ShadowTransforms:
    """Exact record of the normalization: K' = K + first_shift,
    L' = ratio * L + second_shift."""

    first_shift: tuple
    ratio: Fraction
    second_shift: tuple


def _last_axis(dim: int):
    e = [Fraction(0)] * dim
    e[-1] = Fraction(1)
    return tuple(e)


def normalize_shadows(first: Polytope, second: Polytope):
    """Translate K and scale-translate L so both rest on the upper halfspace
    of the last axis and share the same bottom shadow.

    Requires n >= 3 and homothetic shadows onto the last coordinate
    hyperplane (their scale pins the dilation).  Returns (K', L', transforms).
    """
    n = first.dim
    if n < 3:
        raise DimensionError("shadow normalization needs ambient dimension >= 3")
    if not (first.is_full_dimensional and second.is_full_dimensional):
        raise LowerDimensionalError("shadow normalization needs full-dimensional bodies")
    floor = hyperplane_subspace(_last_axis(n))
    # The homothety carrying L's shadow onto K's: K_shadow = a L_shadow + v.
    decision = detect_homothety(project(second, floor), project(first, floor))
    if not decision.homothetic:
        raise NotHomotheticProjectionError(
            f"bottom shadows are not homothetic ({decision.reason})"
        )
    a, v = decision.witness.ratio, decision.witness.shift
    # The floor basis is e_1..e_(n-1), so chart coordinates embed directly.
    v_embedded = tuple(v) + (Fraction(0),)
    second_scaled = translate(scale(second, a), v_embedded)
    e_last = _last_axis(n)
    lift_first = support(first, tuple(-x for x in e_last))
    lift_second = support(second_scaled, tuple(-x for x in e_last))
    first_n = translate(first, vscale(lift_first, e_last))
    second_n = translate(second_scaled, vscale(lift_second, e_last))
    assert bodies_equal(project(first_n, floor), project(second_n, floor))
    transforms = ShadowTransforms(
        first_shift=vscale(lift_first, e_last),
        ratio=a,
        second_shift=vadd(v_embedded, vscale(lift_second, e_last)),
    )
    return first_n, second_n, transforms


class ProjectionConclusion(enum.Enum):
    HOMOTHETIC = "Homothetic"
    NOT_HOMOTHETIC = "NotHomothetic"


@dataclass(frozen=True)
class ProjectionsReport:
    conclusion: ProjectionConclusion
    witness: Optional[HomothetyWitness] = None
    failing_direction: Optional[tuple] = None
    reason: Optional[str] = None


def homothetic_projections_conclude(
    first: Polytope, second: Polytope, directions
) -> ProjectionsReport:
    """Hyperplane-shadow test: homothetic shadows in every listed direction,
    then shadow normalization as the complete certificate.

    Finite direction sampling can only refute; the Homothetic conclusion is
    earned by normalizing and comparing the bodies exactly, and its witness
    is verified before being returned.
    """
    n = first.dim
    if n < 3:
        raise DimensionError("projection pipeline needs ambient dimension >= 3")
    directions = [as_vec(w) for w in directions]
    e_last = _last_axis(n)
    if not any(_parallel_same_ray(w, e_last) for w in directions):
        raise ValueError("direction set must contain the last axis direction")
    for w in directions:
        xi = hyperplane_subspace(w)
        decision = detect_homothety(project(first, xi), project(second, xi))
        if not decision.homothetic:
            return ProjectionsReport(
                ProjectionConclusion.NOT_HOMOTHETIC,
                failing_direction=w,
                reason=decision.reason,
            )
    first_n, second_n, tf = normalize_shadows(first, second)
    if not bodies_equal(first_n, second_n):
        return ProjectionsReport(
            ProjectionConclusion.NOT_HOMOTHETIC,
            reason="normalized-bodies-differ",
        )
    # K + fs = a L + ss, solved for L.
    ratio = 1 / tf.ratio
    shift = vscale(ratio, vsub(tf.first_shift, tf.second_shift))
    witness = HomothetyWitness(ratio, shift)
    assert bodies_equal(second, apply_witness(first, witness))
    return ProjectionsReport(ProjectionConclusion.HOMOTHETIC, witness=witness)


def _parallel_same_ray(u, v) -> bool:
    ratio = None
    for a, b in zip(u, v):
        if (a == 0) != (b == 0):
            return False
        if b != 0:
            r = as_scalar(a) / b
            if r <= 0 or (ratio is not None and r != ratio):
                return False
            ratio = r
    return ratio is not None


# ---------------------------------------------------------------------------
# equality-case functional sweep
# ---------------------------------------------------------------------------


class SweepConclusion(enum.Enum):
    HOMOTHETIC = "Homothetic"
    NOT_EQUALITY_CASE = "NotEqualityCase"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class EqualityCaseTrace:
    """Evidence collected by the functional sweep.

    mixed_pairs rows are (lam, body_index, V_{n-1,1}(K_lam, M), V_{n-1,1}(L, M));
    direction_pairs rows are (lam, w, prism(K_lam, w), prism(L, w)).
    Refutation is sound on its own; the Homothetic conclusion additionally
    carries the exact witness (the sweep alone never confirms).
    """

    lambda_grid: tuple
    volumes: tuple
    mixed_pairs: tuple
    direction_pairs: tuple
    conclusion: SweepConclusion
    witness: Optional[HomothetyWitness] = None
    refutation: Optional[dict] = None


def default_test_bodies(reference: Polytope):
    """Unit axis box, standard simplex, and axis segments; the sweep itself
    prepends the pair under test.  Segments realize the projection step."""
    n = reference.dim
    zero = tuple(Fraction(0) for _ in range(n))
    cube_pts = [()]
    for _ in range(n):
        cube_pts = [p + (c,) for p in cube_pts for c in (Fraction(0), Fraction(1))]
    bodies = [convex_hull(cube_pts), standard_simplex(n)]
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        bodies.append(segment(zero, tuple(e)))
    return tuple(bodies)


def functional_equality_sweep(
    first: Polytope,
    second: Polytope,
    lambda_grid=None,
    test_bodies=None,
    directions=(),
) -> EqualityCaseTrace:
    """Check V_{n-1,1}(K_lam, M) = V_{n-1,1}(L, M) over a grid of weights and
    test bodies, plus constancy of V_n(K_lam); exact throughout.

    Requires equal volumes (callers normalize through the scale-free quotient
    convention instead of irrational rescaling).  Any failed row refutes the
    equality case; an all-equal sweep promotes to Homothetic only when the
    exact witness exists, otherwise the verdict stays Inconclusive.
    """
    if first.volume != second.volume:
        raise VolumeMismatchError("sweep requires equal volumes")
    if not (first.is_full_dimensional and second.is_full_dimensional):
        raise LowerDimensionalError("sweep needs full-dimensional bodies")
    if lambda_grid is None:
        lambda_grid = tuple(Fraction(k, 4) for k in range(5))
    lambda_grid = tuple(as_scalar(t) for t in lambda_grid)
    if test_bodies is None:
        test_bodies = default_test_bodies(first)
    test_bodies = (second, first, *test_bodies)
    directions = tuple(as_vec(w) for w in directions)

    volumes = []
    mixed_pairs = []
    direction_pairs = []
    refutation = None
    for lam in lambda_grid:
        mid = combine(1 - lam, first, lam, second)
        volumes.append((lam, mid.volume))
        if mid.volume != first.volume and refutation is None:
            refutation = {"kind": "volume", "lambda": lam, "value": mid.volume}
        for idx, m in enumerate(test_bodies):
            a = mixed_volume_base_height(mid, m)
            b = mixed_volume_base_height(second, m)
            mixed_pairs.append((lam, idx, a, b))
            if a != b and refutation is None:
                refutation = {"kind": "mixed", "lambda": lam, "body_index": idx}
        for w in directions:
            pa, pb = projection_equality_step(first, second, lam, w)
            direction_pairs.append((lam, w, pa, pb))
            if pa != pb and refutation is None:
                refutation = {"kind": "direction", "lambda": lam, "direction": w}

    if refutation is not None:
        conclusion, witness = SweepConclusion.NOT_EQUALITY_CASE, None
    else:
        decision = detect_homothety(first, second)
        if decision.homothetic:
            conclusion, witness = SweepConclusion.HOMOTHETIC, decision.witness
        else:
            conclusion, witness = SweepConclusion.INCONCLUSIVE, None
    return EqualityCaseTrace(
        lambda_grid=lambda_grid,
        volumes=tuple(volumes),
        mixed_pairs=tuple(mixed_pairs),
        direction_pairs=tuple(direction_pairs),
        conclusion=conclusion,
        witness=witness,
        refutation=refutation,
    )


def strict_refutation(first: Polytope, second: Polytope, lambda_grid=None):
    """Concrete evidence against homothety for a strict pair, or None.

    With equal volumes the functional sweep itself refutes; otherwise the
    first-argument-scale-free quotients mv(K_lam, M)^n / V(K_lam)^(n-1) are
    compared (homothetic pairs make them agree for every lam and M, and the
    row lam = 0, M = second body always differs on a strict pair).
    """
    grid = default_lambda_grid() if lambda_grid is None else lambda_grid
    grid = tuple(as_scalar(t) for t in grid)
    if first.volume == second.volume:
        return functional_equality_sweep(first, second, grid).refutation
    n = first.dim
    bodies = (second, first)
    for lam in grid:
        mid = combine(1 - lam, first, lam, second)
        for idx, m in enumerate(bodies):
            q_mid = mixed_volume_base_height(mid, m) ** n / mid.volume ** (n - 1)
            q_ref = mixed_volume_base_height(second, m) ** n / second.volume ** (n - 1)
            if q_mid != q_ref:
                return {
                    "kind": "scale-free-quotient",
                    "lambda": lam,
                    "body_index": idx,
                    "quotient_mix": q_mid,
                    "quotient_second": q_ref,
                }
    return None


def projection_equality_step(first: Polytope, second: Polytope, lam, w):
    """Exact pair (prism(K_lam, w), prism(L, w)); equality across a direction
    set is the shadow-volume form of the equality case one dimension down."""
    lam = as_scalar(lam)
    mid = combine(1 - lam, first, lam, second)
    return projection_prism_volume(mid, w), projection_prism_volume(second, w)
