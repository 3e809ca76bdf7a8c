"""Homothety detection, shadow normalization, and the equality-case pipeline.

A pair is homothetic when L = aK + x with a > 0.  For rational-vertex
polytopes the decision is exact and total: a is forced to be the n-th root
of the volume ratio (rational whenever a homothety exists, since a is a
difference quotient of rational support values), x is forced by vertex
centroids, and the candidate is confirmed by comparing integer rows: each
of K's lifted rows, mapped by v -> a v + x (``geometry._image_rows``), must
be the matching row of L.  That row map is the one certificate: the
projection pipeline builds its candidate from the shadows and confirms it
the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bodies import axis_segment, box, random_direction, standard_simplex
from .errors import (
    DimensionError,
    InvariantError,
    LambdaRangeError,
    NotHomotheticProjectionError,
    VolumeMismatchError,
)
from .geometry import (
    Polytope,
    _check_full_dimensional,
    _check_pair_dim,
    _homothety,
    _image_rows,
    bodies_equal,
    hyperplane_subspace,
    project,
    support,
    translate,
    vertex_centroid,
)
from .inequalities import default_lambda_grid
from .linalg import (
    as_vec,
    rational_nth_root,
    unit_vector,
    vadd,
    vneg,
    vscale,
    vsub,
)
from .volumes import as_lambda, combine, mixed_volume_base_height, projection_prism_volume


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


def _maps_onto(first: Polytope, second: Polytope, witness: HomothetyWitness) -> bool:
    """True when v -> a v + x carries first's rows onto second's, compared
    row by row with no body built; the map keeps the points' order, so the
    images line up with second's sorted rows."""
    return _image_rows(first.lifted, witness.ratio, witness.shift) == second.lifted


def detect_homothety(first: Polytope, second: Polytope) -> HomothetyDecision:
    """Exact homothety decision for full-dimensional rational polytopes.

    The ratio is the rational n-th root of the volume ratio and the shift
    the vertex centroids' difference; the candidate is confirmed by mapping
    first's rows one by one and comparing them with second's, with no
    transformed body built.
    """
    _check_pair_dim(first, second)
    _check_full_dimensional(first, second)
    ratio = rational_nth_root(second.volume / first.volume, first.dim)
    if ratio is None:
        return HomothetyDecision(None, reason="volume-ratio-not-rational-power")
    shift = vsub(vertex_centroid(second), vscale(ratio, vertex_centroid(first)))
    witness = HomothetyWitness(ratio, shift)
    if _maps_onto(first, second, witness):
        return HomothetyDecision(witness)
    return HomothetyDecision(None, reason="candidate-transform-mismatch")


def default_direction_set(dim: int, seed: int = 2024):
    """Axes, all (+-1)-diagonals, and 20 seeded random rational directions.

    The last axis direction e_n comes first, as the projection pipeline
    requires it to be present.
    """
    dirs = [unit_vector(dim, i) for i in reversed(range(dim))]
    diag = [[Fraction(1)]]
    for _ in range(dim - 1):
        diag = [d + [s] for d in diag for s in (Fraction(1), Fraction(-1))]
    dirs.extend(tuple(d) for d in diag)
    rng = random.Random(seed)
    seen = set(dirs)
    target = len(dirs) + 20
    while len(dirs) < target:
        w = random_direction(dim, rng)
        if w not in seen:
            dirs.append(w)
            seen.add(w)
    return tuple(dirs)


def normalize_shadows(first: Polytope, second: Polytope):
    """Translate K and scale-translate L so both rest on the upper halfspace
    of the last axis and share the same bottom shadow.

    Requires n >= 3, full-dimensional bodies and homothetic shadows onto
    the last coordinate hyperplane (their scale pins the dilation).
    Returns (K', L', a) with K' = K + h_K(-e_n) e_n and L' = a L + y for
    the shift y that sets L' on the same floor.
    """
    _check_pair_dim(first, second)
    n = first.dim
    if n < 3:
        raise DimensionError("shadow normalization needs ambient dimension >= 3")
    _check_full_dimensional(first, second)
    floor = hyperplane_subspace(unit_vector(n, n - 1))
    decision = detect_homothety(project(first, floor), project(second, floor))
    if not decision.homothetic:
        raise NotHomotheticProjectionError(
            f"bottom shadows are not homothetic ({decision.reason})"
        )
    # Its inverse carries L's shadow onto K's: K_shadow = a L_shadow + v.
    a = 1 / decision.witness.ratio
    # The floor basis is e_1..e_(n-1), so chart coordinates embed directly.
    v_embedded = vscale(-a, decision.witness.shift) + (Fraction(0),)
    # Both rest on x_n = 0 after their shifts; h_(aL+v)(-e_n) = a h_L(-e_n).
    e_last = unit_vector(n, n - 1)
    down = vneg(e_last)
    first_n = translate(first, vscale(support(first, down), e_last))
    second_n = _homothety(second, a, vadd(v_embedded, vscale(a * support(second, down), e_last)))
    if not bodies_equal(project(first_n, floor), project(second_n, floor)):
        raise InvariantError("normalized bottom shadows differ")
    return first_n, second_n, a


@dataclass(frozen=True)
class ProjectionsReport:
    witness: Optional[HomothetyWitness] = None  # set exactly when homothetic
    failing_direction: Optional[tuple] = None
    reason: Optional[str] = None


def homothetic_projections_conclude(
    first: Polytope, second: Polytope, directions
) -> ProjectionsReport:
    """Hyperplane-shadow test: homothetic shadows in every listed direction,
    then one certificate.

    Finite direction sampling can only refute.  Once every shadow matched,
    the bottom shadow's witness L_shadow = a K_shadow + s fixes the only
    candidate, L = a K + (s, a h_K(-e_n) - h_L(-e_n)), as the heights of the
    two floors must match; it is returned exactly when it maps K's rows onto
    L's (``_maps_onto``), the same row map ``detect_homothety`` confirms by.
    """
    _check_pair_dim(first, second)
    n = first.dim
    if n < 3:
        raise DimensionError("projection pipeline needs ambient dimension >= 3")
    directions = [as_vec(w) for w in directions]
    if not any(w[-1] > 0 and not any(w[:-1]) for w in directions):
        raise ValueError("direction set must contain the last axis direction")
    bottom = None
    for w in directions:
        xi = hyperplane_subspace(w)
        decision = detect_homothety(project(first, xi), project(second, xi))
        if not decision.homothetic:
            return ProjectionsReport(failing_direction=w, reason=decision.reason)
        if bottom is None and w[-1] > 0 and not any(w[:-1]):
            # Every w on the ray of e_n has the floor's basis e_1..e_(n-1).
            bottom = decision.witness
    _check_full_dimensional(first, second)
    a = bottom.ratio
    down = vneg(unit_vector(n, n - 1))
    witness = HomothetyWitness(a, (*bottom.shift, a * support(first, down) - support(second, down)))
    if _maps_onto(first, second, witness):
        return ProjectionsReport(witness=witness)
    return ProjectionsReport(reason="normalized-bodies-differ")


# ---------------------------------------------------------------------------
# equality-case functional sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualityCaseTrace:
    """Evidence collected by the functional sweep.

    mixed_pairs rows are (lam, body_index, V_{n-1,1}(K_lam, M), V_{n-1,1}(L, M)).
    A segment test body M = [0, w] gives the projection row in w, since
    n V_{n-1,1}(K, [0, w]) = prism(K, w).
    A ``refutation`` (the first failed row) is sound on its own and rules
    out the equality case; with none, the pair is homothetic exactly when
    ``witness`` is set (the sweep alone never confirms), and inconclusive
    otherwise.
    """

    volumes: tuple
    mixed_pairs: tuple
    witness: Optional[HomothetyWitness] = None
    refutation: Optional[dict] = None


def default_test_bodies(reference: Polytope):
    """Unit axis box, standard simplex, and axis segments; the sweep itself
    prepends the pair under test.  The segments give the sweep its
    projection rows."""
    n = reference.dim
    return (box(*[1] * n), standard_simplex(n), *(axis_segment(n, i) for i in range(n)))


def functional_equality_sweep(
    first: Polytope,
    second: Polytope,
    lambda_grid=None,
    test_bodies=None,
) -> EqualityCaseTrace:
    """Check V_{n-1,1}(K_lam, M) = V_{n-1,1}(L, M) over a grid of weights and
    test bodies, plus constancy of V_n(K_lam); exact throughout.

    Requires equal volumes (callers normalize through the scale-free quotient
    convention instead of irrational rescaling).  Any failed row refutes the
    equality case; an all-equal sweep promotes to Homothetic only when the
    exact witness exists, otherwise the verdict stays Inconclusive.
    """
    _check_pair_dim(first, second)
    if lambda_grid is None:
        lambda_grid = tuple(Fraction(k, 4) for k in range(5))
    lambda_grid = tuple(map(as_lambda, lambda_grid))
    if first.volume != second.volume:
        raise VolumeMismatchError("sweep requires equal volumes")
    _check_full_dimensional(first, second)
    if test_bodies is None:
        test_bodies = default_test_bodies(first)
    test_bodies = (second, first, *test_bodies)

    reference = [mixed_volume_base_height(second, m) for m in test_bodies]
    volumes = []
    mixed_pairs = []
    refutation = None
    for lam in lambda_grid:
        mid = combine(1 - lam, first, lam, second)
        volumes.append((lam, mid.volume))
        if mid.volume != first.volume and refutation is None:
            refutation = {"kind": "volume", "lambda": lam, "value": mid.volume}
        for idx, (m, b) in enumerate(zip(test_bodies, reference)):
            a = mixed_volume_base_height(mid, m)
            mixed_pairs.append((lam, idx, a, b))
            if a != b and refutation is None:
                refutation = {"kind": "mixed", "lambda": lam, "body_index": idx}

    witness = None if refutation is not None else detect_homothety(first, second).witness
    return EqualityCaseTrace(
        volumes=tuple(volumes),
        mixed_pairs=tuple(mixed_pairs),
        witness=witness,
        refutation=refutation,
    )


def _refutation_lambda(lambda_grid=None) -> Fraction:
    """The grid's first lam below 1, read once every value is checked to lie
    in [0, 1]; the default grid's is 0.  A grid with no value below 1 raises
    ``LambdaRangeError``, since no row at lam = 1 can refute."""
    grid = default_lambda_grid() if lambda_grid is None else tuple(map(as_lambda, lambda_grid))
    lam = next((t for t in grid if t < 1), None)
    if lam is None:
        raise LambdaRangeError("lambda grid has no value below 1")
    return lam


def strict_refutation(first: Polytope, second: Polytope, lambda_grid=None):
    """Concrete evidence against homothety for a strict pair, or None.

    Equality in Brunn-Minkowski or Minkowski's first inequality at a lam < 1
    makes K_lam, hence K, homothetic to L; at lam = 1 every row holds.  So
    only the grid's first lam < 1 is evaluated, against the pair alone: the
    functional sweep's row for equal volumes, otherwise the first-argument-
    scale-free quotients mv(K_lam, M)^n / V(K_lam)^(n-1) for M = L, then K.
    """
    lam = _refutation_lambda(lambda_grid)
    if first.volume == second.volume:
        return functional_equality_sweep(first, second, (lam,), test_bodies=()).refutation
    n = first.dim
    mid = combine(1 - lam, first, lam, second)
    for idx, m in enumerate((second, first)):
        row = {
            "kind": "scale-free-quotient",
            "lambda": lam,
            "body_index": idx,
            "quotient_mix": mixed_volume_base_height(mid, m) ** n / mid.volume ** (n - 1),
            "quotient_second": mixed_volume_base_height(second, m) ** n / second.volume ** (n - 1),
        }
        if row["quotient_mix"] != row["quotient_second"]:
            return row
    return None


def projection_equality_step(first: Polytope, second: Polytope, lam, w):
    """Exact pair (prism(K_lam, w), prism(L, w)); equality across a direction
    set is the shadow-volume form of the equality case one dimension down."""
    lam = as_lambda(lam)
    mid = combine(1 - lam, first, lam, second)
    return projection_prism_volume(mid, w), projection_prism_volume(second, w)
