"""Volume-concavity and mixed-volume inequality checkers.

The n-th root of volume is concave along Minkowski interpolation, and
equivalently V_{n-1,1}(K, L)^n >= V_n(K)^(n-1) V_n(L); for full-dimensional
bodies equality holds exactly when K and L are homothetic.  Verdicts here
are decided on exact rationals.  The mixed-volume forms compare rational
powers; the Brunn-Minkowski form decides equality from its three volumes
alone, reading the volume of (1-lam)K + lam L from the pair's volume
polynomial (interpolated from hulls of K + eps L, not from K's facets), so
its verdict and the mixed-volume verdict are independent routes to the
same answer.  Numeric slack strings (50 digits by default) are attached
for display only.  A Violation verdict is a bug signal, never a
legitimate outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .errors import (
    DimensionMismatchError,
    LambdaRangeError,
    LowerDimensionalError,
    ZeroVolumeError,
)
from .geometry import Polytope
from .linalg import as_scalar, rational_nth_root
from .numeric import DEFAULT_DIGITS, format_fixed, nth_root_fraction, root_combination
from .volumes import (
    combine,
    mixed_volume_base_height,
    mixed_volume_interp,
    volume_polynomial,
)

STRICTNESS_TOLERANCE = Fraction(1, 10**30)


class Verdict(enum.Enum):
    STRICT = "Strict"
    EQUALITY = "Equality"
    VIOLATION = "Violation"


class Form(enum.Enum):
    BM = "bm"
    MMV = "mmv"
    MMV1 = "mmv1"


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check.

    For the root-bearing form (bm) the exact sides are irrational, so
    ``lhs_exact``/``rhs_exact`` are None and ``quantities`` carries the
    defining rationals instead; slack strings are fixed-point decimals.
    """

    form: Form
    verdict: Verdict
    lhs_exact: Optional[Fraction]
    rhs_exact: Optional[Fraction]
    slack_numeric: str
    quantities: dict
    lam: Optional[Fraction] = None
    degenerate: bool = False


def _mixed_volume(first: Polytope, second: Polytope) -> Fraction:
    if first.is_full_dimensional:
        return mixed_volume_base_height(first, second)
    return mixed_volume_interp(first, second)


def _mmv_sides(first: Polytope, second: Polytope):
    mv = _mixed_volume(first, second)
    n = first.dim
    return mv, mv**n, first.volume ** (n - 1) * second.volume


def bm_check(
    first: Polytope, second: Polytope, lam, digits: int = DEFAULT_DIGITS
) -> InequalityReport:
    """Concavity of V^(1/n) at one interpolation weight.

    The volume of (1-lam)K + lam L is read from the pair's volume
    polynomial.  Equality for interior weights is decided exactly from the
    three volumes:
    it holds iff a = (V(L) / V(K))^(1/n) is rational and
    V((1-lam)K + lam L) == ((1-lam) + lam a)^n V(K), which is the equality
    case itself once V(L)^(1/n) = a V(K)^(1/n) is substituted (the ratio of
    a rational homothety is rational).  The displayed slack is numeric.
    """
    lam = as_scalar(lam)
    if not 0 <= lam <= 1:
        raise LambdaRangeError(f"lambda {lam} outside [0, 1]")
    if not (first.is_full_dimensional and second.is_full_dimensional):
        raise LowerDimensionalError("concavity check needs full-dimensional bodies")
    n = first.dim
    v_mid = volume_polynomial(first, second).combination_volume(lam)
    v_first, v_second = first.volume, second.volume
    slack = root_combination(
        [(Fraction(1), v_mid, n), (lam - 1, v_first, n), (-lam, v_second, n)],
        digits,
    )
    if lam == 0 or lam == 1:
        verdict = Verdict.EQUALITY
    else:
        a = rational_nth_root(v_second / v_first, n)
        if a is not None and v_mid == (1 - lam + lam * a) ** n * v_first:
            verdict = Verdict.EQUALITY
        elif slack > -STRICTNESS_TOLERANCE:
            verdict = Verdict.STRICT
        else:
            verdict = Verdict.VIOLATION
    return InequalityReport(
        form=Form.BM,
        verdict=verdict,
        lhs_exact=None,
        rhs_exact=None,
        slack_numeric=format_fixed(slack, digits),
        quantities={
            "volume_mix": v_mid,
            "volume_first": v_first,
            "volume_second": v_second,
        },
        lam=lam,
    )


def minkowski_check(
    first: Polytope, second: Polytope, digits: int = DEFAULT_DIGITS
) -> InequalityReport:
    """Exact comparison of V_{n-1,1}(K, L)^n with V_n(K)^(n-1) V_n(L).

    Zero-volume inputs make the inequality trivial; such reports carry the
    ``degenerate`` flag and the conventional Equality verdict alongside the
    actual computed quantities.
    """
    if first.dim != second.dim:
        raise DimensionMismatchError("bodies live in different dimensions")
    mv, lhs, rhs = _mmv_sides(first, second)
    degenerate = first.volume == 0 or second.volume == 0
    if degenerate:
        verdict = Verdict.EQUALITY
    elif lhs == rhs:
        verdict = Verdict.EQUALITY
    elif lhs > rhs:
        verdict = Verdict.STRICT
    else:
        verdict = Verdict.VIOLATION
    return InequalityReport(
        form=Form.MMV,
        verdict=verdict,
        lhs_exact=lhs,
        rhs_exact=rhs,
        slack_numeric=format_fixed(Fraction(lhs - rhs), digits),
        quantities={
            "mixed_volume": mv,
            "volume_first": first.volume,
            "volume_second": second.volume,
        },
        degenerate=degenerate,
    )


def normalized_check(
    first: Polytope, second: Polytope, digits: int = DEFAULT_DIGITS
) -> InequalityReport:
    """Scale-free quotient form: V_{n-1,1}^n / (V_n(K)^(n-1) V_n(L)) vs 1.

    Equivalent to checking the inequality after normalizing both bodies to
    unit volume, without ever forming irrational rescalings.
    """
    if first.volume == 0 or second.volume == 0:
        raise ZeroVolumeError("normalized form needs positive volumes")
    mv, lhs, rhs = _mmv_sides(first, second)
    quotient = lhs / rhs
    if quotient == 1:
        verdict = Verdict.EQUALITY
    elif quotient > 1:
        verdict = Verdict.STRICT
    else:
        verdict = Verdict.VIOLATION
    return InequalityReport(
        form=Form.MMV1,
        verdict=verdict,
        lhs_exact=quotient,
        rhs_exact=Fraction(1),
        slack_numeric=format_fixed(quotient - 1, digits),
        quantities={"mixed_volume": mv, "quotient": quotient},
    )


@dataclass(frozen=True)
class MidpointCertificate:
    t_left: Fraction
    t_mid: Fraction
    t_right: Fraction
    holds: bool
    exact: bool  # True when decided by rational arithmetic alone


@dataclass(frozen=True)
class ConcavityProfile:
    samples: tuple  # (t, V_n(K_t)) pairs
    root_renderings: tuple  # fixed-point strings of the n-th roots
    certificates: tuple  # MidpointCertificate per admissible triple


def _midpoint_concavity(n, f_left, f_mid, f_right, digits):
    """Decide 2 f_mid^(1/n) >= f_left^(1/n) + f_right^(1/n)."""
    if n == 2:
        # Square twice: 4A >= B + C + 2 sqrt(BC) with A=f_mid.
        rest = 4 * f_mid - f_left - f_right
        if rest < 0:
            return False, True
        return rest**2 >= 4 * f_left * f_right, True
    slack = root_combination(
        [
            (Fraction(2), f_mid, n),
            (Fraction(-1), f_left, n),
            (Fraction(-1), f_right, n),
        ],
        digits,
    )
    return slack >= -STRICTNESS_TOLERANCE, False


def default_lambda_grid():
    return tuple(Fraction(k, 8) for k in range(9))


def concavity_profile(
    first: Polytope, second: Polytope, grid=None, digits: int = DEFAULT_DIGITS
) -> ConcavityProfile:
    """Exact volume profile f(t) = V_n((1-t)K + tL), read from the pair's
    volume polynomial, with midpoint certificates."""
    if not (first.is_full_dimensional and second.is_full_dimensional):
        raise LowerDimensionalError("profile needs full-dimensional bodies")
    grid = default_lambda_grid() if grid is None else tuple(as_scalar(t) for t in grid)
    if any(t < 0 or t > 1 for t in grid):
        raise LambdaRangeError("grid values must lie in [0, 1]")
    n = first.dim
    poly = volume_polynomial(first, second)
    samples = tuple((t, poly.combination_volume(t)) for t in grid)
    roots = tuple(format_fixed(nth_root_fraction(f, n, digits), digits) for _, f in samples)
    certs = []
    for i in range(len(samples) - 2):
        (t1, f1), (t2, f2), (t3, f3) = samples[i : i + 3]
        if 2 * t2 != t1 + t3:
            continue
        holds, exact = _midpoint_concavity(n, f1, f2, f3, digits)
        certs.append(MidpointCertificate(t1, t2, t3, holds, exact))
    return ConcavityProfile(samples, roots, tuple(certs))


def _expand_profile_polynomial(coeffs):
    """Coefficients of f(t) = (1-t)^n g(t / (1-t)) for g with given coefficients.

    f(t) = sum_i c_i t^i (1-t)^(n-i), expanded exactly via binomials.
    """
    n = len(coeffs) - 1
    out = [Fraction(0)] * (n + 1)
    for i, c in enumerate(coeffs):
        for j in range(n - i + 1):
            out[i + j] += c * comb(n - i, j) * (-1) ** j
    return tuple(out)


def profile_polynomial(first: Polytope, second: Polytope):
    """Exact coefficients of t -> V_n((1-t)K + tL)."""
    return _expand_profile_polynomial(volume_polynomial(first, second).coefficients)


def derivative_identity_check(first: Polytope, second: Polytope) -> Fraction:
    """Difference between the two routes to f'(0); must be exactly zero.

    Route one expands f(t) = (1-t)^n V_n(K + t/(1-t) L) symbolically from the
    interpolated volume polynomial and reads the linear coefficient.  Route
    two evaluates -n V_n(K) + n V_{n-1,1}(K, L) with the base-height mixed
    volume.
    """
    if not first.is_full_dimensional:
        raise LowerDimensionalError("derivative identity needs full-dimensional first body")
    symbolic = profile_polynomial(first, second)[1]
    n = first.dim
    independent = -n * first.volume + n * mixed_volume_base_height(first, second)
    return symbolic - independent


@dataclass(frozen=True)
class DecompositionTrace:
    """V_n(K_t) split through second-argument linearity, with the two
    mixed-volume lower bounds that drive concavity."""

    t: Fraction
    volume_mix: Fraction
    term_first: Fraction  # V_{n-1,1}(K_t, K)
    term_second: Fraction  # V_{n-1,1}(K_t, L)
    identity_holds: bool
    bound_first_holds: bool
    bound_second_holds: bool


def mmv_implies_bm_trace(first: Polytope, second: Polytope, t) -> DecompositionTrace:
    """Verify V_{n-1,1}(K_t, K_t) = (1-t) V_{n-1,1}(K_t, K) + t V_{n-1,1}(K_t, L)
    exactly, plus the mixed-volume inequality for each term."""
    t = as_scalar(t)
    if not 0 <= t <= 1:
        raise LambdaRangeError(f"t {t} outside [0, 1]")
    if not (first.is_full_dimensional and second.is_full_dimensional):
        raise LowerDimensionalError("decomposition needs full-dimensional bodies")
    n = first.dim
    mid = combine(1 - t, first, t, second)
    term_first = mixed_volume_base_height(mid, first)
    term_second = mixed_volume_base_height(mid, second)
    v_mid = mid.volume
    identity = v_mid == (1 - t) * term_first + t * term_second
    bound_first = term_first**n >= v_mid ** (n - 1) * first.volume
    bound_second = term_second**n >= v_mid ** (n - 1) * second.volume
    return DecompositionTrace(
        t, v_mid, term_first, term_second, identity, bound_first, bound_second
    )
