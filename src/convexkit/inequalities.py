"""Volume-concavity and mixed-volume inequality checkers.

The n-th root of volume is concave along Minkowski interpolation, and
equivalently V_{n-1,1}(K, L)^n >= V_n(K)^(n-1) V_n(L); for full-dimensional
bodies equality holds exactly when K and L are homothetic.  Every verdict is
the exact sign of left side minus right side, through one table: the
mixed-volume forms subtract rational powers, and the Brunn-Minkowski form
and the midpoint certificates sign a sum of n-th roots of volumes with
`numeric.signed_root_combination`.  The Brunn-Minkowski form reads the
volume of (1-lam)K + lam L from the pair's volume polynomial, not from K's
facets, so its verdict and the mixed-volume verdict are independent routes
to the same answer.  Numeric slack strings (50 digits by default) are for
display only and never change a verdict.  A Violation verdict is a bug
signal, never a legitimate outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .errors import ZeroVolumeError
from .geometry import Polytope, _check_full_dimensional, _check_pair_dim
from .numeric import DEFAULT_DIGITS, format_fixed, nth_root_fraction, signed_root_combination
from .volumes import (
    _interpolated_polynomial,
    as_lambda,
    combine,
    mixed_volume_base_height,
    mixed_volume_interp,
    volume_polynomial,
)


class Verdict(enum.Enum):
    STRICT = "Strict"
    EQUALITY = "Equality"
    VIOLATION = "Violation"


# Verdict for the sign of (left side - right side).
_VERDICTS = {1: Verdict.STRICT, 0: Verdict.EQUALITY, -1: Verdict.VIOLATION}


def _verdict(difference: Fraction) -> Verdict:
    return _VERDICTS[(difference > 0) - (difference < 0)]


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


def _mmv_sides(first: Polytope, second: Polytope):
    """V_{n-1,1}(K, L) and the sides V_{n-1,1}^n and V_n(K)^(n-1) V_n(L)."""
    route = mixed_volume_base_height if first.is_full_dimensional else mixed_volume_interp
    mv = route(first, second)
    n = first.dim
    return mv, mv**n, first.volume ** (n - 1) * second.volume


def bm_check(
    first: Polytope, second: Polytope, lam, digits: int = DEFAULT_DIGITS
) -> InequalityReport:
    """Concavity of V^(1/n) at one interpolation weight.

    lam is checked once, here, and the volume of (1-lam)K + lam L is read
    from the pair's volume polynomial at it.  The verdict is the exact sign
    of the slack V((1-lam)K + lam L)^(1/n) - (1-lam) V(K)^(1/n) -
    lam V(L)^(1/n), from `signed_root_combination`: 0 (Equality) exactly when the three volumes'
    roots cancel by radical class, which at lam = 0 or 1 they always do.
    The displayed slack is that sum rendered at ``digits``, or exactly 0 when
    the sign is 0, so an Equality never shows the floored roots' "-0.000";
    the digit count does not change the verdict.
    """
    _check_pair_dim(first, second)
    lam = as_lambda(lam)
    _check_full_dimensional(first, second)
    n = first.dim
    v_mid = volume_polynomial(first, second)._combination_volume(lam)
    v_first, v_second = first.volume, second.volume
    sign, slack = signed_root_combination(
        [(Fraction(1), v_mid, n), (lam - 1, v_first, n), (-lam, v_second, n)],
        digits,
    )
    return InequalityReport(
        form=Form.BM,
        verdict=_VERDICTS[sign],
        lhs_exact=None,
        rhs_exact=None,
        slack_numeric=format_fixed(slack if sign else Fraction(0), digits),
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
    _check_pair_dim(first, second)
    mv, lhs, rhs = _mmv_sides(first, second)
    degenerate = first.volume == 0 or second.volume == 0
    return InequalityReport(
        form=Form.MMV,
        verdict=_verdict(0 if degenerate else lhs - rhs),
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
    _check_pair_dim(first, second)
    if first.volume == 0 or second.volume == 0:
        raise ZeroVolumeError("normalized form needs positive volumes")
    mv, lhs, rhs = _mmv_sides(first, second)
    quotient = lhs / rhs
    return InequalityReport(
        form=Form.MMV1,
        verdict=_verdict(quotient - 1),
        lhs_exact=quotient,
        rhs_exact=Fraction(1),
        slack_numeric=format_fixed(quotient - 1, digits),
        quantities={"mixed_volume": mv, "quotient": quotient},
    )


@dataclass(frozen=True)
class ConcavityProfile:
    samples: tuple  # (t, V_n(K_t)) pairs
    root_renderings: tuple  # fixed-point strings of the n-th roots
    certificates: tuple  # per admissible triple, whether its midpoint sign is >= 0


def default_lambda_grid():
    return tuple(Fraction(k, 8) for k in range(9))


def concavity_profile(
    first: Polytope, second: Polytope, grid=None, digits: int = DEFAULT_DIGITS
) -> ConcavityProfile:
    """Exact volume profile f(t) = V_n((1-t)K + tL), read from the pair's
    volume polynomial at each grid point, checked once, with midpoint
    certificates: each holds when the exact sign of
    2 f(t2)^(1/n) - f(t1)^(1/n) - f(t3)^(1/n) is not negative."""
    _check_pair_dim(first, second)
    _check_full_dimensional(first, second)
    grid = tuple(map(as_lambda, default_lambda_grid() if grid is None else grid))
    n = first.dim
    poly = volume_polynomial(first, second)
    samples = tuple((t, poly._combination_volume(t)) for t in grid)
    roots = tuple(format_fixed(nth_root_fraction(f, n, digits), digits) for _, f in samples)
    certs = []
    for i in range(len(samples) - 2):
        (t1, f1), (t2, f2), (t3, f3) = samples[i : i + 3]
        if 2 * t2 != t1 + t3:
            continue
        terms = [(Fraction(2), f2, n), (Fraction(-1), f1, n), (Fraction(-1), f3, n)]
        sign, _ = signed_root_combination(terms, digits)
        certs.append(sign >= 0)
    return ConcavityProfile(samples, roots, tuple(certs))


def profile_polynomial(first: Polytope, second: Polytope):
    """Exact coefficients of t -> V_n((1-t)K + tL).

    f(t) = (1-t)^n g(t / (1-t)) = sum_i c_i t^i (1-t)^(n-i) for the volume
    polynomial g with coefficients c_i, expanded exactly via binomials on
    the integer numerators of the c_i, with one Fraction built per output
    coefficient over their denominator.  g is interpolated and checked on
    every call (``_interpolated_polynomial``), not read from the copy
    ``volume_polynomial`` keeps.
    """
    poly = _interpolated_polynomial(first, second)
    n = len(poly.numerators) - 1
    out = [0] * (n + 1)
    for i, c in enumerate(poly.numerators):
        for j in range(n - i + 1):
            out[i + j] += c * comb(n - i, j) * (-1) ** j
    return tuple(Fraction(c, poly.denominator) for c in out)


def derivative_identity_check(first: Polytope, second: Polytope) -> Fraction:
    """Difference between the two routes to f'(0); must be exactly zero.

    Route one expands f(t) = (1-t)^n V_n(K + t/(1-t) L) symbolically from the
    volume polynomial ``profile_polynomial`` interpolates on every call,
    and reads the linear coefficient.  Route two evaluates
    -n V_n(K) + n V_{n-1,1}(K, L) with the base-height mixed volume.
    """
    _check_pair_dim(first, second)
    _check_full_dimensional(first)
    symbolic = profile_polynomial(first, second)[1]
    n = first.dim
    independent = -n * first.volume + n * mixed_volume_base_height(first, second)
    return symbolic - independent


@dataclass(frozen=True)
class DecompositionTrace:
    """V_n(K_t) split through second-argument linearity, with the two
    mixed-volume lower bounds that drive concavity."""

    volume_mix: Fraction
    term_first: Fraction  # V_{n-1,1}(K_t, K)
    term_second: Fraction  # V_{n-1,1}(K_t, L)
    identity_holds: bool
    bound_first_holds: bool
    bound_second_holds: bool


def mmv_implies_bm_trace(first: Polytope, second: Polytope, t) -> DecompositionTrace:
    """Verify V_{n-1,1}(K_t, K_t) = (1-t) V_{n-1,1}(K_t, K) + t V_{n-1,1}(K_t, L)
    exactly, plus the mixed-volume inequality for each term."""
    _check_pair_dim(first, second)
    t = as_lambda(t)
    _check_full_dimensional(first, second)
    n = first.dim
    mid = combine(1 - t, first, t, second)
    term_first = mixed_volume_base_height(mid, first)
    term_second = mixed_volume_base_height(mid, second)
    v_mid = mid.volume
    identity = v_mid == (1 - t) * term_first + t * term_second
    bound_first = term_first**n >= v_mid ** (n - 1) * first.volume
    bound_second = term_second**n >= v_mid ** (n - 1) * second.volume
    return DecompositionTrace(v_mid, term_first, term_second, identity, bound_first, bound_second)
