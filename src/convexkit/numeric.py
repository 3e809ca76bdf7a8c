"""High-precision decimal rendering of exact quantities.

Verdicts are always decided exactly: `signed_root_combination` gives a sum
of roots its exact sign, whatever digit count is displayed, and the strings
produced here exist only for reports and slack displays.  Everything is
computed with integer arithmetic (floor semantics), so renderings are
deterministic across platforms: a sum of roots is one integer over the
common denominator of its coefficients times 10**p, built into one
Fraction at the end, and the sign bracket around it compares integers.
Every routine here refuses a negative digit count with a ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InvariantError
from .linalg import integer_nth_root, over_common_denominator, rational_nth_root

DEFAULT_DIGITS = 50
_GUARD = 10  # extra digits carried through intermediate roots
# Most digits per root that signed_root_combination refines to; past it a
# sum not yet separated from 0 is an InvariantError.
MAX_SIGN_DIGITS = 10_000


def _check_digits(digits: int) -> None:
    """Every routine here takes a digit count of at least 0."""
    if digits < 0:
        raise ValueError(f"digit count must be nonnegative, got {digits}")


def format_fixed(q: Fraction, digits: int = DEFAULT_DIGITS) -> str:
    """Render a rational in fixed-point notation, truncated toward zero."""
    _check_digits(digits)
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = (q.numerator * 10**digits) // q.denominator
    s = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"


def _floored_root(q, n: int, p: int) -> int:
    """floor(q**(1/n) * 10**p) for a nonnegative rational q."""
    return integer_nth_root((q.numerator * 10 ** (p * n)) // q.denominator, n)


def nth_root_fraction(q: Fraction, n: int, digits: int = DEFAULT_DIGITS) -> Fraction:
    """Rational lower approximation of q**(1/n), within 10**-digits."""
    _check_digits(digits)
    return Fraction(_floored_root(q, n, digits), 10**digits)


def root_combination(
    terms: list[tuple[Fraction, Fraction, int]], digits: int = DEFAULT_DIGITS
) -> Fraction:
    """Evaluate sum of c * q**(1/n) terms to roughly ``digits`` digits.

    Each root is truncated at p = digits + guard places, so the absolute
    error is bounded by (number of terms) * max|c| * 10**-p.  The sum is
    taken in integers, each coefficient's numerator over the common
    denominator D of the coefficients times its floored root, and returned
    as the one Fraction (that sum) / (D * 10**p).
    """
    _check_digits(digits)
    p = digits + _GUARD
    common, numerators = over_common_denominator([c for c, _, _ in terms])
    total = sum(a * _floored_root(q, n, p) for a, (_, q, n) in zip(numerators, terms))
    return Fraction(total, common * 10**p)


def _class_coefficients(terms) -> list[Fraction]:
    """Coefficients of sum c * q**(1/n) by radical class: with the degrees
    raised to their lcm N, q and q' share a class when q / q' is a rational
    N-th power."""
    degree = lcm(*(n for _, _, n in terms))
    classes = []  # [first radicand of the class, coefficient of its root]
    for coeff, radicand, n in terms:
        if radicand == 0:
            continue
        radicand **= degree // n
        for cls in classes:
            ratio = rational_nth_root(radicand / cls[0], degree)
            if ratio is not None:
                cls[1] += coeff * ratio
                break
        else:
            classes.append([radicand, coeff])
    return [coeff for _, coeff in classes]


def signed_root_combination(
    terms: list[tuple[Fraction, Fraction, int]], digits: int = DEFAULT_DIGITS
) -> tuple[int, Fraction]:
    """Exact sign (1, 0 or -1) of sum c * q**(1/n), with its value
    ``root_combination(terms, digits)``.

    Each root is floored at p = digits + guard places, so the sum lies in
    [value + 10**-p * (sum of c < 0), value + 10**-p * (sum of c > 0)].  If
    that bracket holds 0 and every radical class cancels, the sign is 0;
    otherwise the sum is not 0, since n-th roots of positive rationals with
    irrational pairwise ratios are linearly independent over Q (Besicovitch
    1940; Mordell 1953), and p doubles until the bracket excludes 0.  The
    bracket is compared in integers: scaled by D * 10**p, for D the common
    denominator of the coefficients, the value is the integer sum that
    ``root_combination`` divides, and the bracket's ends add to it the
    integer sums of the negative and of the positive coefficients times D.
    """
    _check_digits(digits)
    common, numerators = over_common_denominator([c for c, _, _ in terms])
    below = sum(a for a in numerators if a < 0)
    above = sum(a for a in numerators if a > 0)
    value = estimate = root_combination(terms, digits)
    p = digits + _GUARD
    while True:
        total = estimate.numerator * (common * 10**p // estimate.denominator)
        sign = (total + below > 0) - (total + above < 0)
        # The radical classes are merged once, if the first bracket holds 0.
        if sign or (p == digits + _GUARD and not any(_class_coefficients(terms))):
            return sign, value
        p *= 2
        if p > MAX_SIGN_DIGITS:
            raise InvariantError(f"sign of a root combination undecided at {MAX_SIGN_DIGITS} digits")
        estimate = root_combination(terms, p - _GUARD)
