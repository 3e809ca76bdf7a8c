"""High-precision decimal rendering of exact quantities.

Verdicts are always decided on exact rationals; the strings produced here
exist only for reports, slack displays and tolerance checks.  Everything is
computed with integer arithmetic (floor semantics), so renderings are
deterministic across platforms.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import integer_nth_root

DEFAULT_DIGITS = 50
_GUARD = 10  # extra digits carried through intermediate roots


def format_fixed(q: Fraction, digits: int = DEFAULT_DIGITS) -> str:
    """Render a rational in fixed-point notation, truncated toward zero."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = (q.numerator * 10**digits) // q.denominator
    s = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"


def nth_root_fraction(q: Fraction, n: int, digits: int = DEFAULT_DIGITS) -> Fraction:
    """Rational lower approximation of q**(1/n), within 10**-digits."""
    if q < 0:
        raise ValueError("negative radicand")
    scale = 10**digits
    r = integer_nth_root((q.numerator * scale**n) // q.denominator, n)
    return Fraction(r, scale)


def sqrt_fraction(q: Fraction, digits: int = DEFAULT_DIGITS) -> Fraction:
    return nth_root_fraction(q, 2, digits)


def root_combination(
    terms: list[tuple[Fraction, Fraction, int]], digits: int = DEFAULT_DIGITS
) -> Fraction:
    """Evaluate sum of c * q**(1/n) terms to roughly ``digits`` digits.

    Each root is truncated at digits + guard, so the absolute error is
    bounded by (number of terms) * max|c| * 10**-(digits + guard).
    """
    total = Fraction(0)
    for coeff, radicand, n in terms:
        total += coeff * nth_root_fraction(radicand, n, digits + _GUARD)
    return total
