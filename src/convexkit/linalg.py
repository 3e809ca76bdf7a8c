"""Small exact linear algebra kernel.

Scalars are ``fractions.Fraction``; vectors are plain tuples.  The hull
predicates also run on integer tuples (rescaled copies of rational points),
so every routine here is written to preserve the entry type: determinants
use division-free minor expansion, and only the explicitly named helpers
convert to Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

def as_scalar(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def as_vec(v) -> tuple:
    return tuple(as_scalar(x) for x in v)


def vec(*coords) -> tuple:
    """Convenience constructor: vec(1, "1/2") -> (Fraction(1), Fraction(1, 2))."""
    return as_vec(coords)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


def det2(a, b, c, d):
    return a * d - b * c


def mat_det(rows):
    """Determinant by minor expansion; division-free, entry type preserved."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return det2(rows[0][0], rows[0][1], rows[1][0], rows[1][1])
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * mat_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def cross_normal(rows):
    """Generalized cross product of n-1 vectors in R^n.

    Returns the vector of signed maximal minors; it is orthogonal to every
    input row and its euclidean length equals the (n-1)-volume of the
    parallelotope the rows span.
    """
    n = len(rows[0])
    out = []
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows]
        m = mat_det(minor)
        out.append(m if j % 2 == 0 else -m)
    return tuple(out)


def _eliminate(a, ncols) -> list:
    """Gauss-Jordan elimination in place on the Fraction rows ``a`` over their
    first ``ncols`` columns; returns the pivot columns, one per leading row.

    Stops as soon as every row holds a pivot.
    """
    m = len(a)
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = None
        for i in range(rank, m):
            if a[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        pivots.append(col)
        if rank + 1 == m:
            break
    return pivots


def mat_rank(rows) -> int:
    """Rank over the rationals (Gaussian elimination on Fraction copies)."""
    a = [[as_scalar(x) for x in row] for row in rows]
    if not a:
        return 0
    return len(_eliminate(a, len(a[0])))


def solve(rows, rhs):
    """Solve a consistent linear system A x = b exactly.

    ``rows`` may be rectangular (m >= n); returns the unique solution tuple
    or None when the system is singular/inconsistent.
    """
    m, n = len(rows), len(rows[0])
    a = [[as_scalar(x) for x in rows[i]] + [as_scalar(rhs[i])] for i in range(m)]
    if len(_eliminate(a, n)) < n:
        return None
    # Full column rank puts the pivots on columns 0..n-1 of rows 0..n-1;
    # a nonzero right-hand side below them makes the system inconsistent.
    if any(a[i][n] != 0 for i in range(n, m)):
        return None
    return tuple(a[i][n] for i in range(n))


def gram_matrix(basis):
    return tuple(tuple(dot(u, v) for v in basis) for u in basis)


def tree_sum(values):
    """Sum by pairwise halving.

    Equivalent to sum() but far faster for long sequences of Fractions with
    unrelated denominators, where a running total keeps renormalizing an
    ever-growing denominator.
    """
    vals = list(values)
    if not vals:
        return 0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def lcm_denominators(points, bit_limit=None) -> int:
    """lcm of all coordinate denominators; bails out early past bit_limit
    (callers that only rescale when the lcm is small need no exact value)."""
    out = 1
    for p in points:
        for x in p:
            out = lcm(out, x.denominator)
            if bit_limit is not None and out.bit_length() > bit_limit:
                return out
    return out


def primitive_int_vector(v) -> tuple:
    """Scale a rational vector to a primitive integer vector, keeping its sign."""
    scale = 1
    for x in v:
        scale = lcm(scale, as_scalar(x).denominator)
    ints = [int(x * scale) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def integer_nth_root(x: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    if n == 1:
        return x
    if x.bit_length() <= 52:
        r = int(round(x ** (1.0 / n)))
    else:
        r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        p = r**n
        if p <= x < (r + 1) ** n:
            return r
        if p > x:
            r = (r * (n - 1) + x // r ** (n - 1)) // n
        else:
            r += 1


def rational_nth_root(q: Fraction, n: int):
    """Exact n-th root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    num = integer_nth_root(q.numerator, n)
    den = integer_nth_root(q.denominator, n)
    if num**n == q.numerator and den**n == q.denominator:
        return Fraction(num, den)
    return None
