"""Small exact linear algebra kernel.

Scalars are ``fractions.Fraction``; vectors are plain tuples.  The hull
predicates also run on lifted rows, integer tuples (X_1, ..., X_n, d) that
stand for the rational points X / d, so every routine here is written to
preserve the entry type: determinants use division-free minor expansion,
and ``independent_rows`` is the one elimination loop, fraction-free.  Ranks
count its kept rows, and ``solve`` back-substitutes over them into one
(numerators, den) pair; only the explicitly named helpers use Fractions.

The hull's predicates are straight-line code up to 4D.  ``cross_normal``
has closed forms for three rows of length 4 and four rows of length 5, the
cross normals of every 3D and 4D simplex, built on the 2 x 2 minors of the
last two rows (and, for length 5, the 3 x 3 minors of the last three).
``mat_det`` has closed forms up to 3 x 3; a larger determinant is one
Laplace step, its first row dotted with the cross normal of the other
rows, so 4 x 4 and 5 x 5 ones are closed forms too, and larger sizes
recurse through ``cross_normal``'s loop over columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

def as_scalar(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def as_vec(v) -> tuple:
    return tuple(as_scalar(x) for x in v)


def unit_vector(n: int, i: int, length=1) -> tuple:
    """length * e_i in R^n."""
    return tuple(as_scalar(length) if k == i else Fraction(0) for k in range(n))


def dot(u, v):
    return sum(map(mul, u, v))


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
    """Determinant by minor expansion; division-free, entry type preserved.

    Sizes 1 to 3 are closed forms.  From 4 x 4 up a determinant is one
    Laplace step: its first row dotted with the ``cross_normal`` of the
    other rows, a closed form for 4 x 4 and 5 x 5 matrices.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return det2(rows[0][0], rows[0][1], rows[1][0], rows[1][1])
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return sum(map(mul, rows[0], cross_normal(rows[1:])))


def cross_normal(rows):
    """Generalized cross product of n-1 vectors in R^n.

    Returns the vector of signed maximal minors: entry j is (-1)^j times
    the determinant of the rows without column j.  It is orthogonal to every
    input row and its euclidean length equals the (n-1)-volume of the
    parallelotope the rows span.

    For three rows a, b, c of length 4, the cross normal of every 3D
    simplex's lifted rows, the closed form takes the six 2 x 2 minors
    m_pq = b_p c_q - b_q c_p once; each entry is then three products, the
    expansion of its 3 x 3 minor along a.  For four rows a, b, c, d of
    length 5, every 4D simplex's, it takes the ten 2 x 2 minors m_pq of
    c and d, then the ten 3 x 3 minors m_pqr = b_p m_qr - b_q m_pr + b_r m_pq
    of b, c and d; each entry is then four products, the expansion of its
    4 x 4 minor along a: 70 multiplications in all.  Other lengths take
    one ``mat_det`` per column.
    """
    n = len(rows[0])
    if n == 5:
        (
            (a0, a1, a2, a3, a4),
            (b0, b1, b2, b3, b4),
            (c0, c1, c2, c3, c4),
            (d0, d1, d2, d3, d4),
        ) = rows
        m01 = c0 * d1 - c1 * d0
        m02 = c0 * d2 - c2 * d0
        m03 = c0 * d3 - c3 * d0
        m04 = c0 * d4 - c4 * d0
        m12 = c1 * d2 - c2 * d1
        m13 = c1 * d3 - c3 * d1
        m14 = c1 * d4 - c4 * d1
        m23 = c2 * d3 - c3 * d2
        m24 = c2 * d4 - c4 * d2
        m34 = c3 * d4 - c4 * d3
        m012 = b0 * m12 - b1 * m02 + b2 * m01
        m013 = b0 * m13 - b1 * m03 + b3 * m01
        m014 = b0 * m14 - b1 * m04 + b4 * m01
        m023 = b0 * m23 - b2 * m03 + b3 * m02
        m024 = b0 * m24 - b2 * m04 + b4 * m02
        m034 = b0 * m34 - b3 * m04 + b4 * m03
        m123 = b1 * m23 - b2 * m13 + b3 * m12
        m124 = b1 * m24 - b2 * m14 + b4 * m12
        m134 = b1 * m34 - b3 * m14 + b4 * m13
        m234 = b2 * m34 - b3 * m24 + b4 * m23
        return (
            a1 * m234 - a2 * m134 + a3 * m124 - a4 * m123,
            a2 * m034 - a0 * m234 - a3 * m024 + a4 * m023,
            a0 * m134 - a1 * m034 + a3 * m014 - a4 * m013,
            a1 * m024 - a0 * m124 - a2 * m014 + a4 * m012,
            a0 * m123 - a1 * m023 + a2 * m013 - a3 * m012,
        )
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        m01 = b0 * c1 - b1 * c0
        m02 = b0 * c2 - b2 * c0
        m03 = b0 * c3 - b3 * c0
        m12 = b1 * c2 - b2 * c1
        m13 = b1 * c3 - b3 * c1
        m23 = b2 * c3 - b3 * c2
        return (
            a1 * m23 - a2 * m13 + a3 * m12,
            a2 * m03 - a0 * m23 - a3 * m02,
            a0 * m13 - a1 * m03 + a3 * m01,
            a1 * m02 - a0 * m12 - a2 * m01,
        )
    out = []
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows]
        m = mat_det(minor)
        out.append(m if j % 2 == 0 else -m)
    return tuple(out)


def independent_rows(rows) -> list:
    """(index, pivot column, reduced row) of each row of ``rows`` that is
    independent of the rows kept before it; stops once the kept rows span the
    row space.

    Each row is reduced once, fraction-free, against the kept rows: a kept
    row b with pivot j turns v into b[j] v - v[j] b, so integer rows stay
    integer.  Each kept row is zero at the pivots of the rows kept before it,
    so the kept rows are triangular on their distinct pivot columns.
    """
    kept = []
    for i, v in enumerate(rows):
        for _, j, b in kept:
            if v[j]:
                v = [b[j] * x - v[j] * y for x, y in zip(v, b)]
        j = next((j for j, x in enumerate(v) if x), None)
        if j is not None:
            kept.append((i, j, v))
            if len(kept) == len(v):
                break
    return kept


def mat_rank(rows) -> int:
    """Rank over the rationals: the number of rows ``independent_rows`` keeps."""
    return len(independent_rows(rows))


def solve(rows, rhs):
    """Solve a consistent linear system A x = b exactly.

    ``rows`` may be rectangular (m >= n); returns the unique solution as
    the integer pair (numerators, den), unknown k being numerators[k] / den
    with den > 0, or None when the system is singular/inconsistent.  The
    augmented rows (A | b) go through ``independent_rows``: a unique
    solution needs n kept rows with no pivot on b, and back-substitution
    over them in reverse order meets each pivot unknown after all the
    unknowns its row also holds.  It keeps the unknowns found so far as
    numerators over one common denominator, so integer rows back-substitute
    in integers and no Fraction is built; the pair is not reduced.
    """
    n = len(rows[0])
    kept = independent_rows([[*row, b] for row, b in zip(rows, rhs)])
    if len(kept) != n or any(j == n for _, j, _ in kept):
        return None
    x, den = {}, 1  # unknown k is x[k] / den
    for _, j, b in reversed(kept):
        num = b[n] * den - sum(b[k] * v for k, v in x.items())
        for k in x:
            x[k] *= b[j]
        x[j] = num
        den *= b[j]
    sign = 1 if den > 0 else -1
    return tuple(sign * x[j] for j in range(n)), sign * den


def tree_sum(terms) -> tuple[int, int]:
    """The exact sum of n / d over integer pairs (n, d), d != 0, as one
    unreduced integer pair; each caller folds its own divisor into the pair
    and builds one Fraction, if any.

    Pairs are added by pairwise halving over the lcm of their denominators,
    (a, b) + (c, d) = (a d / g + c b / g, b d / g) for g = gcd(b, d), with no
    reduction on the way.  Each level's denominators divide the lcm of the
    ones below it, so terms sharing small denominators stay small, and
    terms with unrelated ones, like a 400-gon's, meet in a balanced tree
    rather than in one running total that grows with every term.
    """
    terms = list(terms) or [(0, 1)]
    while len(terms) > 1:
        paired = []
        for (a, b), (c, d) in zip(terms[::2], terms[1::2]):
            g = gcd(b, d)
            paired.append((a * (d // g) + c * (b // g), b // g * d))
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0]


def over_common_denominator(values) -> tuple[int, list[int]]:
    """(D, [x * D for each x]) for D the lcm of the rationals' denominators."""
    common = lcm(*(x.denominator for x in values))
    return common, [x.numerator * (common // x.denominator) for x in values]


def primitive_int_vector(v) -> tuple:
    """Divide a nonzero integer vector by the gcd of its entries, keeping its sign."""
    g = gcd(*v)
    return tuple(x // g for x in v)


def integer_nth_root(x: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer.

    Newton's method starts just above the root.  The float n-th root of
    y = x >> (n k), x's top min(40 n, 960) bits, is below 2**40, where the
    rounding of y, of 1/n and of the power leave it off by less than 1; as
    x^(1/n) < (y + 1)^(1/n) 2^k <= (y^(1/n) + 1) 2^k, (that root + 3) << k
    is an upper bound with about 38 correct bits, and a 600-bit cube root
    takes 3 steps.  The float only picks the starting point: the exact
    bracket r^n <= x < (r+1)^n decides the result.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    if n == 1:
        return x
    k = max(0, (x.bit_length() - min(40 * n, 960) + n - 1) // n)
    r = (int(float(x >> (n * k)) ** (1.0 / n)) + 3) << k
    while True:
        q = r ** (n - 1)
        if q * r > x:
            r = ((n - 1) * r + x // q) // n
        elif x < (r + 1) ** n:
            return r
        else:
            r += 1


def rational_nth_root(q: Fraction, n: int):
    """Exact n-th root of a nonnegative rational, or None if irrational."""
    num = integer_nth_root(q.numerator, n)
    den = integer_nth_root(q.denominator, n)
    if num**n == q.numerator and den**n == q.denominator:
        return Fraction(num, den)
    return None
