"""Differential test of the integer predicates under every hull against the
Leibniz determinant in ``oracles``.

``mat_det`` is checked on square matrices of sizes 1 to 5, ``cross_normal``
on n - 1 rows of length n = 2 to 5, whose entry j is (-1)^j times the
determinant of the rows without column j, and ``dot`` against a plain loop
and, paired with ``cross_normal``, as the Laplace expansion of a
determinant along its first row.  Entries are all ints or all Fractions,
small or of 300 bits, and zero, repeated and rank-deficient rows are mixed
in.  The hull runs on integer rows, so every result must keep the entry
type.  Two seeded checks cover the 4D kernel's sizes at the bit lengths of
lifted rows: the cross normal of four rows of length 5, and 6 x 6
determinants, which ``mat_det`` reaches only through ``cross_normal``.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit.linalg import cross_normal, dot, mat_det

from oracles import leibniz_det

BIG = 2**300


def scalars(kind):
    if kind is int:
        return st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
    return st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
    )


@st.composite
def row_sets(draw, widths, extra_rows):
    """(entry type, rows): ``extra_rows`` + width rows of one drawn width,
    some of them replaced by a zero row, a repeat of an earlier row or a
    combination c r_i + r_j of two earlier rows."""
    kind = draw(st.sampled_from([int, F]))
    width = draw(widths)
    entry = scalars(kind)
    rows = []
    for k in range(width + extra_rows):
        shape = draw(st.sampled_from(["free", "free", "free", "zero", "repeat", "combination"]))
        if shape == "zero":
            row = [kind(0)] * width
        elif shape == "repeat" and k:
            row = rows[draw(st.integers(0, k - 1))]
        elif shape == "combination" and k:
            c = draw(entry)
            a, b = (rows[draw(st.integers(0, k - 1))] for _ in range(2))
            row = [c * x + y for x, y in zip(a, b)]
        else:
            row = draw(st.lists(entry, min_size=width, max_size=width))
        rows.append(tuple(row))
    return kind, rows


@settings(max_examples=300, deadline=None)
@given(row_sets(st.integers(1, 5), 0))
def test_mat_det_matches_leibniz(case):
    kind, rows = case
    det = mat_det(rows)
    assert det == leibniz_det(rows)
    assert type(det) is kind
    if len(rows) > 1:
        # Laplace expansion along the first row.
        expansion = dot(rows[0], cross_normal(rows[1:]))
        assert expansion == det
        assert type(expansion) is kind


@settings(max_examples=300, deadline=None)
@given(row_sets(st.integers(2, 5), -1))
def test_cross_normal_matches_leibniz_minors(case):
    kind, rows = case
    h = cross_normal(rows)
    minors = ([row[:j] + row[j + 1 :] for row in rows] for j in range(len(rows[0])))
    assert h == tuple((-1) ** j * leibniz_det(m) for j, m in enumerate(minors))
    assert all(type(x) is kind for x in h)
    # Orthogonal to every row: a matrix with a repeated row is singular.
    assert all(dot(h, row) == 0 for row in rows)


@settings(max_examples=200, deadline=None)
@given(row_sets(st.integers(1, 5), 0))
def test_dot_matches_a_plain_loop(case):
    kind, rows = case
    for u in rows:
        for v in rows:
            total = kind(0)
            for a, b in zip(u, v):
                total = total + a * b
            value = dot(u, v)
            assert value == total
            assert type(value) is kind


def seeded_rows(rng, count, width, bits):
    """``count`` integer rows of ``width`` mixed-sign ``bits``-bit entries,
    some of them replaced by a zero row, a repeat of an earlier row or a
    combination c r_i + r_j of two earlier rows."""
    rows = []
    for k in range(count):
        shape = rng.choice(["free"] * 6 + ["zero", "repeat", "combination"])
        if shape == "zero":
            row = (0,) * width
        elif shape == "repeat" and k:
            row = rng.choice(rows)
        elif shape == "combination" and k:
            c = rng.randint(-(2**bits), 2**bits)
            a, b = rng.choice(rows), rng.choice(rows)
            row = tuple(c * x + y for x, y in zip(a, b))
        else:
            row = tuple(rng.randint(-(2**bits), 2**bits) for _ in range(width))
        rows.append(row)
    return rows


def test_cross_normal_of_four_rows_of_length_5_matches_leibniz():
    # The cross normal of every 4D simplex's lifted rows.
    rng = random.Random("cross-normal-5")
    for bits in (3, 9, 27, 61):
        for _ in range(500):
            rows = seeded_rows(rng, 4, 5, bits)
            minors = ([row[:j] + row[j + 1 :] for row in rows] for j in range(5))
            h = cross_normal(rows)
            assert h == tuple((-1) ** j * leibniz_det(m) for j, m in enumerate(minors))
            assert all(type(x) is int for x in h)


def test_mat_det_of_6_by_6_matches_leibniz():
    rng = random.Random("mat-det-6")
    for bits in (3, 61):
        for _ in range(40):
            rows = seeded_rows(rng, 6, 6, bits)
            det = mat_det(rows)
            assert det == leibniz_det(rows)
            assert type(det) is int
