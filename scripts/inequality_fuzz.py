#!/usr/bin/env python3
"""Seeded fuzz sweep over random polytope pairs: counts Strict vs Equality
verdicts and exits 4 if a Violation ever appears (it must not), if the
two routes to the equality case disagree, or if the equality diagnosis
does: every Strict pair needs a refutation at lambda 0 with body index 0
(the default grid's first value below 1), and every Equality pair a
homothety witness, a copy's own (ratio, shift).

Each pair gets the mixed-volume check and the Brunn-Minkowski check at
lambda = 1/2.  Each random body is the hull of ``--vertices`` random points
(default dim + 3); with more points, most of a pair's vertex sums are not
vertices of K + L.  Both verdicts are exact signs: mmv's of a rational
difference, bm's of a sum of n-th roots of its three volumes, which
does not depend on the digits displayed.  Every fifth pair is a body
and a scaled, translated copy of it, so Equality occurs too.  ``--digits``
sets the digits the bm check's slack is rendered at; its sign bracket
starts 10 guard digits past them and refines from there.

Usage: python3 scripts/inequality_fuzz.py [--pairs N] [--dim {2,3,4}] [--seed S] [--digits D]
                                         [--vertices V]
"""

import argparse
import random
import sys
from fractions import Fraction

from convexkit.bodies import random_polytope
from convexkit.geometry import scale, translate
from convexkit.homothety import HomothetyWitness, detect_homothety, strict_refutation
from convexkit.inequalities import Verdict, bm_check, minkowski_check
from convexkit.numeric import DEFAULT_DIGITS

EXIT_VIOLATION = 4


def _fail(message, first, second):
    print(f"{message} -- this is an implementation bug", file=sys.stderr)
    print("first:", first.vertices, file=sys.stderr)
    print("second:", second.vertices, file=sys.stderr)
    sys.exit(EXIT_VIOLATION)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--dim", type=int, default=2, choices=[2, 3, 4])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    parser.add_argument("--vertices", type=int, default=None, help="random points per body (default dim + 3)")
    args = parser.parse_args(argv)
    size = args.dim + 3 if args.vertices is None else args.vertices

    rng = random.Random(args.seed)
    counts = {Verdict.STRICT: 0, Verdict.EQUALITY: 0}
    for i in range(args.pairs):
        first = random_polytope(args.dim, size, rng)
        copy = None
        if i % 5 == 4:
            ratio = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            shift = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(args.dim))
            second = translate(scale(first, ratio), shift)
            copy = HomothetyWitness(ratio, shift)
        else:
            second = random_polytope(args.dim, size, rng)
        mmv = minkowski_check(first, second).verdict
        bm = bm_check(first, second, Fraction(1, 2), args.digits).verdict
        if Verdict.VIOLATION in (mmv, bm):
            _fail("VIOLATION", first, second)
        if mmv is not bm:
            _fail(f"bm gave {bm.value} but mmv gave {mmv.value}", first, second)
        if mmv is Verdict.STRICT:
            ref = strict_refutation(first, second)
            if ref is None or (ref["lambda"], ref.get("body_index")) != (0, 0):
                _fail(f"Strict pair refuted by {ref}", first, second)
        else:
            witness = detect_homothety(first, second).witness
            if witness is None or copy not in (None, witness):
                _fail(f"Equality pair has witness {witness}, built as {copy}", first, second)
        counts[mmv] += 1
    print(f"{args.pairs} pairs in dimension {args.dim} (seed {args.seed}, {args.digits} digits):")
    print(f"  Strict:   {counts[Verdict.STRICT]}")
    print(f"  Equality: {counts[Verdict.EQUALITY]}")


if __name__ == "__main__":
    main()
