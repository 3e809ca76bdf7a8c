#!/usr/bin/env python3
"""Print a Steiner rounding trace: exact volume stays fixed while the
isoperimetric ratio drifts toward 1 (reported, never asserted).

Usage: python3 scripts/rounding_demo.py [--steps N]
"""

import argparse
from fractions import Fraction

from convexkit.bodies import standard_simplex
from convexkit.steiner import rounding_iteration


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=8)
    args = parser.parse_args()

    schedule = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]
    print(f"{'step':>4}  {'direction':>12}  {'volume':>8}  {'perimeter^2/(4 pi area)':>24}")
    for step, w, vol, ratio in rounding_iteration(standard_simplex(2), schedule, args.steps):
        d = "-" if w is None else f"({w[0]},{w[1]})"
        print(f"{step:>4}  {d:>12}  {str(vol):>8}  {ratio:>24.9f}")


if __name__ == "__main__":
    main()
