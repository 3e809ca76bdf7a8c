#!/usr/bin/env python3
"""In-process A/B rounds of one benchmark workload on two source trees.

Each tree is a checkout with ``src/convexkit`` and ``perfbench/``.  The
script imports one tree's ``convexkit`` and ``perfbench/workloads.py``,
builds the workload, then clears those modules from ``sys.modules`` and
does the same for the other tree, so both run side by side in one
process, each on its own code.  Each tree is warmed with two passes.
Every round then times one whole pass on each tree, and the tree that
goes first alternates from round to round, so a slow spell of a shared
host lands on both sides.  Every workload is built from seed 3.  A task
that fails ends the script with exit 1.

It prints each tree's median pass time, the speedup of NEW over OLD (the
ratio of the medians, minus 1) and the number of rounds NEW won.  It reads
``perfbench/`` and writes only body files under a temporary directory.
For the benchmark's own end-to-end figures run ``perfbench/run.py``.

Usage: python3 scripts/ab_passes.py OLD NEW --workload W [--rounds N]
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

WARM_PASSES = 2
SEED = 3
TREE_MODULES = ("convexkit", "workloads", "tracer", "hostspeed")


def load_workload(tree: Path, name: str, seed: int, workdir: str):
    """The workload ``name`` built from ``tree``'s own modules, which are
    then dropped from ``sys.modules``; the workload keeps them alive."""
    paths = [str(tree / "src"), str(tree / "perfbench")]
    sys.path[:0] = paths
    try:
        import workloads

        workload = workloads.WORKLOADS[name](seed, workdir)
    finally:
        del sys.path[: len(paths)]
        for module in list(sys.modules):
            if module.split(".")[0] in TREE_MODULES:
                del sys.modules[module]
    return workload


def one_pass(workload) -> float:
    start = time.perf_counter()
    for task in workload.tasks:
        workload.run(task)
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path, help="the baseline tree")
    p.add_argument("new", type=Path, help="the tree under test")
    p.add_argument("--workload", required=True, help="a workload name from perfbench/workloads.py")
    p.add_argument("--rounds", type=int, default=20)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
        trees = [
            load_workload(args.old.resolve(), args.workload, SEED, old_dir),
            load_workload(args.new.resolve(), args.workload, SEED, new_dir),
        ]
        for workload in trees:
            for _ in range(WARM_PASSES):
                one_pass(workload)
        times = ([], [])
        for k in range(args.rounds):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                times[side].append(one_pass(trees[side]))

    old_s, new_s = map(statistics.median, times)
    won = sum(new < old for old, new in zip(*times))
    print(f"workload {args.workload}, seed {SEED}, {args.rounds} rounds")
    print(f"OLD {args.old}: median pass {1000 * old_s:.1f} ms")
    print(f"NEW {args.new}: median pass {1000 * new_s:.1f} ms")
    print(f"speedup {100 * (old_s / new_s - 1):+.1f}%, NEW ahead in {won} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
