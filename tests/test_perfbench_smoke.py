"""The benchmark's own smoke check, and the A/B script, run as tests.

``perfbench/smoke.py`` runs every workload at a tiny size, untraced and
traced; it fails when the program stops calling a name the tracer wraps or
a per-layer metric reads 0.  ``scripts/ab_passes.py`` runs one A/A round of
this tree against itself on ``sweep-3d`` and on ``cli-mix`` at the default
seed, and on ``round-bodies`` at another, and refuses zero rounds.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_ab_passes_on_one_tree():
    # Both sides import this tree, each as modules of its own; one round
    # after the two warm passes each.
    argv = ["scripts/ab_passes.py", ".", ".", "--workload", "sweep-3d", "--rounds", "1"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload sweep-3d, seed 3, 1 rounds"
    assert re.fullmatch(r"OLD \.: median pass \d+\.\d ms", lines[1])
    assert re.fullmatch(r"NEW \.: median pass \d+\.\d ms", lines[2])
    assert re.fullmatch(r"speedup [+-]\d+\.\d%, NEW ahead in [01] of 1 rounds", lines[3])
    assert re.fullmatch(
        r"median round ratio OLD/NEW \d+\.\d{3}, fastest pass OLD \d+\.\d ms, NEW \d+\.\d ms", lines[4]
    )


def test_ab_passes_on_cli_mix():
    # cli-mix writes its body files under each tree's temporary directory
    # and runs every subcommand in-process.
    argv = [str(ROOT), str(ROOT), "--workload", "cli-mix", "--rounds", "1"]
    proc = subprocess.run(
        [sys.executable, "scripts/ab_passes.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    assert lines[0] == "workload cli-mix, seed 3, 1 rounds"
    assert re.fullmatch(rf"OLD {re.escape(str(ROOT))}: median pass \d+\.\d ms", lines[1])
    assert re.fullmatch(rf"NEW {re.escape(str(ROOT))}: median pass \d+\.\d ms", lines[2])
    assert re.fullmatch(r"speedup [+-]\d+\.\d%, NEW ahead in [01] of 1 rounds", lines[3])
    assert re.fullmatch(
        r"median round ratio OLD/NEW \d+\.\d{3}, fastest pass OLD \d+\.\d ms, NEW \d+\.\d ms", lines[4]
    )


def test_ab_passes_takes_a_seed():
    # round-bodies' disc sizes move with the seed, which the first line names.
    argv = ["scripts/ab_passes.py", ".", ".", "--workload", "round-bodies", "--rounds", "1"]
    proc = subprocess.run(
        [sys.executable, *argv, "--seed", "5"], cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    assert lines[0] == "workload round-bodies, seed 5, 1 rounds"
    assert re.fullmatch(r"speedup [+-]\d+\.\d%, NEW ahead in [01] of 1 rounds", lines[3])
    assert re.fullmatch(
        r"median round ratio OLD/NEW \d+\.\d{3}, fastest pass OLD \d+\.\d ms, NEW \d+\.\d ms", lines[4]
    )


def test_ab_passes_needs_a_round():
    argv = ["scripts/ab_passes.py", ".", ".", "--workload", "cli-mix", "--rounds", "0"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "--rounds must be at least 1" in proc.stderr
