"""Byte-exact CLI reports on fixed bodies.

Each case runs ``cli.run`` in-process from ``tests/golden`` (so the report's
``command`` and ``inputs`` hold stable relative paths) and compares the exit
code and stdout with ``expected/<name>.txt``: the first line is ``exit N``,
the rest is stdout verbatim.  Run this file as a script to rewrite the
expected files, and only when a report change is intended.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from convexkit import cli

GOLDEN = Path(__file__).parent / "golden"


def _b(name):
    return f"bodies/{name}.json"


CASES = {
    # volume
    "volume-square": ["volume", _b("square")],
    "volume-simplex3": ["volume", _b("simplex3")],
    "volume-tesseract": ["volume", _b("tesseract")],
    "volume-polygon-seed": ["volume", _b("polygon"), "--seed", "5"],
    "volume-segment-flat": ["volume", _b("segment")],
    "volume-garbage": ["volume", _b("garbage")],
    "volume-missing": ["volume", _b("missing")],
    # mixedvol
    "mixedvol-square-diamond": ["mixedvol", _b("square"), _b("diamond"), "--method", "both"],
    "mixedvol-square-segment": ["mixedvol", _b("square"), _b("segment"), "--method", "both"],
    "mixedvol-segment-square-interp": [
        "mixedvol", _b("segment"), _b("square"), "--method", "interp",
    ],
    "mixedvol-segment-square-both": ["mixedvol", _b("segment"), _b("square")],
    "mixedvol-cube-tetra": ["mixedvol", _b("cube"), _b("tetra"), "--method", "both"],
    "mixedvol-triangle-hexagon": [
        "mixedvol", _b("triangle"), _b("hexagon"), "--method", "base-height",
    ],
    "mixedvol-tesseract-simplex4": [
        "mixedvol", _b("tesseract"), _b("simplex4"), "--method", "base-height",
    ],
    "mixedvol-dim-mismatch": ["mixedvol", _b("square"), _b("cube")],
    # check
    "check-bm-square-rect": [
        "check", _b("square"), _b("rect"), "--form", "bm", "--lambda", "1/2",
    ],
    "check-bm-square-rect-digits": [
        "check", _b("square"), _b("rect"), "--form", "bm", "--lambda", "3/8", "--digits", "10",
    ],
    "check-bm-homothetic": [
        "check", _b("square"), _b("square2t"), "--form", "bm", "--lambda", "1/3",
    ],
    "check-bm-polygon-hexagon": [
        "check", _b("polygon"), _b("hexagon"), "--form", "bm", "--lambda", "1/5",
        "--digits", "20",
    ],
    "check-bm-no-lambda": ["check", _b("square"), _b("rect"), "--form", "bm"],
    "check-mmv-homothetic": ["check", _b("square"), _b("square2t"), "--form", "mmv"],
    "check-mmv-square-rect": ["check", _b("square"), _b("rect"), "--form", "mmv"],
    "check-mmv-cube-tetra": ["check", _b("cube"), _b("tetra"), "--form", "mmv"],
    "check-mmv-segment-square": ["check", _b("segment"), _b("square"), "--form", "mmv"],
    "check-mmv-tesseract-simplex4": [
        "check", _b("tesseract"), _b("simplex4"), "--form", "mmv",
    ],
    "check-mmv1-square-diamond": ["check", _b("square"), _b("diamond"), "--form", "mmv1"],
    "check-mmv1-cube-simplex3": [
        "check", _b("cube"), _b("simplex3"), "--form", "mmv1", "--digits", "0",
    ],
    # equality-diagnose
    "diagnose-witness": ["equality-diagnose", _b("square"), _b("square2t")],
    "diagnose-witness-reversed": ["equality-diagnose", _b("square2t"), _b("square")],
    "diagnose-witness-3d": ["equality-diagnose", _b("cube"), _b("cube3t")],
    "diagnose-sweep-shear": ["equality-diagnose", _b("square"), _b("shear")],
    "diagnose-sweep-shear-grid": [
        "equality-diagnose", _b("shear"), _b("square"), "--lambda-grid", "1/2,1",
    ],
    "diagnose-quotient-rect": ["equality-diagnose", _b("square"), _b("rect")],
    "diagnose-quotient-hexagon": ["equality-diagnose", _b("triangle"), _b("hexagon")],
    "diagnose-quotient-grid": [
        "equality-diagnose", _b("square"), _b("diamond"), "--lambda-grid", "0,1/2,1",
    ],
    "diagnose-quotient-3d": ["equality-diagnose", _b("cube"), _b("box3")],
    # At lambda = 1/3 the combination has two unequal positive coefficients:
    # rect against square through the quotient, shear through the sweep.
    "diagnose-quotient-rect-third": [
        "equality-diagnose", _b("square"), _b("rect"), "--lambda-grid", "1/3",
    ],
    "diagnose-sweep-shear-third": [
        "equality-diagnose", _b("square"), _b("shear"), "--lambda-grid", "1/3",
    ],
    "diagnose-flat": ["equality-diagnose", _b("segment"), _b("square")],
    # random-body
    "random-2d": ["random-body", "--dim", "2", "--vertices", "6", "--seed", "7"],
    "random-3d": ["random-body", "--dim", "3", "--vertices", "5", "--seed", "1"],
    "random-4d": ["random-body", "--dim", "4", "--vertices", "6", "--seed", "3"],
    "random-bad-dim": ["random-body", "--dim", "5", "--vertices", "7", "--seed", "1"],
    # project
    "project-cube-xy": ["project", _b("cube"), "--onto", "1,0,0;0,1,0"],
    "project-cube-skew": ["project", _b("cube"), "--onto", "1,1,0;0,0,1"],
    "project-tetra-line": ["project", _b("tetra"), "--onto", "1,1,1"],
    "project-tesseract": ["project", _b("tesseract"), "--onto", "1,0,0,0;0,1,0,0;0,0,1,1"],
    "project-degenerate-basis": ["project", _b("cube"), "--onto", "1,0,0;2,0,0"],
    # steiner
    "steiner-triangle": ["steiner", _b("triangle"), "--direction", "1,1"],
    "steiner-square": ["steiner", _b("square"), "--direction", "1,0"],
    "steiner-cube": ["steiner", _b("cube"), "--direction", "1,1,0"],
    "steiner-tetra": ["steiner", _b("tetra"), "--direction", "0,0,1"],
    "steiner-rounding": ["steiner", _b("square"), "--direction", "1,0", "--steps", "3"],
    "steiner-rounding-schedule": [
        "steiner", _b("triangle"), "--direction", "1,0", "--steps", "2",
        "--schedule", "1,0;0,1;1,1",
    ],
    "steiner-rounding-hexagon": ["steiner", _b("hexagon"), "--direction", "1,2", "--steps", "2"],
    "steiner-dim-mismatch": ["steiner", _b("cube"), "--direction", "1,0"],
    # reconstruct
    "reconstruct-rect": ["reconstruct", _b("rect")],
    "reconstruct-triangle": ["reconstruct", _b("triangle")],
    "reconstruct-polygon": ["reconstruct", _b("polygon")],
    "reconstruct-cube": ["reconstruct", _b("cube")],
    # homothety
    "homothety-scaled-first": ["homothety", _b("square2t"), _b("square")],
    "homothety-scaled-second": ["homothety", _b("square"), _b("square2t")],
    "homothety-irrational-ratio": ["homothety", _b("square"), _b("rect")],
    "homothety-mismatch": ["homothety", _b("square"), _b("shear")],
    "homothety-3d": ["homothety", _b("cube"), _b("cube3t")],
    "homothety-3d-reversed": ["homothety", _b("cube3t"), _b("cube")],
    "homothety-dim-mismatch": ["homothety", _b("square"), _b("cube")],
    "homothety-flat": ["homothety", _b("segment"), _b("square")],
    "projections-3d": ["homothety", _b("cube"), _b("cube3t"), "--via-projections"],
    "projections-3d-reversed": ["homothety", _b("cube3t"), _b("cube"), "--via-projections"],
    "projections-3d-seed": [
        "homothety", _b("cube"), _b("cube3t"), "--via-projections", "--seed", "9",
    ],
    "projections-tetra": ["homothety", _b("cube"), _b("tetra"), "--via-projections"],
    "projections-box": ["homothety", _b("cube"), _b("box3"), "--via-projections"],
    "projections-planar": ["homothety", _b("square"), _b("square"), "--via-projections"],
}


def run_case(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n" + out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / "expected" / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(CASES[name]) == expected


def test_expected_files_are_the_cases():
    # An expected report left behind by a renamed or removed case would
    # never be compared with anything.
    expected = {path.name for path in (GOLDEN / "expected").iterdir()}
    assert expected == {f"{name}.txt" for name in CASES}


REPORT_KEYS = {"command", "digits", "inputs", "result", "seed"}


def test_every_report_has_the_same_keys():
    # One routine assembles every report: the same top-level keys, plus the
    # counterexample bundle exactly when the exit code is 4.  random-body
    # prints a body file, and exits 2 and 3 print nothing.
    reports = 0
    for name, argv in sorted(CASES.items()):
        head, stdout = (GOLDEN / "expected" / f"{name}.txt").read_text(encoding="utf-8").split("\n", 1)
        code = int(head.removeprefix("exit "))
        if argv[0] == "random-body" or code in (2, 3):
            continue
        reports += 1
        keys = set(json.loads(stdout))
        assert keys == REPORT_KEYS | ({"counterexample"} if code == 4 else set()), name
    assert reports > 0


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / "expected" / f"{name}.txt").write_text(run_case(argv), encoding="utf-8")
