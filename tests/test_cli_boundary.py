"""CLI boundary probe: every subcommand, in-process through ``cli.run``, on
golden bodies and on malformed or degenerate body files.

Whatever the input, a run ends in exit 0 with one JSON document on stdout,
or in exit 2 or 3 with empty stdout and a one-line message on stderr.
argparse's ``SystemExit(2)`` is the only exception allowed to leave
``run``.
"""

import json
import shutil
from pathlib import Path

import pytest

from convexkit import cli

GOLDEN = Path(__file__).parent / "golden" / "bodies"

# name -> body file text, beside the golden bodies copied by name.
MALFORMED = {
    "empty": {"dim": 2, "vertices": []},
    "ragged": {"dim": 2, "vertices": [["0", "0"], ["1", "0", "0"], ["0", "1"]]},
    "flat": {"dim": 3, "vertices": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]},
    "point": {"dim": 2, "vertices": [["1/2", "1/3"]]},
    "literal": {"dim": 2, "vertices": [["0", "0"], ["1/0", "0"], ["0", "x"]]},
    "exponent": {"dim": 2, "vertices": [["0", "0"], ["1e5000", "0"], ["0", "1"]]},
    "huge": {"dim": 2, "vertices": [["0", "0"], ["1e999", "0"], ["0", "-1e-999"]]},
    "nodim": {"vertices": [["0", "0"]]},
    "textdim": {"dim": "2", "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
    "boolean": {"dim": 2, "vertices": [["0", "0"], [True, "0"], ["0", "1"]]},
    "dim5": {"dim": 5, "vertices": [["0"] * 5, ["1", "0", "0", "0", "0"]]},
    "repeated": {"dim": 2, "vertices": [["0", "0"], ["0", "0"], ["1", "1"], ["1", "1"]]},
}
GOLDEN_NAMES = tuple(sorted(p.stem for p in GOLDEN.glob("*.json")))
PARTNERS = ("square", "cube", "simplex4")

SINGLE = (
    ["volume"],
    ["project", "--onto", "1,0"],
    ["project", "--onto", "1,0,0;0,1,1"],
    ["steiner", "--direction", "1,1"],
    ["steiner", "--direction", "0,0,1"],
    ["steiner", "--direction", "1,2", "--steps", "2", "--schedule", "1,0;0,1"],
    ["reconstruct"],
)
PAIR = (
    ["mixedvol"],
    ["check", "--form", "bm", "--lambda", "1/3"],
    ["check", "--form", "mmv"],
    ["check", "--form", "mmv1"],
    ["equality-diagnose"],
    ["homothety"],
    ["homothety", "--via-projections"],
)
STANDALONE = (
    ["random-body", "--dim", "2", "--vertices", "5", "--seed", "7"],
    ["random-body", "--dim", "3", "--vertices", "3", "--seed", "7"],
    ["random-body", "--dim", "4", "--vertices", "6", "--seed", "0"],
    ["random-body", "--dim", "5", "--vertices", "6", "--seed", "0"],
    ["check", "missing.json", "missing.json", "--form", "bm"],
    ["steiner", "missing.json", "--direction", "1,0", "--steps", "99"],
    ["equality-diagnose", "missing.json", "missing.json", "--lambda-grid", "1"],
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name in GOLDEN_NAMES:
        paths[name] = str(shutil.copy(GOLDEN / f"{name}.json", tmp_path))
    for name, data in MALFORMED.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(path)
    paths["missing"] = str(tmp_path / "missing.json")
    return paths


def probe_argvs(files):
    names = list(files)
    for name in names:
        for cmd in SINGLE:
            yield [cmd[0], files[name], *cmd[1:]]
        for partner in PARTNERS:
            for first, second in ((name, partner), (partner, name)):
                for cmd in PAIR:
                    yield [cmd[0], files[first], files[second], *cmd[1:]]
    yield from STANDALONE


def test_every_subcommand_ends_cleanly_on_any_body_file(files, capsys, monkeypatch):
    monkeypatch.chdir(Path(files["square"]).parent)
    outcomes = set()
    for argv in probe_argvs(files):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            capsys.readouterr()
            assert exc.code == 2, argv
            outcomes.add("argparse")
            continue
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv, code, err)
        if code == 0:
            json.loads(out)
        else:
            assert out == "", argv
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        outcomes.add(code)
    # The probe reaches every ending it allows.
    assert outcomes == {0, 2, 3, "argparse"}
