import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from convexkit import cli, io
from convexkit.bodies import box, diamond, standard_simplex, unit_cube, unit_square
from convexkit.geometry import bodies_equal, scale, translate
from convexkit.inequalities import Form, InequalityReport, Verdict


@pytest.fixture
def corpus(tmp_path):
    paths = {}

    def put(name, body):
        p = tmp_path / f"{name}.json"
        io.save_body(body, p)
        paths[name] = str(p)

    put("square", unit_square())
    put("cube", unit_cube())
    put("diamond", diamond())
    put("rect", box(2, 1))
    put("square2t", translate(scale(unit_square(), 2), (3, 4)))
    put("simplex3", standard_simplex(3))
    bad = tmp_path / "collinear.json"
    bad.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "1"], ["2", "2"]]}))
    paths["collinear"] = str(bad)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    paths["garbage"] = str(garbage)
    return paths


def run_cli(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_volume_roundtrip_and_exit(corpus, capsys):
    code, out, _ = run_cli(capsys, ["volume", corpus["square"]])
    assert code == 0
    assert json.loads(out)["result"]["volume"] == "1"
    code, out, _ = run_cli(capsys, ["volume", corpus["simplex3"]])
    assert json.loads(out)["result"]["volume"] == "1/6"


def test_exit_codes(corpus, capsys):
    code, _, err = run_cli(capsys, ["volume", corpus["collinear"]])
    assert code == 3 and "DimensionError" in err
    code, _, err = run_cli(capsys, ["volume", corpus["garbage"]])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["random-body", "--dim", "5", "--vertices", "7", "--seed", "1"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_mixedvol_agreement(corpus, capsys):
    code, out, _ = run_cli(
        capsys, ["mixedvol", corpus["square"], corpus["diamond"], "--method", "both"]
    )
    result = json.loads(out)["result"]
    assert result == {"base_height": "2", "interp": "2", "agree": True}


def test_check_forms(corpus, capsys):
    code, out, _ = run_cli(
        capsys,
        ["check", corpus["square"], corpus["rect"], "--form", "bm", "--lambda", "1/2"],
    )
    result = json.loads(out)["result"]
    assert code == 0 and result["verdict"] == "Strict"
    assert result["slack"].startswith("0.01763809")
    code, out, _ = run_cli(
        capsys, ["check", corpus["square"], corpus["square2t"], "--form", "mmv"]
    )
    assert json.loads(out)["result"]["verdict"] == "Equality"
    code, out, _ = run_cli(
        capsys, ["check", corpus["square"], corpus["diamond"], "--form", "mmv1"]
    )
    result = json.loads(out)["result"]
    assert result["verdict"] == "Strict" and result["quotient"] == "2"


def test_violation_exit_code(corpus, capsys, monkeypatch):
    # A Violation verdict is impossible for valid inputs; force one to pin
    # down the exit-4 contract and the counterexample bundle.
    fake = InequalityReport(
        form=Form.MMV,
        verdict=Verdict.VIOLATION,
        lhs_exact=F(0),
        rhs_exact=F(1),
        slack_numeric="-1.0",
        quantities={},
    )
    monkeypatch.setattr(cli, "minkowski_check", lambda *a, **k: fake)
    code, out, _ = run_cli(
        capsys, ["check", corpus["square"], corpus["square"], "--form", "mmv"]
    )
    assert code == 4
    assert "counterexample" in json.loads(out)


def test_equality_diagnose(corpus, capsys):
    code, out, _ = run_cli(
        capsys, ["equality-diagnose", corpus["square"], corpus["square2t"]]
    )
    result = json.loads(out)["result"]
    assert result["verdict"] == "Equality"
    assert result["witness"] == {"a": "2", "x": ["3", "4"]}
    code, out, _ = run_cli(
        capsys, ["equality-diagnose", corpus["square"], corpus["diamond"]]
    )
    result = json.loads(out)["result"]
    assert result["verdict"] == "Strict" and result["refutation"] is not None


def test_random_body_determinism(tmp_path, capsys):
    argv = ["random-body", "--dim", "2", "--vertices", "6", "--seed", "7"]
    code, out1, _ = run_cli(capsys, argv)
    code, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    body = io.parse_body(json.loads(out1))
    assert body.is_full_dimensional
    code, out3, _ = run_cli(
        capsys, ["random-body", "--dim", "3", "--vertices", "4", "--seed", "1"]
    )
    assert io.parse_body(json.loads(out3)).dim == 3


def test_serialization_roundtrip(corpus):
    for name in ("square", "cube", "diamond", "simplex3"):
        body = io.load_body(corpus[name])
        again = io.parse_body(json.loads(io.dumps_body(body)))
        assert bodies_equal(body, again)
        assert io.dumps_body(again) == io.dumps_body(body)


def test_report_determinism(corpus, capsys):
    argv = ["check", corpus["square"], corpus["rect"], "--form", "bm", "--lambda", "3/8"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_project_and_steiner_subcommands(corpus, capsys):
    code, out, _ = run_cli(
        capsys, ["project", corpus["cube"], "--onto", "1,0,0;0,1,0"]
    )
    result = json.loads(out)["result"]
    assert result["full_dimensional"] and result["gram_det"] == "1"
    code, out, _ = run_cli(
        capsys, ["steiner", corpus["square"], "--direction", "1,1"]
    )
    result = json.loads(out)["result"]
    assert result["exactness"] == "Exact2D" and result["volume"] == "1"
    code, out, _ = run_cli(
        capsys,
        ["steiner", corpus["square"], "--direction", "1,0", "--steps", "3"],
    )
    trace = json.loads(out)["result"]["trace"]
    assert [row["volume"] for row in trace] == ["1"] * 4


def test_reconstruct_and_homothety_subcommands(corpus, capsys):
    code, out, _ = run_cli(capsys, ["reconstruct", corpus["rect"]])
    result = json.loads(out)["result"]
    assert result["all_agree"] and result["directions"] == 64
    code, out, _ = run_cli(
        capsys, ["homothety", corpus["square2t"], corpus["square"]]
    )
    result = json.loads(out)["result"]
    assert result["homothetic"] and result["witness"]["a"] == "2"
    code, out, _ = run_cli(
        capsys, ["homothety", corpus["cube"], corpus["cube"], "--via-projections"]
    )
    assert json.loads(out)["result"]["conclusion"] == "Homothetic"


def test_out_flag_writes_file(corpus, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["volume", corpus["square"], "--out", str(target)]
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["volume"] == "1"


def test_console_entry_point(corpus):
    proc = subprocess.run(
        [sys.executable, "-m", "convexkit.cli", "volume", corpus["square"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["volume"] == "1"


def test_numeric_argument_bounds(corpus, capsys):
    # Each value is rejected while the arguments are parsed, before any work.
    square = corpus["square"]
    for argv, option in [
        (["volume", square, "--digits", "-1"], "--digits"),
        (["check", square, square, "--form", "mmv", "--digits", "1001"], "--digits"),
        (["steiner", square, "--direction", "1,0", "--steps", "11"], "--steps"),
        (["steiner", square, "--direction", "1,0", "--steps", "-2"], "--steps"),
        (["random-body", "--dim", "2", "--vertices", "1", "--seed", "1"], "--vertices"),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2 and option in capsys.readouterr().err
    code, out, err = run_cli(
        capsys, ["random-body", "--dim", "3", "--vertices", "3", "--seed", "1"]
    )
    assert code == 2 and out == "" and "--vertices" in err


def test_parse_body_rejects_booleans():
    # bool is a subclass of int, so JSON true must not pass as 1.
    for data in (
        {"dim": True, "vertices": [["0"], ["1"]]},
        {"dim": 2, "vertices": [[True, "0"], ["1", "0"], ["0", "1"]]},
    ):
        with pytest.raises(io.BodyFileError):
            io.parse_body(data)


def test_boolean_body_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"dim": True, "vertices": [["0"], ["1"]]}))
    code, out, err = run_cli(capsys, ["volume", str(path)])
    assert code == 2 and out == "" and "parse error" in err
