import builtins
import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from convexkit import cli, io, numeric, volumes
from convexkit.bodies import box, diamond, standard_simplex, unit_cube, unit_square
from convexkit.errors import InvariantError
from convexkit.geometry import scale, translate
from convexkit.homothety import HomothetyDecision
from convexkit.inequalities import Form, InequalityReport, Verdict, bm_check

from conftest import save_body


@pytest.fixture
def corpus(tmp_path):
    paths = {}

    def put(name, body):
        p = tmp_path / f"{name}.json"
        save_body(body, p)
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
    array = tmp_path / "array.json"
    array.write_text(json.dumps([["0", "0"], ["1", "0"], ["0", "1"]]))
    paths["array"] = str(array)
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
    code, out, err = run_cli(capsys, ["volume", corpus["array"]])
    assert (code, out, err) == (2, "", "parse error: body file must be a JSON object\n")
    with pytest.raises(SystemExit) as exc:
        cli.run(["random-body", "--dim", "5", "--vertices", "7", "--seed", "1"])
    capsys.readouterr()
    assert exc.value.code == 2
    code, out, err = run_cli(capsys, ["steiner", corpus["square"], "--direction", "1,1,1"])
    assert (code, out) == (3, "")
    assert err == "DimensionMismatchError: direction length differs from ambient dimension\n"


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


def test_equality_diagnose_violation_exit_code(corpus, capsys, monkeypatch):
    # A diagnosis that contradicts its own verdict is impossible for valid
    # inputs; force both kinds to pin down their exit 4 and bundle: a strict
    # pair with no refutation, and an equality pair with no witness.
    monkeypatch.setattr(cli, "strict_refutation", lambda *a, **k: None)
    decision = HomothetyDecision(None, reason="candidate-transform-mismatch")
    monkeypatch.setattr(cli, "detect_homothety", lambda *a, **k: decision)
    for second, verdict in (("rect", "Strict"), ("square2t", "Equality")):
        argv = ["equality-diagnose", corpus["square"], corpus[second], "--seed", "11"]
        code, out, err = run_cli(capsys, argv)
        assert code == 4 and err == ""
        report = json.loads(out)
        assert report["result"]["verdict"] == verdict
        assert set(report["counterexample"]) == {"body_a", "body_b", "seed"}
        assert report["counterexample"]["seed"] == 11
        assert report["counterexample"]["body_b"] == json.loads(Path(corpus[second]).read_text())
        if second == "rect":
            assert report["result"]["refutation"] is None
        else:
            assert report["result"]["witness"] is None
            assert report["result"]["inconsistency"] == "candidate-transform-mismatch"


def tall_box_file(tmp_path, height):
    """Body file of [0,1]^2 x [0, height], with height written as given."""
    corners = [["1" if (i >> k) & 1 else "0" for k in range(2)] + [height if i & 4 else "0"] for i in range(8)]
    path = tmp_path / "tall.json"
    path.write_text(json.dumps({"dim": 3, "vertices": corners}))
    return str(path)


def test_bm_verdict_does_not_depend_on_digits(corpus, tmp_path, capsys):
    # The true slack, about 2.8e-14, is far below what --digits 0 or 2
    # displays; the verdict is Strict at every digit count.
    tall = tall_box_file(tmp_path, "1.000001")
    for digits in ("0", "2", "50"):
        argv = ["check", corpus["cube"], tall, "--form", "bm", "--lambda", "1/2", "--digits", digits]
        code, out, _ = run_cli(capsys, argv)
        report = json.loads(out)
        assert code == 0 and report["result"]["verdict"] == "Strict"
        assert "counterexample" not in report
    for digits in (0, 2):
        report = bm_check(unit_cube(), box(1, 1, 1 + F(1, 10**8)), F(1, 2), digits=digits)
        assert report.verdict is Verdict.STRICT


LOW_SIGN_CAP = """
import sys
from convexkit import cli, numeric

assert not __debug__, "run me under python -O"
numeric.MAX_SIGN_DIGITS = 1000
sys.exit(cli.run(sys.argv[1:]))
"""


def test_bm_sign_precision_cap(corpus, tmp_path, capsys, monkeypatch):
    # A side of 1 + 10**-998, the longest literal a body file takes, puts the
    # slack near 10**-1997: its sign needs roots to about 2000 digits, within
    # the cap.  Under a lower cap the undecided sign is an InvariantError,
    # which the CLI reports in one line with exit 4, also under python -O.
    side = "1." + "0" * 997 + "1"
    assert len(side) == io.MAX_LITERAL_CHARS
    argv = ["check", corpus["cube"], tall_box_file(tmp_path, side), "--form", "bm", "--lambda", "1/2", "--digits", "0"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["result"]["verdict"] == "Strict"
    monkeypatch.setattr(numeric, "MAX_SIGN_DIGITS", 1000)
    with pytest.raises(InvariantError):
        bm_check(unit_cube(), box(1, 1, F(side)), F(1, 2), digits=0)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LOW_SIGN_CAP, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("InvariantError: ") and proc.stderr.count("\n") == 1


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
        assert body == again
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


def test_each_body_file_is_read_once(corpus, capsys, monkeypatch):
    # The digests under "inputs" are taken from the bytes io.load_body parsed.
    real = builtins.open
    expected = {}
    for path in corpus.values():
        with real(path, "rb") as fh:
            expected[path] = hashlib.sha256(fh.read()).hexdigest()
    opened = []

    def counting(file, *args, **kwargs):
        opened.append(str(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    for names, options in (
        (["square", "rect"], ["check", "--form", "mmv"]),
        (["square2t", "square"], ["homothety"]),
        (["diamond"], ["reconstruct"]),
    ):
        paths = [corpus[name] for name in names]
        opened.clear()
        code, out, _ = run_cli(capsys, [options[0], *paths, *options[1:]])
        assert code == 0
        assert sorted(f for f in opened if f in expected) == sorted(paths)
        assert json.loads(out)["inputs"] == {p: expected[p] for p in paths}


def test_out_flag_writes_file(corpus, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["volume", corpus["square"], "--out", str(target)]
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["volume"] == "1"


def test_out_flag_unwritable_path(corpus, tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, ["volume", corpus["square"], "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1 and str(target) in err


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


def test_lambda_grid_bound(corpus, capsys):
    # The grid is an input: its length has a cap, though a diagnosis
    # evaluates only its first value below 1.
    pair = ["equality-diagnose", corpus["square"], corpus["diamond"], "--lambda-grid"]
    code, out, err = run_cli(capsys, pair + [",".join(["1/3"] * (cli.MAX_GRID_VALUES + 1))])
    assert code == 2 and out == ""
    assert err == f"usage error: --lambda-grid takes at most {cli.MAX_GRID_VALUES} values\n"
    code, out, err = run_cli(capsys, pair + [",".join(["1/3"] * cli.MAX_GRID_VALUES)])
    assert code == 0 and err == ""


def test_lambda_grid_range_ignores_order(corpus, capsys):
    # Strict 3D pair: a refutation at 1/2 must not hide the 3 after it.
    pair = ["equality-diagnose", corpus["cube"], corpus["simplex3"], "--lambda-grid"]
    for grid, bad in (("1/2,3", "3"), ("3,1/2", "3"), ("-1", "-1")):
        code, out, err = run_cli(capsys, pair + [grid])
        assert (code, out) == (3, "")
        assert err == f"LambdaRangeError: lambda {bad} outside [0, 1]\n"


def test_lambda_grid_needs_a_value_below_1(corpus, capsys):
    # At lam = 1 the combination is L itself, so no row there can refute:
    # a grid without a smaller value ends before the bodies load, whatever
    # the verdict (square and diamond are Strict, square and square2t
    # Equality).
    for second, grid in (("diamond", "1"), ("rect", "1,1"), ("square2t", "1")):
        argv = ["equality-diagnose", corpus["square"], corpus[second], "--lambda-grid", grid]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "LambdaRangeError: lambda grid has no value below 1\n"
    argv = ["equality-diagnose", corpus["square"], corpus["rect"], "--lambda-grid", "1,1,7/8"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == "" and '"lambda": "7/8"' in out


def test_parse_body_rejects_booleans():
    # bool is a subclass of int, so JSON true must not pass as 1.
    for data in (
        {"dim": True, "vertices": [["0"], ["1"]]},
        {"dim": 2, "vertices": [[True, "0"], ["1", "0"], ["0", "1"]]},
    ):
        with pytest.raises(io.BodyFileError):
            io.parse_body(data)


def test_parse_body_reads_json_integers_as_their_literals():
    ints = io.parse_body({"dim": 2, "vertices": [[0, 0], [2, 0], [0, -3]]})
    strings = io.parse_body({"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["0", "-3"]]})
    assert ints == strings
    assert ints.vertices == ((0, -3), (0, 0), (2, 0))


def test_boolean_body_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"dim": True, "vertices": [["0"], ["1"]]}))
    code, out, err = run_cli(capsys, ["volume", str(path)])
    assert code == 2 and out == "" and "parse error" in err


def test_homothety_seed_zero_picks_directions(corpus, capsys, monkeypatch):
    # --seed 0 is a seed like any other, not a request for the default.
    seeds = []
    real = cli.default_direction_set

    def spy(dim, seed):
        seeds.append(seed)
        return real(dim, seed=seed)

    monkeypatch.setattr(cli, "default_direction_set", spy)
    code, out, _ = run_cli(
        capsys,
        ["homothety", corpus["cube"], corpus["cube"], "--via-projections", "--seed", "0"],
    )
    assert code == 0 and json.loads(out)["seed"] == 0
    assert seeds == [0]


def test_body_file_vertex_cap(tmp_path, capsys, monkeypatch):
    # Rows past the cap are refused while parsing, before any hull work.
    assert io.MAX_VERTICES == 1000
    parabola = [[str(i), str(i * i)] for i in range(1001)]
    io.parse_body({"dim": 2, "vertices": parabola[:1000]})
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 2, "vertices": parabola}))
    monkeypatch.setattr(io, "convex_hull", lambda *args, **kwargs: pytest.fail("hull built"))
    code, out, err = run_cli(capsys, ["volume", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and err.count("\n") == 1 and "1000" in err


def test_rational_literal_caps(corpus, tmp_path, capsys):
    # Past the caps a literal is refused before Fraction() builds it; python
    # refuses to print integers past 4300 digits, so none could be reported.
    bad = {
        "exponent": '"1e4400"',
        "length": '"' + "1" * 1001 + '"',
        "json-int": "1" * 5000,
    }
    for name, literal in bad.items():
        path = tmp_path / f"{name}.json"
        path.write_text('{"dim": 2, "vertices": [["0", "0"], [%s, "0"], ["0", "1"]]}' % literal)
        code, out, err = run_cli(capsys, ["volume", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("parse error:") and err.count("\n") == 1
    square = corpus["square"]
    with pytest.raises(SystemExit) as exc:
        cli.run(["check", square, square, "--form", "bm", "--lambda", "1e5000000"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "--lambda" in err and "exponent 1000" in err
    # At the caps, and in every golden body file, literals parse.
    for literal in ("1e1000", "1E-1000", "1" * 1000, "-7/3", " 2.5e-3 "):
        assert io.fraction_literal(literal) == F(literal)
    for path in (Path(__file__).parent / "golden" / "bodies").glob("*.json"):
        if path.name != "garbage.json":
            io.load_body(path, allow_degenerate=True)


def test_result_past_the_int_str_limit(tmp_path, capsys):
    # A side within both literal caps (1000 characters, exponent 1000) has
    # about 1995 digits: a square's area renders, a 4D box's volume (about
    # 7980 digits) is past Python's int/str limit and ends with exit 3.
    side = "9" * 995 + "e1000"
    limit = sys.get_int_max_str_digits()
    for dim, code_wanted in ((2, 0), (4, 3)):
        corners = [[side if (i >> k) & 1 else "0" for k in range(dim)] for i in range(2**dim)]
        path = tmp_path / f"box{dim}.json"
        path.write_text(json.dumps({"dim": dim, "vertices": corners}))
        code, out, err = run_cli(capsys, ["volume", str(path)])
        assert code == code_wanted
        if code_wanted:
            assert out == "" and err == f"value too large to render: a result has more than {limit} digits\n"
        else:
            assert json.loads(out)["result"]["volume"] == str(F(side) ** 2)
    assert sys.get_int_max_str_digits() == limit


def test_rounding_ratio_at_extreme_scales(tmp_path, capsys):
    # The isoperimetric ratio is scale-free: right triangles with legs 2^1000
    # and 2^-1000 print the unit triangle's ratio strings, and legs 1e300 and
    # 1e-300, inside the literal caps, stay inside float range.  A needle
    # whose ratio is past float range ends with exit 3 and one line.
    def steiner(a, b):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], [a, "0"], ["0", b]]}))
        return run_cli(capsys, ["steiner", str(path), "--direction", "1,0", "--steps", "1"])

    def ratios(a, b):
        code, out, err = steiner(a, b)
        assert code == 0 and err == ""
        return [row["isoperimetric_ratio"] for row in json.loads(out)["result"]["trace"]]

    unit = ratios("1", "1")
    assert ratios(str(2**1000), str(2**1000)) == unit
    assert ratios(f"1/{2**1000}", f"1/{2**1000}") == unit
    for leg in ("1e300", "1e-300"):
        assert [float(r) for r in ratios(leg, leg)] == pytest.approx([float(r) for r in unit])
    code, out, err = steiner(str(2**600), f"1/{2**600}")
    assert code == 3 and out == ""
    assert err == "GeometryError: isoperimetric ratio past float range\n"


OPTIMIZED_INVARIANTS = """
import sys
from dataclasses import replace
from fractions import Fraction
from convexkit import cli, volumes
from convexkit.bodies import unit_cube, unit_square
from convexkit.errors import InvariantError
from convexkit.steiner import steiner_symmetral

assert not __debug__, "run me under python -O"
square = unit_square()


def wrong_first_node(routine):
    # Nodes of (2 + eps)^2, consistent among themselves, but V(K) = 1.
    real = volumes._minkowski_sum
    volumes._minkowski_sum = lambda first, second: volumes._PairRecord((), (), (), (4, 9, 16, 25))
    try:
        routine(square, square)
    finally:
        volumes._minkowski_sum = real


for bad in (lambda: volumes.VolumePolynomial((-1,)),
            lambda: volumes.VolumePolynomial((1, 0, 1)),
            lambda: volumes.VolumePolynomial((1, 0, 1), 3),
            lambda: volumes.VolumePolynomial((1, 2, 1), 0),
            lambda: volumes.minkowski_interpolate([0, 1, 4, 10]),
            # volume_polynomial twice, as its cache keeps no exception, and
            # mixed_volume_interp, which interpolates on every call.
            lambda: wrong_first_node(volumes.volume_polynomial),
            lambda: wrong_first_node(volumes.volume_polynomial),
            lambda: wrong_first_node(volumes.mixed_volume_interp),
            lambda: steiner_symmetral(replace(square, volume=2), (1, 0)),
            lambda: steiner_symmetral(replace(unit_cube(), volume=Fraction(1, 2)), (1, 0, 0))):
    try:
        bad()
    except InvariantError:
        pass
    else:
        sys.exit("invariant check stripped")

# Corrupt the last interpolation node, read off K + L's boundary cycle: the
# redundant-node check must fire inside a real CLI call and end it with exit 4.
real = volumes._cycle_nodes


def doubled_last(*args):
    *nodes, last = real(*args)
    return (*nodes, 2 * last)


volumes._cycle_nodes = doubled_last
sys.exit(cli.run(["mixedvol", sys.argv[1], sys.argv[1], "--method", "interp"]))
"""


def test_invariant_checks_survive_optimize(corpus):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_INVARIANTS, corpus["square"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "InvariantError: volume polynomial failed the redundant-node check\n"


CHORD_CHECK = """
import sys
from dataclasses import replace
from convexkit.bodies import unit_square
from convexkit.errors import InvariantError
from convexkit.steiner import steiner_symmetral

assert not __debug__, "run me under python -O"
# Every facet offset lowered by 2: each vertex of the square lies outside
# the body the facets describe, so its chord is empty.
square = unit_square()
lowered = replace(
    square,
    facets=tuple(
        replace(f, offset_pair=(f.offset_pair[0] - 2 * f.offset_pair[1], f.offset_pair[1]))
        for f in square.facets
    ),
)
try:
    steiner_symmetral(lowered, (1, 0))
except InvariantError as exc:
    sys.exit(f"InvariantError: {exc}")
sys.exit("chord check stripped")
"""


def test_chord_check_survives_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CHORD_CHECK], capture_output=True, text=True
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "InvariantError: chord through a vertex misses the body\n"


def test_run_builds_parser_at_most_once(monkeypatch, capsys):
    import argparse

    # Every build of the parser adds its subcommands once.
    built = []
    real = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self.prog)
        return real(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    argv = ["random-body", "--dim", "2", "--vertices", "4", "--seed", "3"]
    reports = [(cli.run(argv), capsys.readouterr().out) for _ in range(2)]
    assert reports[0] == reports[1] and reports[0][0] == 0
    assert len(built) <= 1


def cyclic_rows(n, count, shift):
    """Vertex rows of a cyclic polytope in R^n: (t, t^2, ..., t^n) for t = shift + k."""
    return [[str((shift + k) ** e) for e in range(1, n + 1)] for k in range(count)]


def test_pair_point_cap(tmp_path, capsys):
    # Two cyclic 4D bodies, every pair point a vertex of K + L: past the cap
    # each command that combines them ends with exit 3 and one line, before
    # any hull of the pairs.
    assert volumes.MAX_PAIR_POINTS == {2: 4096, 3: 1024, 4: 256}
    paths = []
    for name, shift in (("K", F(0)), ("L", F(1, 2))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"dim": 4, "vertices": cyclic_rows(4, 17, shift)}))
        paths.append(str(path))
    combining = (
        ["mixedvol"],
        ["check", "--form", "bm", "--lambda", "1/2"],
        ["equality-diagnose", "--lambda-grid", "1/3"],
    )
    for command in combining:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, [*command, *paths])
        assert time.perf_counter() - start < 0.5
        assert code == 3 and out == ""
        assert err == "PairPointsError: 289 vertex pairs in dimension 4; at most 256 may be combined\n"
    # On the default grid the refutation is at lam = 0, whose combination
    # is K itself, so no pair point is formed.
    code, out, err = run_cli(capsys, ["equality-diagnose", *paths])
    assert code == 0 and err == ""
    refutation = json.loads(out)["result"]["refutation"]
    assert (refutation["lambda"], refutation["body_index"]) == ("0", 0)
