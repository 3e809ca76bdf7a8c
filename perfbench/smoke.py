"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Shrinks every workload's pass to a few tasks, runs each one untraced and
traced for a single pass, and checks that:

* every metric BENCHMARK.json names is reported and non-zero, and no
  task failed;
* the traced run recorded spans, and after either run every convexkit
  namespace binds the original functions again (no wrapper left behind);
* a copy holding only BENCHMARK.json and perfbench/ exits non-zero without
  printing a result.

Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run


def bindings():
    """(module, attribute, original object) for every wrapped name."""
    from tracer import TARGETS

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "convexkit"]
    out = []
    for modname, names in TARGETS.items():
        for fname in names:
            original = getattr(sys.modules[f"convexkit.{modname}"], fname)
            for module in modules:
                out.extend(
                    (module, attr, original)
                    for attr, value in vars(module).items()
                    if value is original
                )
    return out


def run_once(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    lines = buf.getvalue().splitlines()
    assert code == 0, f"{argv}: exit {code}"
    return json.loads(lines[-1]), lines


def check_bare_copy():
    bare = run.RUN_DIR / "bare-copy"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-3d", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "a copy without the program must fail"
    assert '"metrics"' not in proc.stdout, "a copy without the program printed a result"


def main():
    spec = run.load_spec()
    run.import_program()
    from workloads import CliMix, RoundBodies, Sweep3D

    Sweep3D.PASS_SIZE = 2
    RoundBodies.PASS_SIZE = 3
    CliMix.SETS = 1
    originals = bindings()
    assert originals, "no wrapped names found"
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = ["--workload", w["name"], "--seed", "1", "--seconds", "0",
                    "--trace", str(trace)]
            result, lines = run_once(argv)
            names = {m["name"] for m in declared}
            assert set(result["metrics"]) == names, f"{argv}: metric names differ"
            assert result["correct"] and result["failed"] == 0, f"{argv}: {lines}"
            assert result["attempted"] >= 1
            assert any(line.startswith("# failed_ratio 0.0") for line in lines)
            for module, attr, original in originals:
                assert getattr(module, attr) is original, f"{module.__name__}.{attr} still wrapped"
            zero = [name for name, m in result["metrics"].items() if m["value"] == 0]
            assert not zero, f"{argv}: metrics read 0: {zero}"
            print(f"ok {w['name']} trace={trace} attempted={result['attempted']}")
    check_bare_copy()
    print("ok bare copy exits non-zero without a result")


if __name__ == "__main__":
    main()
