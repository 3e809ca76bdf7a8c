"""Command-line front end.

Every subcommand reads canonical body files, runs one library pipeline and
emits a deterministic JSON report on stdout (diagnostics go to stderr).
``_report`` is the one place a report is assembled and its exit code
chosen; every subcommand but ``random-body`` returns through it.
Exit codes: 0 success, 2 usage or parse error, 3 geometric error or a
result too large to render, 4 inequality violation or failed invariant
check -- the last one must never occur.  Exit 4 with a counterexample
bundle comes only from ``_report``; exit 4 without one, a failed invariant
with a one-line message on stderr, only from ``run``.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction

from . import io
from .bodies import random_polytope
from .errors import GeometryError, InvariantError
from .geometry import Subspace, project, support
from .homothety import (
    _refutation_lambda,
    default_direction_set,
    detect_homothety,
    homothetic_projections_conclude,
    strict_refutation,
)
from .inequalities import (
    Verdict,
    bm_check,
    minkowski_check,
    normalized_check,
)
from .numeric import DEFAULT_DIGITS
from .reconstruction import (
    corner_normalize,
    farey_directions,
    mixed_area_oracle,
    recover_support_any,
)
from .steiner import rounding_iteration, steiner_symmetral
from .volumes import mixed_volume_base_height, mixed_volume_interp

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GEOMETRY = 3
EXIT_VIOLATION = 4

# Limits on numeric arguments, so that no argument can start unbounded work.
# Fixed-point renderings convert integers of about `digits` decimal digits,
# and Python refuses int/str conversions past 4300 digits; each rounding step
# costs about 2.5 times the one before it.  `--lambda-grid` is capped as an
# input bound only: a diagnosis evaluates its first value below 1 and no
# other.  `--vertices` shares the cap on body files, io.MAX_VERTICES.
MAX_DIGITS = 1000
MAX_STEPS = 10
MAX_GRID_VALUES = 64


def _frac(text: str) -> Fraction:
    try:
        return io.fraction_literal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_in(lo: int, hi: int):
    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be an integer in {lo}..{hi}")
        return value

    return integer


_seed = _int_in(0, 2**64 - 1)  # seeds fit in unsigned 64 bits


def _vector(text: str):
    return tuple(_frac(part) for part in text.split(","))


def _basis(text: str):
    return tuple(_vector(part) for part in text.split(";"))


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise argparse.ArgumentTypeError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _report(args, result, counterexample=None) -> int:
    """Emit a subcommand's report on the body files it loaded and its
    result, and return its exit code: EXIT_VIOLATION when a counterexample
    bundle ships with it, else EXIT_OK."""
    out = {
        "command": [args.command, *args.echo_args],
        "inputs": args.inputs,
        "digits": args.digits,
        "seed": args.seed,
        "result": result,
    }
    if counterexample is not None:
        out["counterexample"] = counterexample
    _emit(args, io.dumps_report(out))
    return EXIT_OK if counterexample is None else EXIT_VIOLATION


def _counterexample(args, first, second, **extra) -> dict:
    """The bundle a violated report ships: both bodies, the seed and extras."""
    return {
        "body_a": io.body_to_json(first),
        "body_b": io.body_to_json(second),
        "seed": args.seed,
        **extra,
    }


def _witness_payload(witness) -> dict:
    return {"a": str(witness.ratio), "x": [str(c) for c in witness.shift]}


def _verdict_payload(report) -> dict:
    payload = {
        "form": report.form.value,
        "verdict": report.verdict.value,
        "slack": report.slack_numeric,
        "degenerate": report.degenerate,
        "quantities": {k: str(v) for k, v in report.quantities.items()},
    }
    if report.lhs_exact is not None:
        payload["lhs"] = str(report.lhs_exact)
        payload["rhs"] = str(report.rhs_exact)
    if report.lam is not None:
        payload["lambda"] = str(report.lam)
    return payload


def cmd_volume(args) -> int:
    body = io.load_body(args.body, digests=args.inputs)
    return _report(args, {"volume": str(body.volume)})


def cmd_mixedvol(args) -> int:
    first = io.load_body(args.body_a, allow_degenerate=True, digests=args.inputs)
    second = io.load_body(args.body_b, allow_degenerate=True, digests=args.inputs)
    result = {}
    if args.method in ("base-height", "both"):
        result["base_height"] = str(mixed_volume_base_height(first, second))
    if args.method in ("interp", "both"):
        result["interp"] = str(mixed_volume_interp(first, second))
    if args.method == "both":
        result["agree"] = result["base_height"] == result["interp"]
    return _report(args, result)


def cmd_check(args) -> int:
    first = io.load_body(args.body_a, allow_degenerate=True, digests=args.inputs)
    second = io.load_body(args.body_b, allow_degenerate=True, digests=args.inputs)
    if args.form == "bm":
        if args.lam is None:
            raise argparse.ArgumentTypeError("--lambda is required for form bm")
        report = bm_check(first, second, args.lam, digits=args.digits)
    elif args.form == "mmv":
        report = minkowski_check(first, second, digits=args.digits)
    else:
        report = normalized_check(first, second, digits=args.digits)
    result = _verdict_payload(report)
    if args.form == "mmv1":
        result["quotient"] = str(report.lhs_exact)
    bundle = None
    if report.verdict is Verdict.VIOLATION:
        bundle = _counterexample(args, first, second, quantities=result["quantities"])
    return _report(args, result, bundle)


def cmd_equality_diagnose(args) -> int:
    if args.lambda_grid is not None and len(args.lambda_grid) > MAX_GRID_VALUES:
        raise argparse.ArgumentTypeError(f"--lambda-grid takes at most {MAX_GRID_VALUES} values")
    _refutation_lambda(args.lambda_grid)
    first = io.load_body(args.body_a, digests=args.inputs)
    second = io.load_body(args.body_b, digests=args.inputs)
    mmv = minkowski_check(first, second, digits=args.digits)
    result = {"verdict": mmv.verdict.value, "mmv": _verdict_payload(mmv)}
    violated = mmv.verdict is Verdict.VIOLATION
    if mmv.verdict is Verdict.EQUALITY:
        decision = detect_homothety(first, second)
        if decision.homothetic:
            result["witness"] = _witness_payload(decision.witness)
        else:
            violated = True
            result["witness"] = None
            result["inconsistency"] = decision.reason
    elif mmv.verdict is Verdict.STRICT:
        ref = strict_refutation(first, second, args.lambda_grid)
        violated = ref is None
        if ref is not None:
            ref = {k: str(v) if isinstance(v, Fraction) else v for k, v in ref.items()}
        result["refutation"] = ref
    bundle = _counterexample(args, first, second) if violated else None
    return _report(args, result, bundle)


def cmd_random_body(args) -> int:
    if args.vertices <= args.dim:
        raise argparse.ArgumentTypeError("--vertices must be at least --dim + 1")
    rng = random.Random(args.seed)
    body = random_polytope(args.dim, args.vertices, rng)
    _emit(args, io.dumps_body(body))
    return EXIT_OK


def cmd_project(args) -> int:
    body = io.load_body(args.body, digests=args.inputs)
    xi = Subspace(args.onto)
    shadow = project(body, xi)
    result = {
        "body": io.body_to_json(shadow),
        "full_dimensional": shadow.is_full_dimensional,
        "gram": [[str(x) for x in row] for row in xi.gram()],
        "gram_det": str(xi.gram_det()),
    }
    return _report(args, result)


def cmd_steiner(args) -> int:
    body = io.load_body(args.body, digests=args.inputs)
    if args.steps:
        schedule = args.schedule or (args.direction,)
        result = {
            "trace": [
                {
                    "step": step,
                    "direction": None if w is None else [str(c) for c in w],
                    "volume": str(vol),
                    "isoperimetric_ratio": f"{ratio:.12f}",
                }
                for step, w, vol, ratio in rounding_iteration(body, schedule, args.steps)
            ]
        }
    else:
        symmetral = steiner_symmetral(body, args.direction)
        result = {
            "symmetral": io.body_to_json(symmetral),
            "exactness": "Exact2D" if body.dim == 2 else "Triangulated3D",
            "inner_approximation": symmetral.volume < body.volume,
            "volume": str(symmetral.volume),
        }
    return _report(args, result)


def cmd_reconstruct(args) -> int:
    body = io.load_body(args.body, digests=args.inputs)
    cn = corner_normalize(body)
    oracle = mixed_area_oracle(cn.body)
    rows = []
    all_agree = True
    for w in farey_directions():
        recovered = recover_support_any(oracle, w)
        direct = support(cn.body, w)
        agree = recovered == direct
        all_agree &= agree
        rows.append(
            {
                "direction": [str(c) for c in w],
                "recovered": str(recovered),
                "direct": str(direct),
                "agree": agree,
            }
        )
    result = {
        "applied_translation": [str(c) for c in cn.applied_translation],
        "directions": len(rows),
        "all_agree": all_agree,
        "trace": rows,
    }
    return _report(args, result)


def cmd_homothety(args) -> int:
    first = io.load_body(args.body_a, digests=args.inputs)
    second = io.load_body(args.body_b, digests=args.inputs)
    if args.via_projections:
        dirs = default_direction_set(first.dim, seed=args.seed)
        decision = homothetic_projections_conclude(first, second, dirs)
        result = {"conclusion": "Homothetic" if decision.homothetic else "NotHomothetic"}
        if decision.homothetic:
            result["witness"] = _witness_payload(decision.witness)
        if decision.failing_direction is not None:
            result["failing_direction"] = [str(c) for c in decision.failing_direction]
        if decision.reason:
            result["reason"] = decision.reason
    else:
        # This report reads its witness as first = a * second + x.
        decision = detect_homothety(second, first)
        result = {"homothetic": decision.homothetic}
        if decision.homothetic:
            result["witness"] = _witness_payload(decision.witness)
        else:
            result["reason"] = decision.reason
    return _report(args, result)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexkit",
        description="Exact rational polytope computations: volumes, mixed "
        "volumes, concavity inequalities, homothety diagnosis, "
        "support reconstruction, Steiner symmetrization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--digits", type=_int_in(0, MAX_DIGITS), default=DEFAULT_DIGITS)
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--seed", type=_seed, default=None)

    p = sub.add_parser("volume", help="exact volume of a body file")
    p.add_argument("body")
    common(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("mixedvol", help="mixed volume V_{n-1,1}(A, B)")
    p.add_argument("body_a")
    p.add_argument("body_b")
    p.add_argument("--method", choices=["base-height", "interp", "both"], default="both")
    common(p)
    p.set_defaults(func=cmd_mixedvol)

    p = sub.add_parser("check", help="inequality check (bm, mmv, mmv1)")
    p.add_argument("body_a")
    p.add_argument("body_b")
    p.add_argument("--form", choices=["bm", "mmv", "mmv1"], required=True)
    p.add_argument("--lambda", dest="lam", type=_frac, default=None, metavar="P/Q")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "equality-diagnose",
        help="equality verdict with homothety witness or refuting evidence",
    )
    p.add_argument("body_a")
    p.add_argument("body_b")
    p.add_argument("--lambda-grid", dest="lambda_grid", type=_vector, default=None)
    common(p)
    p.set_defaults(func=cmd_equality_diagnose)

    p = sub.add_parser("random-body", help="seeded random full-dimensional body")
    p.add_argument("--dim", type=int, required=True, choices=[2, 3, 4])
    p.add_argument("--vertices", type=_int_in(3, io.MAX_VERTICES), required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_random_body)

    p = sub.add_parser("project", help="orthogonal projection onto a subspace")
    p.add_argument("body")
    p.add_argument("--onto", type=_basis, required=True, metavar="V1;V2;...")
    common(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("steiner", help="Steiner symmetral or rounding trace")
    p.add_argument("body")
    p.add_argument("--direction", type=_vector, required=True, metavar="P/Q,P/Q")
    p.add_argument("--steps", type=_int_in(0, MAX_STEPS), default=0)
    p.add_argument("--schedule", type=_basis, default=None, metavar="D1;D2;...")
    common(p)
    p.set_defaults(func=cmd_steiner)

    p = sub.add_parser(
        "reconstruct", help="recover supports from mixed areas and compare"
    )
    p.add_argument("body")
    common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("homothety", help="exact homothety decision")
    p.add_argument("body_a")
    p.add_argument("body_b")
    p.add_argument("--via-projections", action="store_true")
    common(p)
    p.set_defaults(func=cmd_homothety)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.echo_args = list(argv if argv is not None else sys.argv[1:])[1:]
    args.inputs = {}  # body file path -> sha256 of the bytes io.load_body parsed
    try:
        return args.func(args)
    except io.BodyFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"InvariantError: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except GeometryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except ValueError as exc:
        # Reports render exact values as decimal strings, and str() refuses
        # integers past sys.get_int_max_str_digits() digits; the limit stays.
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"value too large to render: a result has more than {limit} digits", file=sys.stderr)
        return EXIT_GEOMETRY


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
