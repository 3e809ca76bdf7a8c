"""Command-line front end.

Every subcommand reads canonical body files, runs one library pipeline and
emits a deterministic JSON report on stdout (diagnostics go to stderr).
Exit codes: 0 success, 2 usage or parse error, 3 geometric error, 4
inequality violation -- the last one must never occur and ships a
counterexample bundle when it does.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import io
from .bodies import random_polytope
from .errors import GeometryError
from .geometry import Subspace, project, support
from .homothety import (
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
from .volumes import (
    mixed_volume_base_height,
    mixed_volume_interp,
    volume,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GEOMETRY = 3
EXIT_VIOLATION = 4

# Limits on numeric arguments, so that no argument can start unbounded work.
# Fixed-point renderings convert integers of about `digits` decimal digits,
# and Python refuses int/str conversions past 4300 digits; each rounding step
# costs about 2.5 times the one before it.
MAX_DIGITS = 1000
MAX_STEPS = 10
MAX_VERTICES = 1000


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from exc


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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(args, paths) -> dict:
    return {
        "command": [args.command, *getattr(args, "echo_args", [])],
        "inputs": {str(p): io.file_digest(p) for p in paths},
        "digits": getattr(args, "digits", DEFAULT_DIGITS),
        "seed": getattr(args, "seed", None),
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
    body = io.load_body(args.body)
    out = _base_report(args, [args.body])
    out["result"] = {"volume": str(volume(body))}
    _emit(args, io.dumps_report(out))
    return EXIT_OK


def cmd_mixedvol(args) -> int:
    first = io.load_body(args.body_a, allow_degenerate=True)
    second = io.load_body(args.body_b, allow_degenerate=True)
    result = {}
    if args.method in ("base-height", "both"):
        result["base_height"] = str(mixed_volume_base_height(first, second))
    if args.method in ("interp", "both"):
        result["interp"] = str(mixed_volume_interp(first, second))
    if args.method == "both":
        result["agree"] = result["base_height"] == result["interp"]
    out = _base_report(args, [args.body_a, args.body_b])
    out["result"] = result
    _emit(args, io.dumps_report(out))
    return EXIT_OK


def cmd_check(args) -> int:
    first = io.load_body(args.body_a, allow_degenerate=True)
    second = io.load_body(args.body_b, allow_degenerate=True)
    if args.form == "bm":
        if args.lam is None:
            raise argparse.ArgumentTypeError("--lambda is required for form bm")
        report = bm_check(first, second, args.lam, digits=args.digits)
    elif args.form == "mmv":
        report = minkowski_check(first, second, digits=args.digits)
    else:
        report = normalized_check(first, second, digits=args.digits)
    out = _base_report(args, [args.body_a, args.body_b])
    out["result"] = _verdict_payload(report)
    if args.form == "mmv1":
        out["result"]["quotient"] = str(report.lhs_exact)
    violated = report.verdict is Verdict.VIOLATION
    if violated:
        out["counterexample"] = {
            "body_a": io.body_to_json(first),
            "body_b": io.body_to_json(second),
            "quantities": {k: str(v) for k, v in report.quantities.items()},
            "seed": getattr(args, "seed", None),
        }
    _emit(args, io.dumps_report(out))
    return EXIT_VIOLATION if violated else EXIT_OK


def cmd_equality_diagnose(args) -> int:
    first = io.load_body(args.body_a)
    second = io.load_body(args.body_b)
    mmv = minkowski_check(first, second, digits=args.digits)
    out = _base_report(args, [args.body_a, args.body_b])
    result = {"verdict": mmv.verdict.value, "mmv": _verdict_payload(mmv)}
    consistent = True
    if mmv.verdict is Verdict.EQUALITY:
        decision = detect_homothety(first, second)
        if decision.homothetic:
            result["witness"] = _witness_payload(decision.witness)
        else:
            consistent = False
            result["witness"] = None
            result["inconsistency"] = decision.reason
    elif mmv.verdict is Verdict.STRICT:
        ref = strict_refutation(first, second, args.lambda_grid)
        consistent = ref is not None
        if consistent:
            ref = {k: str(v) if isinstance(v, Fraction) else v for k, v in ref.items()}
        result["refutation"] = ref
    out["result"] = result
    violated = mmv.verdict is Verdict.VIOLATION or not consistent
    if violated:
        out["counterexample"] = {
            "body_a": io.body_to_json(first),
            "body_b": io.body_to_json(second),
            "seed": getattr(args, "seed", None),
        }
    _emit(args, io.dumps_report(out))
    return EXIT_VIOLATION if violated else EXIT_OK


def cmd_random_body(args) -> int:
    if args.vertices <= args.dim:
        raise argparse.ArgumentTypeError("--vertices must be at least --dim + 1")
    rng = random.Random(args.seed)
    body = random_polytope(args.dim, args.vertices, rng)
    _emit(args, io.dumps_body(body))
    return EXIT_OK


def cmd_project(args) -> int:
    body = io.load_body(args.body)
    xi = Subspace(args.onto)
    shadow = project(body, xi)
    out = _base_report(args, [args.body])
    out["result"] = {
        "body": io.body_to_json(shadow),
        "full_dimensional": shadow.is_full_dimensional,
        "gram": [[str(x) for x in row] for row in xi.gram()],
        "gram_det": str(xi.gram_det()),
    }
    _emit(args, io.dumps_report(out))
    return EXIT_OK


def cmd_steiner(args) -> int:
    body = io.load_body(args.body)
    out = _base_report(args, [args.body])
    if args.steps:
        schedule = args.schedule or (args.direction,)
        trace = rounding_iteration(body, schedule, args.steps)
        out["result"] = {
            "trace": [
                {
                    "step": step,
                    "direction": None if w is None else [str(c) for c in w],
                    "volume": str(vol),
                    "isoperimetric_ratio": f"{ratio:.12f}",
                }
                for step, w, vol, ratio in trace.rows
            ]
        }
    else:
        res = steiner_symmetral(body, args.direction)
        out["result"] = {
            "symmetral": io.body_to_json(res.symmetral),
            "exactness": res.exactness.value,
            "inner_approximation": res.inner_approximation,
            "volume": str(res.symmetral.volume),
        }
    _emit(args, io.dumps_report(out))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    body = io.load_body(args.body)
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
    out = _base_report(args, [args.body])
    out["result"] = {
        "applied_translation": [str(c) for c in cn.applied_translation],
        "directions": len(rows),
        "all_agree": all_agree,
        "trace": rows,
    }
    _emit(args, io.dumps_report(out))
    return EXIT_OK


def cmd_homothety(args) -> int:
    first = io.load_body(args.body_a)
    second = io.load_body(args.body_b)
    out = _base_report(args, [args.body_a, args.body_b])
    if args.via_projections:
        dirs = default_direction_set(first.dim, seed=args.seed or 2024)
        report = homothetic_projections_conclude(first, second, dirs)
        result = {"conclusion": report.conclusion.value}
        if report.witness is not None:
            result["witness"] = _witness_payload(report.witness)
        if report.failing_direction is not None:
            result["failing_direction"] = [str(c) for c in report.failing_direction]
        if report.reason:
            result["reason"] = report.reason
    else:
        # This report reads its witness as first = a * second + x.
        decision = detect_homothety(second, first)
        result = {"homothetic": decision.homothetic}
        if decision.homothetic:
            result["witness"] = _witness_payload(decision.witness)
        else:
            result["reason"] = decision.reason
    out["result"] = result
    _emit(args, io.dumps_report(out))
    return EXIT_OK


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
    p.add_argument("--vertices", type=_int_in(3, MAX_VERTICES), required=True)
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
    try:
        return args.func(args)
    except io.BodyFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeometryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
