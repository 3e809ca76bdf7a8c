"""Body files and report serialization.

A body file is JSON with keys "dim" (int) and "vertices" (array of arrays
of "p/q" strings); it parses into a canonical polytope through the hull
constructor.  Canonical serialization reduces every fraction, renders it as
a string (never a float), and sorts vertex rows lexicographically by their
(numerator, denominator) pairs, so serialization round-trips bit-exactly.
Reports are JSON objects with sorted keys; all exact values appear as "p/q"
strings and all numeric renderings are fixed-point strings with an explicit
digit count, which makes reports byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .geometry import Polytope, convex_hull


class BodyFileError(ValueError):
    """Malformed body file (parse / schema errors; CLI exit code 2)."""


def parse_fraction(text) -> Fraction:
    # JSON true/false arrive as bool, a subclass of int: reject them.
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise BodyFileError(f"bad rational literal {text!r}") from exc
    raise BodyFileError(f"coordinate must be a string or integer, got {type(text).__name__}")


def vector_to_json(v):
    return [str(x) for x in v]


def body_to_json(body: Polytope) -> dict:
    rows = sorted(
        body.vertices, key=lambda v: tuple((x.numerator, x.denominator) for x in v)
    )
    return {"dim": body.dim, "vertices": [vector_to_json(v) for v in rows]}


def dumps_body(body: Polytope) -> str:
    return json.dumps(body_to_json(body), indent=2, sort_keys=True) + "\n"


def parse_body(data, *, allow_degenerate: bool = False) -> Polytope:
    if not isinstance(data, dict):
        raise BodyFileError("body file must be a JSON object")
    if "dim" not in data or "vertices" not in data:
        raise BodyFileError('body file needs "dim" and "vertices" keys')
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise BodyFileError('"dim" must be an integer')
    rows = data["vertices"]
    if not isinstance(rows, list) or not rows:
        raise BodyFileError('"vertices" must be a non-empty array')
    pts = []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise BodyFileError(f"every vertex needs exactly {dim} coordinates")
        pts.append(tuple(parse_fraction(x) for x in row))
    return convex_hull(pts, allow_degenerate=allow_degenerate)


def load_body(path, *, allow_degenerate: bool = False) -> Polytope:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise BodyFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BodyFileError(f"{path}: invalid JSON: {exc}") from exc
    return parse_body(data, allow_degenerate=allow_degenerate)


def save_body(body: Polytope, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_body(body))


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dumps_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
