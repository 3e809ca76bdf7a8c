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
import re
from fractions import Fraction

from .geometry import Polytope, convex_hull

# Most vertex rows a body file may hold; `random-body --vertices` shares it.
MAX_VERTICES = 1000

# Caps on one rational literal, checked before Fraction() builds it: "1e5000000"
# takes seconds, and Python refuses int/str conversions past 4300 digits.
MAX_LITERAL_CHARS = 1000
MAX_LITERAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


class BodyFileError(ValueError):
    """Malformed body file (parse / schema errors; CLI exit code 2)."""


def fraction_literal(text: str) -> Fraction:
    """Fraction of a "p/q" or decimal literal, for body files and CLI
    arguments alike; ValueError when it is malformed or past the caps."""
    exponent = _EXPONENT.search(text)
    if len(text) > MAX_LITERAL_CHARS or exponent and abs(int(exponent[1])) > MAX_LITERAL_EXPONENT:
        raise ValueError(
            f"rational literal past {MAX_LITERAL_CHARS} characters"
            f" or exponent {MAX_LITERAL_EXPONENT}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def parse_fraction(text) -> Fraction:
    # JSON true/false arrive as bool, a subclass of int: reject them.  JSON
    # integers are checked as the literal they were in the file.
    if isinstance(text, int) and not isinstance(text, bool):
        text = str(text)
    if not isinstance(text, str):
        raise BodyFileError(f"coordinate must be a string or integer, got {type(text).__name__}")
    try:
        return fraction_literal(text)
    except ValueError as exc:
        raise BodyFileError(str(exc)) from exc


def body_to_json(body: Polytope) -> dict:
    rows = sorted(
        body.vertices, key=lambda v: tuple((x.numerator, x.denominator) for x in v)
    )
    return {"dim": body.dim, "vertices": [[str(x) for x in v] for v in rows]}


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
    if len(rows) > MAX_VERTICES:
        raise BodyFileError(f"at most {MAX_VERTICES} vertex rows allowed, got {len(rows)}")
    pts = []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise BodyFileError(f"every vertex needs exactly {dim} coordinates")
        pts.append(tuple(parse_fraction(x) for x in row))
    return convex_hull(pts, allow_degenerate=allow_degenerate)


def load_body(path, *, allow_degenerate: bool = False, digests=None) -> Polytope:
    """The body in a body file, read once.  A dict passed as ``digests``
    receives the sha256 of the bytes parsed, under ``str(path)``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise BodyFileError(f"cannot read {path}: {exc}") from exc
    if digests is not None:
        digests[str(path)] = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except ValueError as exc:  # also integers past Python's 4300-digit limit
        raise BodyFileError(f"{path}: invalid JSON: {exc}") from exc
    return parse_body(data, allow_degenerate=allow_degenerate)


def dumps_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
