import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from convexkit.bodies import (
    box,
    diamond,
    standard_simplex,
    unit_cube,
    unit_square,
)
from convexkit.io import dumps_body


@pytest.fixture
def square():
    return unit_square()


@pytest.fixture
def cube():
    return unit_cube()


@pytest.fixture
def tri():
    return standard_simplex(2)


@pytest.fixture
def dia():
    return diamond()


@pytest.fixture
def rect():
    return box(2, 1)


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def frac(x) -> Fraction:
    return Fraction(x)


def save_body(body, path) -> None:
    """Write ``body`` as a canonical body file."""
    Path(path).write_text(dumps_body(body), encoding="utf-8")
