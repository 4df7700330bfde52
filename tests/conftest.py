import contextlib
import io
from dataclasses import dataclass
from fractions import Fraction

import pytest

from spinrep.cli import main
from spinrep.linalg import QMat


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    output: str  # stdout, then stderr


def run_cli(argv) -> CliResult:
    """``spinrep <argv>`` in this process: exit code, stdout and all output."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return CliResult(code, out.getvalue(), out.getvalue() + err.getvalue())


# (cos, sin) pairs from Pythagorean triples: exact rational rotations
PYTHAGOREAN = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(20, 29), Fraction(21, 29)),
    (Fraction(7, 25), Fraction(24, 25)),
]


def givens(n, i, j, c, s):
    rows = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    rows[i][i] = Fraction(c)
    rows[j][j] = Fraction(c)
    rows[i][j] = -Fraction(s)
    rows[j][i] = Fraction(s)
    return rows


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def random_rational_rotation(n, rng, factors=3):
    """Product of seeded Givens rotations with Pythagorean entries: an exact
    rational special orthogonal matrix."""
    rot = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    for _ in range(factors):
        i, j = sorted(rng.sample(range(n), 2))
        c, s = PYTHAGOREAN[rng.randrange(len(PYTHAGOREAN))]
        if rng.random() < 0.5:
            s = -s
        rot = mat_mul(rot, givens(n, i, j, c, s))
    return rot


def random_fraction(rng, num=9, den=7):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


@pytest.fixture
def identity8():
    return QMat.identity(8)
