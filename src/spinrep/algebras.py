"""Exact arithmetic for the coefficient algebras R, C, H and the octonions O.

Scalars are ``fractions.Fraction`` throughout, so every algebraic identity in
the test suite is checked with exact equality.  The octonions are represented
as pairs of quaternions with the doubling product

    (a, b) * (c, d) = (a*c - conj(d)*b, d*a + b*conj(c))
    conj((a, b))    = (conj(a), -b)

evaluated at call time.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .linalg import QMat

ALGEBRA_DIM = {"R": 1, "C": 2, "H": 4, "O": 8}

ZERO = Fraction(0)
ONE = Fraction(1)

# quaternion basis products: _H_TABLE[i][j] = (index, sign) for basis (1,i,j,k)
_H_TABLE = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)


class KElement:
    """Element of R, C, H or O as a fixed-length tuple of rational coefficients."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: str, coeffs: tuple[Fraction, ...]):
        if algebra not in ALGEBRA_DIM:
            raise InputError(f"unknown algebra tag {algebra!r}")
        if len(coeffs) != ALGEBRA_DIM[algebra]:
            raise InputError(f"{algebra} element needs {ALGEBRA_DIM[algebra]} coefficients, got {len(coeffs)}")
        self.algebra = algebra
        self.coeffs = coeffs

    def __eq__(self, other):
        if not isinstance(other, KElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

    def __repr__(self):
        return f"KElement({self.algebra}, {tuple(str(c) for c in self.coeffs)})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def kelem(algebra: str, coeffs) -> KElement:
    return KElement(algebra, tuple(Fraction(c) for c in coeffs))


def zero(algebra: str) -> KElement:
    return KElement(algebra, (ZERO,) * ALGEBRA_DIM[algebra])


def unit(algebra: str, index: int = 0) -> KElement:
    """Basis unit number ``index``; 0 is the real unit."""
    d = ALGEBRA_DIM[algebra]
    if not 0 <= index < d:
        raise InputError(f"basis index {index} out of range for {algebra}")
    return KElement(algebra, tuple(ONE if i == index else ZERO for i in range(d)))


def one(algebra: str) -> KElement:
    return unit(algebra, 0)


def basis(algebra: str) -> list[KElement]:
    return [unit(algebra, i) for i in range(ALGEBRA_DIM[algebra])]


def _check_same(a: KElement, b: KElement) -> None:
    if a.algebra != b.algebra:
        raise InputError(f"algebra tag mismatch: {a.algebra} vs {b.algebra}")


def neg(a: KElement) -> KElement:
    return KElement(a.algebra, tuple(-x for x in a.coeffs))


def scale(a: KElement, c) -> KElement:
    c = Fraction(c)
    return KElement(a.algebra, tuple(c * x for x in a.coeffs))


def _h_mul(a: tuple, b: tuple) -> tuple:
    out = [ZERO, ZERO, ZERO, ZERO]
    for i, x in enumerate(a):
        if not x:
            continue
        row = _H_TABLE[i]
        for j, y in enumerate(b):
            if not y:
                continue
            idx, sgn = row[j]
            out[idx] += x * y if sgn > 0 else -x * y
    return tuple(out)


def _h_conj(a: tuple) -> tuple:
    return (a[0], -a[1], -a[2], -a[3])


def mul(a: KElement, b: KElement) -> KElement:
    _check_same(a, b)
    ca, cb = a.coeffs, b.coeffs
    if a.algebra == "R":
        return KElement("R", (ca[0] * cb[0],))
    if a.algebra == "C":
        return KElement("C", (ca[0] * cb[0] - ca[1] * cb[1], ca[0] * cb[1] + ca[1] * cb[0]))
    if a.algebra == "H":
        return KElement("H", _h_mul(ca, cb))
    # octonions via the quaternion doubling product
    p, q = ca[:4], ca[4:]
    r, s = cb[:4], cb[4:]
    first = tuple(x - y for x, y in zip(_h_mul(p, r), _h_mul(_h_conj(s), q)))
    second = tuple(x + y for x, y in zip(_h_mul(s, p), _h_mul(q, _h_conj(r))))
    return KElement("O", first + second)


def conj(a: KElement) -> KElement:
    c = a.coeffs
    if a.algebra == "R":
        return a
    if a.algebra == "O":
        return KElement("O", _h_conj(c[:4]) + tuple(-x for x in c[4:]))
    return KElement(a.algebra, (c[0],) + tuple(-x for x in c[1:]))


def norm_sq(a: KElement) -> Fraction:
    return sum((c * c for c in a.coeffs), ZERO)


def real_part(a: KElement) -> Fraction:
    return a.coeffs[0]


def mul_matrix(x: KElement, side: str) -> QMat:
    """Real matrix of multiplication by ``x`` in the standard basis.

    ``side="left"`` is the matrix of ``y -> x*y``, ``side="right"`` of
    ``y -> y*x``; columns hold the coordinates of the image of each basis unit.
    """
    d = ALGEBRA_DIM[x.algebra]
    entries: dict[tuple[int, int], Fraction] = {}
    for j in range(d):
        e = unit(x.algebra, j)
        img = mul(x, e) if side == "left" else mul(e, x)
        for i, c in enumerate(img.coeffs):
            if c:
                entries[(i, j)] = c
    return QMat.from_entries(d, d, entries)


def lmul_matrix(x: KElement) -> QMat:
    return mul_matrix(x, "left")


def rmul_matrix(x: KElement) -> QMat:
    return mul_matrix(x, "right")
