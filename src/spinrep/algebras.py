"""Exact arithmetic for the coefficient algebras R, C, H and the octonions O.

Scalars are ``fractions.Fraction`` throughout, so every algebraic identity in
the test suite is checked with exact equality.  Each algebra has the first
1, 2, 4 or 8 units of the octonions, and ``mul`` and ``conj`` read the one
signed unit table ``spinrep.recipe._UNITS``, in which the octonions are pairs
of quaternions with the doubling product

    (a, b) * (c, d) = (a*c - conj(d)*b, d*a + b*conj(c))
    conj((a, b))    = (conj(a), -b)
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .linalg import ONE, ZERO, QMat, _exact
from .recipe import _UNITS  # e_t e_j = sign e_i as (i, sign), for the units of R, C, H and O
from .structure import FIELD_DIM

ALGEBRA_DIM = {**FIELD_DIM, "O": 8}


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
    return KElement(algebra, tuple(map(_exact, coeffs)))


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
    c = _exact(c)
    return KElement(a.algebra, tuple(c * x for x in a.coeffs))


def mul(a: KElement, b: KElement) -> KElement:
    _check_same(a, b)
    out = [ZERO] * len(a.coeffs)
    for x, row in zip(a.coeffs, _UNITS):
        if x:
            for y, (i, sign) in zip(b.coeffs, row):
                if y:
                    out[i] += x * y if sign > 0 else -x * y
    return KElement(a.algebra, tuple(out))


def conj(a: KElement) -> KElement:
    """conj e_u = (e_u e_u) e_u, off the table's diagonal: the real unit is
    fixed and the imaginary ones, which square to -1, are negated."""
    return KElement(a.algebra, tuple(c if _UNITS[u][u][1] > 0 else -c for u, c in enumerate(a.coeffs)))


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
