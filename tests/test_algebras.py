"""Exact identities of the coefficient algebras R, C, H and O."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrep import algebras as alg


def q(*coeffs):
    return alg.kelem("H", coeffs)


def o(*coeffs):
    return alg.kelem("O", coeffs)


fractions = st.fractions(min_value=-10, max_value=10, max_denominator=8)


def elements(algebra):
    dim = alg.ALGEBRA_DIM[algebra]
    return st.tuples(*([fractions] * dim)).map(lambda t: alg.kelem(algebra, t))


# -- defining products -------------------------------------------------------


def test_quaternion_ij_is_k():
    assert alg.mul(q(0, 1, 0, 0), q(0, 0, 1, 0)) == q(0, 0, 0, 1)


def test_octonion_first_half_units_multiply_like_quaternions():
    # (i,0)*(j,0) = (k,0) by the doubling product with b = d = 0
    i0 = o(0, 1, 0, 0, 0, 0, 0, 0)
    j0 = o(0, 0, 1, 0, 0, 0, 0, 0)
    k0 = o(0, 0, 0, 1, 0, 0, 0, 0)
    assert alg.mul(i0, j0) == k0


def test_octonion_doubled_unit_squares_to_minus_one():
    # (0,1)*(0,1) = (-1, 0): a = c = 0, b = d = 1 in the doubling product
    e4 = alg.unit("O", 4)
    assert alg.mul(e4, e4) == alg.kelem("O", (-1, 0, 0, 0, 0, 0, 0, 0))


def test_conjugation_examples():
    assert alg.conj(q(0, 1, 0, 0)) == q(0, -1, 0, 0)
    # (i, 1) -> (-i, -1)
    x = o(0, 1, 0, 0, 1, 0, 0, 0)
    assert alg.conj(x) == o(0, -1, 0, 0, -1, 0, 0, 0)
    r = alg.kelem("R", (Fraction(3, 2),))
    assert alg.conj(r) == r


def test_norm_sq_examples():
    assert alg.norm_sq(q(1, 1, 1, 1)) == 4
    assert alg.norm_sq(alg.unit("O", 4)) == 1
    assert alg.norm_sq(alg.kelem("C", (3, 4))) == 25


def test_algebra_tag_mismatch_rejected():
    from spinrep.errors import InputError

    with pytest.raises(InputError):
        alg.mul(alg.one("H"), alg.one("C"))


# -- algebraic laws ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(elements("H"), elements("H"), elements("H"))
def test_quaternion_associativity(x, y, z):
    assert alg.mul(x, alg.mul(y, z)) == alg.mul(alg.mul(x, y), z)


def test_quaternion_associativity_exhaustive_on_basis():
    basis = alg.basis("H")
    for x in basis:
        for y in basis:
            for z in basis:
                assert alg.mul(x, alg.mul(y, z)) == alg.mul(alg.mul(x, y), z)


@settings(max_examples=60, deadline=None)
@given(elements("O"), elements("O"))
def test_octonion_alternativity(x, y):
    xx = alg.mul(x, x)
    assert alg.mul(x, alg.mul(x, y)) == alg.mul(xx, y)
    assert alg.mul(alg.mul(y, x), x) == alg.mul(y, xx)


def test_octonion_nonassociative_triple():
    # (e1 e2) e4 = -e1 (e2 e4): a nonzero associator
    e1, e2, e4 = alg.unit("O", 1), alg.unit("O", 2), alg.unit("O", 4)
    left = alg.mul(alg.mul(e1, e2), e4)
    right = alg.mul(e1, alg.mul(e2, e4))
    assert left == alg.neg(right) and not left.is_zero()


@settings(max_examples=60, deadline=None)
@given(elements("H"), elements("H"))
def test_conj_antiautomorphism_on_h(x, y):
    assert alg.conj(alg.mul(x, y)) == alg.mul(alg.conj(y), alg.conj(x))


@pytest.mark.parametrize("algebra", ["R", "C", "H", "O"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_norm_multiplicativity(algebra, data):
    x = data.draw(elements(algebra))
    y = data.draw(elements(algebra))
    assert alg.norm_sq(alg.mul(x, y)) == alg.norm_sq(x) * alg.norm_sq(y)


@pytest.mark.parametrize("algebra", ["C", "H", "O"])
def test_conj_involution_on_basis(algebra):
    for b in alg.basis(algebra):
        assert alg.conj(alg.conj(b)) == b


def test_mul_matrix_is_multiplication():
    import random

    rng = random.Random(11)
    for algebra in ("C", "H", "O"):
        d = alg.ALGEBRA_DIM[algebra]
        x = alg.kelem(algebra, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        y = alg.kelem(algebra, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        left = alg.mul_matrix(x, "left").apply(list(y.coeffs))
        assert tuple(left) == alg.mul(x, y).coeffs
        right = alg.mul_matrix(x, "right").apply(list(y.coeffs))
        assert tuple(right) == alg.mul(y, x).coeffs


# -- the signed unit table against the doubling product ------------------------
#
# The R and C formulas and the quaternion doubling product that ``mul`` and
# ``conj`` evaluated before they read the one signed unit table, frozen here
# as the reference.

_H_REFERENCE = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)


def _reference_h_mul(a, b):
    out = [Fraction(0)] * 4
    for i, x in enumerate(a):
        if not x:
            continue
        row = _H_REFERENCE[i]
        for j, y in enumerate(b):
            if not y:
                continue
            idx, sgn = row[j]
            out[idx] += x * y if sgn > 0 else -x * y
    return tuple(out)


def _reference_h_conj(a):
    return (a[0], -a[1], -a[2], -a[3])


def reference_mul(a, b):
    ca, cb = a.coeffs, b.coeffs
    if a.algebra == "R":
        return alg.kelem("R", (ca[0] * cb[0],))
    if a.algebra == "C":
        return alg.kelem("C", (ca[0] * cb[0] - ca[1] * cb[1], ca[0] * cb[1] + ca[1] * cb[0]))
    if a.algebra == "H":
        return alg.kelem("H", _reference_h_mul(ca, cb))
    # (p, q)(r, s) = (pr - conj(s) q, sp + q conj(r))
    p, q, r, s = ca[:4], ca[4:], cb[:4], cb[4:]
    first = tuple(x - y for x, y in zip(_reference_h_mul(p, r), _reference_h_mul(_reference_h_conj(s), q)))
    second = tuple(x + y for x, y in zip(_reference_h_mul(s, p), _reference_h_mul(q, _reference_h_conj(r))))
    return alg.kelem("O", first + second)


def reference_conj(a):
    c = a.coeffs
    if a.algebra == "R":
        return a
    if a.algebra == "O":
        return alg.kelem("O", _reference_h_conj(c[:4]) + tuple(-x for x in c[4:]))
    return alg.kelem(a.algebra, (c[0],) + tuple(-x for x in c[1:]))


@pytest.mark.parametrize("algebra", ["R", "C", "H", "O"])
def test_table_product_matches_the_doubling_product_on_units(algebra):
    for x in alg.basis(algebra):
        assert alg.conj(x) == reference_conj(x)
        for y in alg.basis(algebra):
            assert alg.mul(x, y) == reference_mul(x, y)


@pytest.mark.parametrize("algebra", ["R", "C", "H", "O"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_product_matches_the_doubling_product(algebra, data):
    x = data.draw(elements(algebra))
    y = data.draw(elements(algebra))
    assert alg.mul(x, y) == reference_mul(x, y)
    assert alg.conj(x) == reference_conj(x)


def test_octonion_unit_blocks_are_left_multiplications():
    from spinrep.recipe import _unit_blocks

    for t in range(8):
        assert _unit_blocks([[(t, 1)]], 8).to_qmat() == alg.mul_matrix(alg.unit("O", t), "left")
        assert _unit_blocks([[(t, -1)]], 8).to_qmat() == alg.mul_matrix(alg.neg(alg.unit("O", t)), "left")
