"""Realification, graded tensor operators and commutant computation."""

import random
from fractions import Fraction

import pytest

from spinrep import algebras as alg
from spinrep.clifford import Signature, euclidean
from spinrep.errors import InputError
from spinrep.kmatrix import commutant
from spinrep.linalg import QMat, SignedPerm
from spinrep.modules import c4_action
from spinrep.recipe import (GradedSpace, _left_version, _unit_blocks, assemble_euclidean, tensor_op_left,
                            tensor_op_right)
from spinrep.structure import verify_clifford_condition


def test_realify_left_multiplication_by_i():
    real = alg.mul_matrix(alg.unit("H", 1), "left")
    # columns are the coordinates of i * (1, i, j, k)
    expected = QMat.from_entries(4, 4, {(0, 1): -1, (1, 0): 1, (2, 3): -1, (3, 2): 1})
    assert real == expected


def test_realify_identity_and_shapes():
    one = (0, 1)
    assert _unit_blocks([[one if i == j else None for j in range(3)] for i in range(3)], 2) == SignedPerm.identity(6)
    assert _unit_blocks([[one, None], [None, one]], 4).nrows == 8


def _random_blocks(rng, k, n):
    """A random n x n K-matrix of signed units, one in every row and column."""
    cols = rng.sample(range(n), n)
    return [[(rng.randrange(k), rng.choice((1, -1))) if j == cols[i] else None for j in range(n)]
            for i in range(n)]


def _product(a, b, field):
    """Matrix product over K of two signed-unit K-matrices, by ``alg.mul``."""
    def element(entry):
        return alg.zero(field) if entry is None else alg.scale(alg.unit(field, entry[0]), entry[1])

    rows = []
    for row in a:
        out = []
        for j in range(len(b)):
            coeffs = [sum(c) for c in zip(*(alg.mul(element(x), element(b[t][j])).coeffs
                                            for t, x in enumerate(row)))]
            unit = [u for u, c in enumerate(coeffs) if c]
            out.append((unit[0], int(coeffs[unit[0]])) if unit else None)
        rows.append(out)
    return rows


@pytest.mark.parametrize("field", ["C", "H"])
@pytest.mark.parametrize("side", ["right", "left"])
def test_realify_is_homomorphism(field, side):
    """Realification of right-module maps, and their left versions J R J,
    turn products over K into products of real matrices (for the associative
    K; the octonions are not)."""
    rng = random.Random(f"{field}-{side}")
    k = alg.ALGEBRA_DIM[field]
    for _ in range(5):
        a, b = _random_blocks(rng, k, 3), _random_blocks(rng, k, 3)
        real = [_unit_blocks(m, k) for m in (a, b, _product(a, b, field))]
        if side == "left":
            real = [_left_version(m, k) for m in real]
        assert real[2] == real[0] * real[1]


@pytest.mark.parametrize("field", ["C", "H"])
def test_left_version_is_right_multiplication_by_conjugate(field):
    k = alg.ALGEBRA_DIM[field]
    rng = random.Random(k)
    for _ in range(5):
        e = alg.kelem(field, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)])
        assert _left_version(alg.mul_matrix(e, "left"), k) == alg.mul_matrix(alg.conj(e), "right")


def test_koszul_sign_on_odd_block():
    # S odd, m of degree -1: the sign -1 shows up on exactly that block
    m_space = GradedSpace("R", 2, (1, -1))
    n_space = GradedSpace("R", 1, None)
    s = QMat.from_entries(1, 1, {(0, 0): Fraction(1)})
    op = tensor_op_right(s, m_space, n_space, odd=True)
    assert op == QMat.diag([1, -1])
    # identity tensor identity is the identity
    t = QMat.identity(2)
    assert tensor_op_left(t, m_space, n_space) * tensor_op_right(s, m_space, n_space, odd=False) == QMat.identity(2)


def test_graded_tensor_clifford_condition_on_s4_square():
    """(c4R(u) (x) 1 + 1 (x) c4L(v))^2 = -(|u|^2 + |v|^2) I, the dimension-8
    Clifford condition, via the one-slot tensor builders."""
    s4 = assemble_euclidean(4)
    m_space = s4.space
    n_space = GradedSpace("H", 2, (1, -1))
    rng = random.Random(4)
    for _ in range(4):
        u = alg.kelem("H", [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        v = alg.kelem("H", [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        left = tensor_op_left(c4_action(u), m_space, n_space)
        right = tensor_op_right(_left_version(c4_action(v), 4), m_space, n_space, odd=True)
        total = left + right
        expect = QMat.identity(16).scale(-(alg.norm_sq(u) + alg.norm_sq(v)))
        assert total * total == expect


def test_koszul_coherence():
    # (T (x) S)(T' (x) S') = (-1)^(deg S deg T') (T T' (x) S S') on odd ops
    m_space = GradedSpace("H", 2, (1, -1))
    n_space = GradedSpace("H", 2, (1, -1))
    rng = random.Random(12)
    units = [alg.kelem("H", [Fraction(rng.randint(-2, 2)) for _ in range(4)]) for _ in range(4)]
    t1, t2 = c4_action(units[0]), c4_action(units[1])
    s1, s2 = _left_version(c4_action(units[2]), 4), _left_version(c4_action(units[3]), 4)

    def graded(t, s, odd=True):
        return tensor_op_left(t, m_space, n_space) * tensor_op_right(s, m_space, n_space, odd=odd)

    lhs = graded(t1, s1) * graded(t2, s2)
    rhs = graded(t1 * t2, s1 * s2, odd=False)
    # deg S = deg T' = 1: one sign flip
    assert lhs == rhs.scale(-1)


def test_commutant_examples():
    # left multiplications by i and j on H: the Cl(0,2) module, commutant H
    li = alg.mul_matrix(alg.unit("H", 1), "left")
    lj = alg.mul_matrix(alg.unit("H", 2), "left")
    com = commutant([li, lj], 4)
    assert com.real_dimension == 4 and com.division_algebra == "H"
    for b in com.basis:
        assert b * li == li * b and b * lj == lj * b

    # irreducible Cl(0,6) action: commutant R
    m6 = assemble_euclidean(6)
    com6 = commutant(list(m6.generators), 8)
    assert com6.real_dimension == 1 and com6.division_algebra == "R"

    # even part of the Cl(0,1) module C is the scalars: commutant M2(R)
    com_even = commutant([QMat.identity(2)], 2)
    assert com_even.real_dimension == 4 and com_even.division_algebra == "M2(R)"


def test_commutant_rejects_empty():
    with pytest.raises(InputError):
        commutant([], 4)


def test_commutant_basis_independent_and_commuting():
    m = assemble_euclidean(5)
    com = commutant(list(m.generators), m.real_dim)
    assert com.real_dimension == 2
    # linear independence: distinct support patterns after reduction
    from spinrep.linalg import Rref

    rr = Rref()
    for b in com.basis:
        row = {i * m.real_dim + j: v for i, j, v in b.entries()}
        assert rr.add_row(row) is not None


def test_verify_clifford_condition_examples():
    m2 = assemble_euclidean(2)
    rep = verify_clifford_condition(list(m2.generators), euclidean(2))
    assert rep.ok

    li = m2.generators[0]
    rep_bad = verify_clifford_condition([li, li], euclidean(2))
    assert not rep_bad.ok
    assert (1, 2) in rep_bad.violations

    from spinrep.recipe import assemble_positive

    m40 = assemble_positive(4)
    rep_pos = verify_clifford_condition(list(m40.generators), Signature(4, 0))
    assert rep_pos.ok
