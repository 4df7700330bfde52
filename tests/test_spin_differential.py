"""``spin_lift`` and ``SpinorModule.operator`` against frozen copies of the
``Fraction`` implementations they replaced: the column reduction of
``spin_lift`` over ``Fraction`` columns with ``Signature.bilinear``, and an
``operator`` that sums scaled ``QMat`` blade operators."""

import random
from fractions import Fraction

import pytest

from conftest import random_rational_rotation

from spinrep.clifford import Multivector, Signature, euclidean
from spinrep.errors import InputError, StructureError
from spinrep.linalg import QMat, SignedPerm
from spinrep.modules import assemble_signature, octonion_module, sqrt_space_module
from spinrep.spin import SpinElement, spin_lift

ZERO, ONE = Fraction(0), Fraction(1)


def _frozen_is_orthogonal(rows, n):
    if len(rows) != n or any(len(r) != n for r in rows):
        return False
    for i in range(n):
        for j in range(n):
            if sum(rows[k][i] * rows[k][j] for k in range(n)) != (1 if i == j else 0):
                return False
    return True


def _frozen_spin_lift(rotation, sig=None):
    rows = [[Fraction(c) for c in r] for r in rotation]
    n = len(rows)
    if sig is None:
        sig = euclidean(n)
    if sig.r != 0:
        raise InputError("spin_lift expects a Euclidean signature")
    if sig.n != n:
        raise InputError("matrix size does not match signature")
    if not _frozen_is_orthogonal(rows, n):
        raise InputError("input is not an exact special orthogonal matrix")
    mirrors = []
    work = [row[:] for row in rows]
    for j in range(n):
        col = [work[i][j] for i in range(n)]
        target = [ONE if i == j else ZERO for i in range(n)]
        if col == target:
            continue
        w = [a - b for a, b in zip(col, target)]
        mirrors.append(w)
        ww = sig.bilinear(w, w)
        for c in range(j, n):
            column = [work[i][c] for i in range(n)]
            coef = 2 * sig.bilinear(column, w) / ww
            for i in range(n):
                work[i][c] = column[i] - coef * w[i]
    if any(work[i][j] != (1 if i == j else 0) for i in range(n) for j in range(n)):
        raise StructureError("reflection reduction did not reach the identity")
    if len(mirrors) % 2 != 0:
        raise InputError("input is not an exact special orthogonal matrix")
    g = Multivector.scalar(sig, 1)
    for w in mirrors:
        g = g * Multivector.vector(sig, w)
    return SpinElement.from_multivector(g)


def _rotation(n, rng):
    if n == 1:
        return [[Fraction(1)]]
    return random_rational_rotation(n, rng, factors=rng.randint(1, 2 * n))


@pytest.mark.parametrize("n", range(1, 9))
def test_spin_lift_matches_the_fraction_reduction(n):
    rng = random.Random(2000 + n)
    for _ in range(6 if n < 8 else 3):
        rot = _rotation(n, rng)
        got, want = spin_lift(rot), _frozen_spin_lift(rot)
        assert got.value == want.value and got.value.terms == want.value.terms
        assert got.norm2 == want.norm2


def _raised(f, *args):
    try:
        f(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return None


def _bad_inputs():
    rng = random.Random(7)
    rot3 = random_rational_rotation(3, rng)
    rot4 = random_rational_rotation(4, rng)
    flip = [row[:] for row in rot4]
    flip[0] = [-c for c in flip[0]]  # determinant -1
    odd_cycle = [[int(i == (j + 1) % 4) if max(i, j) < 4 else int(i == j) for j in range(5)] for i in range(5)]
    sheared = [row[:] for row in rot3]
    sheared[0][1] += Fraction(1, 7)
    return [
        ([[1, 0, 0], [0, 1, 0]], None),  # 2 x 3
        ([[1, 0], [0]], None),  # ragged
        ([[1, 0, 0], [0, 1, 0], [0, 0]], None),
        ([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]], None),
        (sheared, None),
        ([[2, 0], [0, Fraction(1, 2)]], None),  # det 1, not orthogonal
        ([[-1, 0], [0, 1]], None),
        (flip, None),
        (odd_cycle, None),
        (rot3, Signature(1, 2)),
        (rot4, Signature(2, 2)),
        (rot3, euclidean(4)),
        ([], None),
        ([["a"]], None),
    ]


@pytest.mark.parametrize("case", range(len(_bad_inputs())))
def test_spin_lift_refuses_what_the_fraction_reduction_refused(case):
    rotation, sig = _bad_inputs()[case]
    want = _raised(_frozen_spin_lift, rotation, sig)
    assert want is not None
    assert _raised(spin_lift, rotation, sig) == want


def _frozen_operator(module, x):
    """Sum of scaled QMat blade operators, each a chain of the QMat generators."""
    cache = {}

    def blade(mask):
        if mask not in cache:
            if mask == 0:
                cache[mask] = QMat.identity(module.real_dim)
            else:
                low = mask & -mask
                cache[mask] = module.generators[low.bit_length() - 1] * blade(mask & (mask - 1))
        return cache[mask]

    out = QMat.zeros(module.real_dim, module.real_dim)
    for mask, c in x.terms.items():
        out = out + blade(mask).scale(c)
    return out


def _modules():
    return ([assemble_signature(r, s) for r, s in [(0, 1), (1, 0), (0, 3), (2, 1), (1, 3), (0, 6), (3, 3), (0, 8)]]
            + [octonion_module(k) for k in (4, 7, 8)]
            + [sqrt_space_module(n) for n in (1, 2, 3, 4)])


def test_operator_cases_cover_both_kinds_of_generators():
    assert {type(m.gens[0]) for m in _modules()} == {SignedPerm, QMat}


@pytest.mark.parametrize("module", _modules(), ids=lambda m: f"{m.family}-{m.signature}")
def test_operator_matches_the_qmat_sum(module):
    sig = module.signature
    rng = random.Random(sig.r * 31 + sig.s * 7 + module.real_dim)
    full = (1 << sig.n) - 1
    samples = [Multivector.scalar(sig, 0), Multivector.scalar(sig, Fraction(-3, 4)),
               Multivector.make(sig, {full: Fraction(5, 6)}),
               Multivector.make(sig, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for m in range(full + 1)})]
    for _ in range(4):
        samples.append(Multivector.make(sig, {rng.randint(0, full): Fraction(rng.randint(-9, 9), rng.randint(1, 8))
                                              for _ in range(rng.randint(1, 6))}))
    for x in samples:
        got = module.operator(x)
        assert isinstance(got, QMat)
        assert got == _frozen_operator(module, x)
        assert all(v for row in got.rows for v in row.values())
