"""``spin_lift``, ``SpinorModule.operator``, the twisted adjoint and
``Multivector.times_reversion`` against frozen copies of the implementations
they replaced: the column reduction of ``spin_lift`` over ``Fraction`` columns
with ``Signature.bilinear``, an ``operator`` that sums scaled ``QMat`` blade
operators, the twisted adjoint as the full product ``g v gi`` read by
``vector_coords``, and ``x * x.reversion()``."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rational_rotation

from spinrep.clifford import Multivector, Signature, euclidean
from spinrep.errors import InputError, StructureError
from spinrep.linalg import QMat, SignedPerm
from spinrep.modules import octonion_module, sqrt_space_module
from spinrep.recipe import assemble_signature
from spinrep.spin import SpinElement, spin_lift, twisted_adjoint_matrix

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


# -- the twisted adjoint and x * rev(x) --------------------------------------------

def _frozen_times_reversion(x):
    return x * x.reversion()


def _frozen_inverse(x):
    """``Multivector.inverse`` with its versor test on the full product."""
    rev = x.reversion()
    t = _frozen_times_reversion(x)
    if t.is_scalar() and t.nums:
        return rev.scale(Fraction(t.den, t.nums[0]))
    return x.inverse()  # not a versor: the generic solve, unchanged


def _frozen_twisted_adjoint(g, gi, vec):
    return (g * vec * gi).vector_coords()


def _frozen_twisted_adjoint_matrix(g):
    sig = g.signature
    gi = _frozen_inverse(g.grade_involution())
    cols = [_frozen_twisted_adjoint(g, gi, Multivector.generator(sig, i)) for i in range(sig.n)]
    return [[cols[j][i] for j in range(sig.n)] for i in range(sig.n)]


def _same_outcome(g):
    """Both matrices equal, or both calls raise the same error class."""
    try:
        want = _frozen_twisted_adjoint_matrix(g)
    except (InputError, StructureError) as exc:
        with pytest.raises(type(exc)):
            twisted_adjoint_matrix(g)
        return type(exc)
    assert twisted_adjoint_matrix(g) == want
    return None


SIGNATURES = [(r, n - r) for n in range(1, 7) for r in range(n + 1)]
COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def multivectors(draw, sigs=SIGNATURES, max_terms=None):
    r, s = draw(st.sampled_from(sigs))
    sig = Signature(r, s)
    full = (1 << sig.n) - 1
    size = max_terms or full + 1
    terms = draw(st.dictionaries(st.integers(0, full), COEFFS, max_size=size))
    return Multivector.make(sig, terms)


@settings(max_examples=300, deadline=None)
@given(multivectors())
def test_times_reversion_matches_the_full_product(x):
    assert x.times_reversion() == _frozen_times_reversion(x)


@settings(max_examples=200, deadline=None)
@given(multivectors(), st.data())
def test_vector_part_times_is_the_grade_1_part_of_the_product(x, data):
    sig = x.signature
    y = data.draw(multivectors(sigs=[(sig.r, sig.s)]))
    full = x * y
    assert x.vector_part_times(y) == Multivector._of(sig, full.den, {m: v for m, v in full.nums.items()
                                                                     if m.bit_count() == 1})


@settings(max_examples=200, deadline=None)
@given(multivectors())
def test_inverse_matches_the_full_product_versor_test(x):
    if x.is_zero():
        return
    try:
        want = _frozen_inverse(x)
    except InputError:
        with pytest.raises(InputError):
            x.inverse()
        return
    assert x.inverse() == want


@st.composite
def versors(draw):
    """Products of 1 to 5 non-null rational vectors, odd counts included."""
    r, s = draw(st.sampled_from([(r, s) for r, s in SIGNATURES if r + s <= 5]))
    sig = Signature(r, s)
    g = Multivector.scalar(sig, draw(st.sampled_from([1, -2, Fraction(3, 5)])))
    for _ in range(draw(st.integers(1, 5))):
        coords = draw(st.lists(COEFFS, min_size=sig.n, max_size=sig.n).filter(
            lambda v: sig.bilinear(v, v) != 0))
        g = g * Multivector.vector(sig, coords)
    return g


@settings(max_examples=150, deadline=None)
@given(versors())
def test_twisted_adjoint_matrix_matches_the_full_product_on_versors(g):
    assert _same_outcome(g) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_twisted_adjoint_matrix_matches_the_full_product_on_spin_lifts(n, seed):
    g = spin_lift(_rotation(n, random.Random(seed))).value
    assert _same_outcome(g) is None
    assert _same_outcome(-g) is None


@settings(max_examples=200, deadline=None)
@given(multivectors(sigs=[sig for sig in SIGNATURES if sum(sig) <= 4], max_terms=4))
def test_twisted_adjoint_matrix_refuses_what_the_full_product_refused(g):
    # mostly outside the Clifford group: the full product is then not a vector
    _same_outcome(g)


@pytest.mark.parametrize("scalar, error", [(2, StructureError), (1, InputError)])
def test_twisted_adjoint_matrix_errors_in_cl04(scalar, error):
    # e1234 squares to +1 in Cl(0,4): 2 + e1234 is invertible but moves vectors
    # off grade 1, and 1 + e1234 is a zero divisor
    g = Multivector.make(Signature(0, 4), {0: scalar, 0b1111: 1})
    assert _same_outcome(g) is error
    with pytest.raises(error):
        twisted_adjoint_matrix(g)
