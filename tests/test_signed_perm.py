"""The exact signed-permutation type against QMat, and the audit's monomial
path against its rational one."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrep import recipe, structure
from spinrep.kmatrix import commutant
from spinrep.linalg import QMat, SignedPerm
from spinrep.recipe import assemble_signature, even_summand, intertwiners
from spinrep.structure import audit

from test_gamma_manifest import sweep_jobs


def _qmat(perm, signs) -> QMat:
    """Column j goes to row perm[j] with sign signs[j]."""
    return QMat.from_entries(len(perm), len(perm), {(i, j): s for j, (i, s) in enumerate(zip(perm, signs))})


@st.composite
def signed_perm_pairs(draw):
    d = draw(st.integers(1, 6))
    mats = []
    for _ in range(2):
        perm = draw(st.permutations(range(d)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
        mats.append(_qmat(perm, signs))
    return mats


@settings(max_examples=200, deadline=None)
@given(signed_perm_pairs())
def test_signed_perm_operations_match_qmat(pair):
    a, b = pair
    pa, pb = SignedPerm.of(a), SignedPerm.of(b)
    d = a.nrows
    assert (pa.nrows, pa.ncols) == (d, d)
    assert SignedPerm.of(pa) is pa
    assert pa * pb == SignedPerm.of(a * b)
    assert -pa == SignedPerm.of(-a)
    assert pa.scale(-1) == SignedPerm.of(a.scale(-1)) and pa.scale(1) == pa
    assert pa.transpose() == SignedPerm.of(a.transpose())
    assert (pa == pb) == (a == b)
    assert SignedPerm.identity(d) == SignedPerm.of(QMat.identity(d))
    signs = [1 if k % 3 else -1 for k in range(d)]
    assert SignedPerm.diag(signs) == SignedPerm.of(QMat.diag(signs))


@pytest.mark.parametrize("dense", [
    [[1, 0], [0, 2]],
    [[Fraction(1, 2), 0], [0, 1]],
    [[1, 0], [1, 0]],
    [[1, 1], [0, 1]],
    [[0, 0], [0, 1]],
])
def test_of_refuses_non_monomial(dense):
    entries = {(i, j): v for i, r in enumerate(dense) for j, v in enumerate(r)}
    assert SignedPerm.of(QMat.from_entries(2, 2, entries)) is None
    assert SignedPerm.of(QMat.zeros(2, 3)) is None


def test_scale_and_diag_refuse_other_values():
    with pytest.raises(ValueError):
        SignedPerm.identity(2).scale(2)
    with pytest.raises(ValueError):
        SignedPerm.diag([1, 0])


# ---------------------------------------------------------------------------
# audit: the SignedPerm path against the QMat path
# ---------------------------------------------------------------------------


def _operands(m):
    return [m.signature, m.field, list(m.generators), m.spin_metric,
            [QMat.identity(m.real_dim), *m.right_units], m.real_grading(), m.variant]


def _audit(args, rational: bool):
    """(checks, volume_sign, type of the matrices the Clifford check saw)."""
    seen = []
    clifford = structure.verify_clifford_condition

    def spy(gens, sig):
        seen.append(type(gens[0]))
        return clifford(gens, sig)

    with mock.patch.object(structure, "verify_clifford_condition", spy):
        if rational:
            with mock.patch.object(SignedPerm, "of", staticmethod(lambda m: None)):
                rep = audit(*args)
        else:
            rep = audit(*args)
    return rep.checks, rep.volume_sign, seen[0]


AUDIT_MODULES = sweep_jobs() + [(f"recipe {r},{s} plus", lambda r=r, s=s: assemble_signature(r, s))
                                for r, s in ((0, 15), (3, 9))]


@pytest.mark.parametrize("key, build", AUDIT_MODULES, ids=[key for key, _ in AUDIT_MODULES])
def test_monomial_audit_matches_rational_audit(key, build):
    args = _operands(build())
    monomial = all(SignedPerm.of(m) is not None for m in [*args[2], args[3], *args[4]])
    checks, sign, kind = _audit(args, rational=False)
    assert kind is (SignedPerm if monomial else QMat)
    assert (checks, sign, QMat) == _audit(args, rational=True)
    assert all(ok for _, ok, _ in checks)


def _set(m: QMat, i: int, j: int, v) -> QMat:
    rows = [dict(r) for r in m.rows]
    rows[i] = {j: Fraction(v)}
    return QMat(m.nrows, m.ncols, rows)


def _negate(m):
    (j, v), = m.rows[0].items()
    return _set(m, 0, j, -v), True


def _swap_rows(m):
    rows = [dict(r) for r in m.rows]
    rows[0], rows[1] = rows[1], rows[0]
    return QMat(m.nrows, m.ncols, rows), True


def _two(m):
    (j, v), = m.rows[0].items()
    return _set(m, 0, j, 2 * v), False


def _half(m):
    (j, v), = m.rows[0].items()
    return _set(m, 0, j, v / 2), False


def _repeat_column(m):
    (j, v), = m.rows[1].items()
    return _set(m, 0, j, v), False


@pytest.mark.parametrize("corrupt", [_negate, _swap_rows, _two, _half, _repeat_column])
@pytest.mark.parametrize("sig", [(1, 1), (0, 3), (2, 5), (5, 5), (3, 9)])
@pytest.mark.parametrize("target", ["generator", "metric", "unit"])
def test_corrupted_audit_matches_rational_audit(corrupt, sig, target):
    args = _operands(assemble_signature(*sig))
    if target == "generator":
        k = sum(sig) // 2
        args[2][k], monomial = corrupt(args[2][k])
    elif target == "metric":
        args[3], monomial = corrupt(args[3])
    else:
        args[4][-1], monomial = corrupt(args[4][-1])
    checks, sign, kind = _audit(args, rational=False)
    assert kind is (SignedPerm if monomial else QMat)
    assert (checks, sign, QMat) == _audit(args, rational=True)
    assert not all(ok for _, ok, _ in checks)


# ---------------------------------------------------------------------------
# the even commutant from SignedPerm products
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sig", [(0, n) for n in range(1, 14)] + [(n, 0) for n in range(1, 10)] + [(2, 3), (4, 4)])
def test_even_commutant_matches_rational_products(sig):
    """The even generators and the volume eigenspace as QMat products, as
    ``intertwiners`` formed them before they were SignedPerm products."""
    m = assemble_signature(*sig)
    d = m.real_dim
    gens = [m.generators[0] * g for g in m.generators[1:]] or [QMat.identity(d)]
    vol = m.blade_operator((1 << sum(sig)) - 1).to_qmat()
    if sum(sig) % 2 == 0 and vol * vol == QMat.identity(d):
        plus = [i for i in range(d) if vol.get(i, i) == 1]
        assert even_summand(m) == plus
        gens = [recipe._submatrix(g, plus) for g in gens]
    else:
        assert even_summand(m) is None
    assert intertwiners(m, even_only=True).basis == commutant(gens, gens[0].nrows).basis
