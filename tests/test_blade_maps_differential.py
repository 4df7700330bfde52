"""``clifford.psi_embed`` and ``clifford.hodge_star``, the blade maps on the
integer numerators, against frozen copies of the generator-product and
``Fraction``-sum versions they replaced: equal (``==``) on random rational
multivectors, the zero and the scalars of every ``Cl(r,s)`` with
1 <= r + s <= 7.  A second test checks that psi is an even algebra
homomorphism Cl(r,s) -> Cl(r,s+1) for r + s <= 5."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrep.clifford import Multivector, hodge_star, psi_embed, reorder_sign
from spinrep.linalg import ZERO
from spinrep.structure import Signature


def _frozen_psi_embed(x):
    """e_i -> e_i e_{n+1}, multiplied out blade by blade in Cl(r,s+1)."""
    src = x.signature
    target = Signature(src.r, src.s + 1)
    e_last = Multivector.generator(target, target.n - 1)
    out = Multivector.scalar(target, 0)
    for mask, c in x.terms.items():
        word = Multivector.scalar(target, c)
        for i in range(src.n):
            if mask >> i & 1:
                word = word * (Multivector.generator(target, i) * e_last)
        out = out + word
    return out


def _frozen_hodge_star(x):
    """Euclidean star: e_A -> reorder_sign(A, A^c) e_{A^c}, summed in Fractions."""
    full = (1 << x.signature.n) - 1
    out = {}
    for mask, c in x.terms.items():
        comp = full ^ mask
        out[comp] = out.get(comp, ZERO) + reorder_sign(mask, comp) * c
    return Multivector.make(x.signature, out)


def _same(x):
    assert psi_embed(x) == _frozen_psi_embed(x)
    assert hodge_star(x) == _frozen_hodge_star(x)


SIGNATURES = [Signature(r, n - r) for n in range(1, 8) for r in range(n + 1)]
COEFFS = st.one_of(st.integers(-3, 3), st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def _multivector(draw, sig):
    masks = st.integers(0, (1 << sig.n) - 1)
    return Multivector.make(sig, draw(st.dictionaries(masks, COEFFS, max_size=12)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SIGNATURES), st.data())
def test_blade_maps_match_the_frozen_copies(sig, data):
    _same(data.draw(_multivector(sig)))


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_blade_maps_match_on_zero_scalars_and_every_blade(sig):
    cases = [Multivector(sig), Multivector.scalar(sig, 1), Multivector.scalar(sig, Fraction(-7, 3))]
    cases += [Multivector.blade(sig, m, Fraction(m + 1, 2)) for m in range(1 << sig.n)]
    for x in cases:
        _same(x)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([sig for sig in SIGNATURES if sig.n <= 5]), st.data())
def test_psi_is_an_even_algebra_homomorphism(sig, data):
    x, y = data.draw(_multivector(sig)), data.draw(_multivector(sig))
    image = psi_embed(x)
    assert image.signature == Signature(sig.r, sig.s + 1)
    assert image.is_even()
    assert psi_embed(x * y) == image * psi_embed(y)
    assert psi_embed(x + y) == image + psi_embed(y)
