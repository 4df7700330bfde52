"""Blade arithmetic, involutions, volume elements, the even-part embedding
and the Euclidean Hodge star."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrep.clifford import (
    Multivector,
    Signature,
    blade_product,
    euclidean,
    hodge_star,
    psi_embed,
    reorder_sign,
    volume_element,
)
from spinrep.errors import InputError
from spinrep.linalg import sparse_solve
from spinrep.recipe import assemble_euclidean


def mv(sig, terms):
    return Multivector.make(sig, {m: Fraction(c) for m, c in terms.items()})


def test_blade_product_signs():
    assert blade_product(euclidean(2), 0b01, 0b01) == (Fraction(-1), 0)
    assert blade_product(Signature(2, 0), 0b01, 0b01) == (Fraction(1), 0)
    assert blade_product(euclidean(2), 0b01, 0b10) == (Fraction(1), 0b11)


# Reference blade product: the loop-based reorder parity and square-sign
# rule, independent of the bit-mask kernel in spinrep.clifford.
def _ref_reorder_sign(a, b):
    total = 0
    j = 0
    bb = b
    while bb:
        if bb & 1:
            total += bin(a >> (j + 1)).count("1")
        bb >>= 1
        j += 1
    return -1 if total & 1 else 1


def _ref_blade_product(sig, a, b):
    sign = _ref_reorder_sign(a, b)
    rep = a & b
    i = 0
    while rep:
        if rep & 1 and sig.gen_square(i) < 0:
            sign = -sign
        rep >>= 1
        i += 1
    return sign, a ^ b


def _ref_terms_product(sig, x_terms, y_terms):
    """The product of two Fraction-dict multivectors, as a Fraction dict."""
    out = {}
    for ma, ca in x_terms.items():
        for mb, cb in y_terms.items():
            sign, mask = _ref_blade_product(sig, ma, mb)
            out[mask] = out.get(mask, 0) + sign * ca * cb
    return {m: Fraction(c) for m, c in out.items() if c}


def _ref_product(x, y):
    return Multivector.make(x.signature, _ref_terms_product(x.signature, x.terms, y.terms))


def test_blade_sign_rule_exhaustive():
    for n in range(1, 6):
        for r in range(n + 1):
            sig = Signature(r, n - r)
            for a in range(1 << n):
                for b in range(1 << n):
                    sign, mask = _ref_blade_product(sig, a, b)
                    assert blade_product(sig, a, b) == (Fraction(sign), mask)
                    assert reorder_sign(a, b) == _ref_reorder_sign(a, b)


_COEFF = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@st.composite
def _operand(draw, sig):
    full = (1 << sig.n) - 1
    shape = draw(st.sampled_from(["sparse", "empty", "scalar", "top", "dense"]))
    if shape == "empty":
        masks = []
    elif shape == "scalar":
        masks = [0]
    elif shape == "top":
        masks = [full]
    elif shape == "dense":
        masks = range(full + 1)
    else:
        masks = draw(st.lists(st.integers(0, full), max_size=12))
    return Multivector.make(sig, {m: draw(_COEFF) for m in masks})


@st.composite
def _signature_and_operands(draw):
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, n))
    sig = Signature(r, n - r)
    return sig, draw(_operand(sig)), draw(_operand(sig))


@settings(max_examples=150, deadline=None)
@given(_signature_and_operands())
def test_geometric_product_matches_reference(case):
    _, x, y = case
    prod = x * y
    assert prod == _ref_product(x, y)
    assert all(type(c) is Fraction and c for c in prod.terms.values())


def test_geometric_product_examples():
    sig = euclidean(2)
    e1 = Multivector.generator(sig, 0)
    e2 = Multivector.generator(sig, 1)
    assert (e1 + e2) * (e1 - e2) == mv(sig, {0b11: -2})
    one = Multivector.scalar(sig, 1)
    x = mv(sig, {0: 3, 0b01: -2, 0b11: Fraction(1, 2)})
    assert one * x == x

    sig3 = euclidean(3)
    vol = volume_element(sig3)
    assert vol * vol == Multivector.scalar(sig3, 1)


def test_geometric_product_associativity_random():
    rng = random.Random(5)
    for n in (3, 5, 8):
        sig = euclidean(n) if n != 5 else Signature(2, 3)
        for _ in range(6):
            xs = []
            for _ in range(3):
                terms = {
                    rng.randrange(1 << sig.n): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(4)
                }
                xs.append(Multivector.make(sig, terms))
            a, b, c = xs
            assert (a * b) * c == a * (b * c)


def test_anticommutation_exhaustive():
    for r, s in [(0, 4), (2, 2), (4, 0), (1, 3)]:
        sig = Signature(r, s)
        gens = [Multivector.generator(sig, i) for i in range(sig.n)]
        for i in range(sig.n):
            for j in range(sig.n):
                anti = gens[i] * gens[j] + gens[j] * gens[i]
                if i == j:
                    assert anti == Multivector.scalar(sig, 2 * sig.gen_square(i))
                else:
                    assert anti.is_zero()


def test_involutions():
    sig = euclidean(3)
    e1 = Multivector.generator(sig, 0)
    e12 = mv(sig, {0b011: 1})
    e123 = mv(sig, {0b111: 1})
    assert e1.grade_involution() == -e1
    assert e12.grade_involution() == e12
    assert (Multivector.scalar(sig, 1) + e1).grade_involution() == Multivector.scalar(sig, 1) - e1
    assert e12.reversion() == -e12
    assert Multivector.scalar(sig, 7).reversion() == Multivector.scalar(sig, 7)
    assert e123.reversion() == -e123


def test_involution_properties_random():
    rng = random.Random(9)
    sig = Signature(1, 3)

    def sample():
        terms = {
            rng.randrange(1 << sig.n): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(5)
        }
        return Multivector.make(sig, terms)

    for _ in range(8):
        x = sample()
        y = sample()
        assert x.grade_involution().grade_involution() == x
        assert x.reversion().reversion() == x
        assert x.grade_involution().reversion() == x.reversion().grade_involution()
        assert (x * y).reversion() == y.reversion() * x.reversion()


def test_volume_square_closed_form():
    for n in range(1, 13):
        vol = volume_element(euclidean(n))
        assert vol * vol == Multivector.scalar(euclidean(n), (-1) ** (n * (n + 1) // 2))
    # Euclidean multiples of 4 square to +1
    for n in (4, 8, 12):
        vol = volume_element(euclidean(n))
        assert vol * vol == Multivector.scalar(euclidean(n), 1)
    assert volume_element(euclidean(1)) == Multivector.generator(euclidean(1), 0)


def test_psi_embed():
    src = euclidean(2)
    tgt = euclidean(3)
    e1 = Multivector.generator(src, 0)
    image = psi_embed(e1)
    assert image == Multivector.make(tgt, {0b101: 1})
    assert psi_embed(Multivector.scalar(src, 1)) == Multivector.scalar(tgt, 1)
    sq = image * image
    assert sq == Multivector.scalar(tgt, -1)
    # images are even and multiplicative
    rng = random.Random(2)
    for _ in range(5):
        terms = {rng.randrange(4): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        x = Multivector.make(src, terms)
        y = Multivector.make(src, {rng.randrange(4): Fraction(rng.randint(-3, 3))})
        assert psi_embed(x * y) == psi_embed(x) * psi_embed(y)
        assert psi_embed(x).is_even()


def test_hodge_star_examples():
    sig3 = euclidean(3)
    e1 = Multivector.generator(sig3, 0)
    assert hodge_star(e1) == mv(sig3, {0b110: 1})
    assert hodge_star(Multivector.scalar(sig3, 1)) == mv(sig3, {0b111: 1})
    sig4 = euclidean(4)
    assert hodge_star(mv(sig4, {0b0011: 1})) == mv(sig4, {0b1100: 1})


def test_hodge_star_properties():
    for n in range(1, 7):
        sig = euclidean(n)
        vol = mv(sig, {(1 << n) - 1: 1})
        for mask in range(1 << n):
            blade = mv(sig, {mask: 1})
            star = hodge_star(blade)
            # omega ^ star(omega) = |omega|^2 vol for basis blades; the blades
            # share no factor, so their wedge is their geometric product
            assert blade * star == vol
            # star star = (-1)^(k(n-k))
            k = bin(mask).count("1")
            sign = (-1) ** (k * (n - k))
            assert hodge_star(star) == blade.scale(sign)


def test_multivector_inverse():
    sig = Signature(1, 2)
    rng = random.Random(3)
    count = 0
    while count < 5:
        terms = {
            rng.randrange(1 << sig.n): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(3)
        }
        x = Multivector.make(sig, terms)
        if x.is_zero():
            continue
        try:
            inv = x.inverse()
        except InputError:
            continue
        assert x * inv == Multivector.scalar(sig, 1)
        count += 1


def test_constructor_refuses_coefficients_that_are_not_int_or_fraction():
    sig = euclidean(2)
    for c in (0.5, 1.0, "1/2", True, False):
        with pytest.raises(InputError):
            Multivector(sig, {0: c})
    assert Multivector(sig, {0: 2, 3: Fraction(-1, 3)}).terms == {0: 2, 3: Fraction(-1, 3)}
    # make converts exactly through Fraction
    assert Multivector.make(sig, {0: 0.5, 3: "1/3"}) == mv(sig, {0: Fraction(1, 2), 3: Fraction(1, 3)})


@pytest.mark.parametrize("call", [
    pytest.param(lambda: Multivector(euclidean(2), {1.0: 1}), id="float-mask"),
    pytest.param(lambda: Multivector.blade(euclidean(2), 1.5), id="blade-float-mask"),
    pytest.param(lambda: Multivector(euclidean(2), {True: 1}), id="bool-mask"),
    pytest.param(lambda: Multivector.generator(euclidean(2), 1.0), id="generator-float-index"),
    pytest.param(lambda: blade_product(euclidean(2), 1.5, 0), id="blade-product-float-mask"),
    pytest.param(lambda: blade_product(euclidean(2), -1, 0), id="blade-product-negative-mask"),
    pytest.param(lambda: Signature(0, 2).gen_square(1.5), id="gen-square-float-index"),
    pytest.param(lambda: Multivector.vector(euclidean(2), None), id="vector-none"),
    pytest.param(lambda: Multivector.vector(euclidean(2), 5), id="vector-int"),
    pytest.param(lambda: assemble_euclidean(2).blade_operator(7), id="blade-operator-too-large"),
    pytest.param(lambda: assemble_euclidean(2).blade_operator(-1), id="blade-operator-negative"),
    pytest.param(lambda: assemble_euclidean(2).blade_operator(1.0), id="blade-operator-float"),
])
def test_masks_indices_and_coordinates_are_checked(call):
    """Blade masks and generator indices are ints (bools refused) in range,
    and vector coordinates a list or tuple of length n."""
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("rs", [(0, 40), (20, 20)])
def test_products_with_forty_generators_follow_the_blade_rule(rs):
    """Single-blade and two-term products far beyond any 2^n-sized table."""
    sig = Signature(*rs)
    top = (1 << 40) - 1
    rng = random.Random(sum(rs) + rs[0])
    masks = [0, 1, 1 << 39, top, top ^ 1] + [rng.getrandbits(40) for _ in range(12)]
    for a in masks:
        for b in masks[:6] + [a]:
            sign, mask = _ref_blade_product(sig, a, b)
            assert Multivector.blade(sig, a) * Multivector.blade(sig, b) == mv(sig, {mask: sign})
    for _ in range(20):
        a, b, c, d = (rng.choice(masks) for _ in range(4))
        x = mv(sig, {a: Fraction(3, 4), c: -2})
        y = mv(sig, {b: 5, d: Fraction(-1, 6)})
        assert x * y == _ref_product(x, y)
        assert (x * y).terms == _ref_terms_product(sig, x.terms, y.terms)


# ---------------------------------------------------------------------------
# Differential test against the Fraction-dict arithmetic that Multivector had
# before it stored integer numerators over one denominator (frozen copy)
# ---------------------------------------------------------------------------


def _frozen_add(x, y):
    out = dict(x)
    for m, c in y.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def _frozen_neg(x):
    return {m: -c for m, c in x.items()}


def _frozen_scale(x, c):
    c = Fraction(c)
    return {m: c * v for m, v in x.items()} if c else {}


def _frozen_grade_involution(x):
    return {m: (-c if bin(m).count("1") & 1 else c) for m, c in x.items()}


def _frozen_reversion(x):
    out = {}
    for m, c in x.items():
        k = bin(m).count("1")
        out[m] = -c if (k * (k - 1) // 2) & 1 else c
    return out


def _frozen_inverse(sig, x):
    """None when x is not invertible."""
    t = _ref_terms_product(sig, x, _frozen_reversion(x))
    if all(m == 0 for m in t) and t.get(0, 0) != 0:
        return _frozen_scale(_frozen_reversion(x), 1 / t[0])
    dim = 1 << sig.n
    rows = [dict() for _ in range(dim)]
    for mb in range(dim):
        for ma, ca in x.items():
            sign, mask = _ref_blade_product(sig, ma, mb)
            rows[mask][mb] = rows[mask].get(mb, Fraction(0)) + sign * ca
    sol, _unique = sparse_solve(rows, [Fraction(int(m == 0)) for m in range(dim)], dim)
    return None if sol is None else {m: c for m, c in sol.items() if c}


@st.composite
def _mixed_operand(draw, sig):
    """Sparse, empty, scalar, top-blade or versor (a product of vectors, so
    ``inverse`` takes its versor path) operands; dense ones for n <= 5."""
    full = (1 << sig.n) - 1
    shape = draw(st.sampled_from(["sparse", "empty", "scalar", "top", "versor", "dense"]))
    if shape == "versor":
        x = Multivector.scalar(sig, draw(_COEFF.filter(bool)))
        for _ in range(draw(st.integers(1, 3))):
            coords = draw(st.lists(st.fractions(-5, 5, max_denominator=4), min_size=sig.n, max_size=sig.n))
            x = x * Multivector.vector(sig, coords)
        return x
    if shape == "dense" and sig.n <= 5:
        masks = range(full + 1)
    elif shape in ("sparse", "dense"):
        masks = draw(st.lists(st.integers(0, full), max_size=10))
    else:
        masks = {"empty": [], "scalar": [0], "top": [full]}[shape]
    return Multivector.make(sig, {m: draw(_COEFF) for m in masks})


@st.composite
def _mixed_case(draw):
    n = draw(st.integers(1, 8))
    r = draw(st.integers(0, n))
    sig = Signature(r, n - r)
    return sig, draw(_mixed_operand(sig)), draw(_mixed_operand(sig)), draw(_COEFF)


def _canonical(x):
    """Numerators over one positive denominator, in lowest terms, no zeros."""
    return x.den > 0 and all(x.nums.values()) and gcd(x.den, *x.nums.values()) == 1


@settings(max_examples=120, deadline=None)
@given(_mixed_case())
def test_arithmetic_matches_the_fraction_dict_arithmetic(case):
    sig, x, y, c = case
    xt, yt = x.terms, y.terms
    results = {
        "product": (x * y, _ref_terms_product(sig, xt, yt)),
        "sum": (x + y, _frozen_add(xt, yt)),
        "difference": (x - y, _frozen_add(xt, _frozen_neg(yt))),
        "negation": (-x, _frozen_neg(xt)),
        "scale": (x.scale(c), _frozen_scale(xt, c)),
        "grade involution": (x.grade_involution(), _frozen_grade_involution(xt)),
        "reversion": (x.reversion(), _frozen_reversion(xt)),
    }
    for name, (got, want) in results.items():
        assert got.terms == want, name
        assert _canonical(got), name
    # the solve path on 2^n unknowns is left to n <= 6
    if not x.is_zero() and (sig.n <= 6 or (x * x.reversion()).is_scalar()):
        want = _frozen_inverse(sig, xt)
        if want is None:
            with pytest.raises(InputError):
                x.inverse()
        else:
            assert x.inverse().terms == want
    # equality is equality of the read-out terms, whatever the construction
    assert (x == y) == (xt == yt)
    same = Multivector.make(sig, dict(reversed(list(xt.items()))))
    assert same == x and same.den == x.den and same.nums == x.nums
    assert x.scale(7).scale(Fraction(1, 7)) == x
    half = x.scale(Fraction(1, 2))
    assert (half == x) == (half.terms == xt) == x.is_zero()
    assert (x + y) - y == x
