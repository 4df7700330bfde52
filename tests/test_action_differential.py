"""``c4_action``, ``split_clifford_action``, the frame sums of
``verify_spin_coordinate_system`` and ``hypersurface4_action``, each now one
``SpinorModule.operator`` call, against frozen copies of what they replaced:
the Cl(0,4) base generators scaled by q's coefficients,
wedge-minus-contraction accumulated entry by entry, a chain of scaled
``QMat`` generators added to zero, and the quaternion product v conj(nu) q.
The matrices must be equal with the same key order in every row of ``num``,
and a bad coefficient must raise the same error class; the hypersurface
action must return the same quaternion or raise the same message."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrep import algebras as alg, hypersurface4_action
from spinrep.algebras import KElement
from spinrep.clifford import Multivector
from spinrep.errors import InputError
from spinrep.linalg import QMat, _exact
from spinrep.modules import c4_action, octonion_module, split_clifford_action, sqrt_space_module
from spinrep.recipe import _base, _exterior_action, assemble_signature, split_signature_module
from spinrep.spin import SpinElement, spin_coordinate_system, verify_spin_coordinate_system


def _frozen_c4_action(q):
    if q.algebra != "H":
        raise InputError("c4_action expects a quaternion")
    gens = _base(4, False, "plus")[1]
    return QMat.from_entries(8, 8, {(i, j): sign * c for c, g in zip(q.coeffs, gens) for i, j, sign in g.entries()})


def _frozen_split_clifford_action(i, xs, omegas):
    if i < 1:
        raise InputError("split dimension must be >= 1")
    if len(xs) != i or len(omegas) != i:
        raise InputError("coordinate length mismatch")
    entries = {}
    for j in range(i):
        for row, mask, sign in _exterior_action(i, j, 1).entries():
            entries[row, mask] = sign * (-_exact(omegas[j]) if mask >> j & 1 else _exact(xs[j]))
    return QMat.from_entries(1 << i, 1 << i, entries)


def _frozen_generator_sum(module, coords):
    """The frame-column sum of ``verify_spin_coordinate_system``."""
    rhs = QMat.zeros(module.real_dim, module.real_dim)
    for i, c in enumerate(coords):
        if c:
            rhs = rhs + module.generators[i].scale(c)
    return rhs


def _frozen_hypersurface4_action(normal, v, q):
    nq, vq, qq = (alg.kelem("H", x) for x in (normal, v, q))
    if alg.norm_sq(nq) != 1:
        raise InputError("normal is not a unit quaternion")
    if alg.real_part(alg.mul(alg.conj(nq), vq)) != 0:
        raise InputError("v is not tangent (Re(conj(n) v) != 0)")
    return alg.mul(alg.mul(vq, alg.conj(nq)), qq)


def _same(got, want):
    assert got == want
    assert [list(row) for row in got.num] == [list(row) for row in want.num]


def _same_error(new, frozen):
    with pytest.raises(InputError) as exc:
        frozen()
    with pytest.raises(type(exc.value)):
        new()


# small rationals, so that zeros and the pairs x_j = +-omega_j come up often
COEFFS = st.one_of(st.integers(-2, 2), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(max_examples=200, deadline=None)
@given(st.lists(COEFFS, min_size=4, max_size=4))
def test_c4_action_matches_the_scaled_generators(coeffs):
    q = KElement("H", tuple(map(Fraction, coeffs)))
    _same(c4_action(q), _frozen_c4_action(q))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_split_clifford_action_matches_wedge_minus_contraction(i, data):
    xs = data.draw(st.lists(COEFFS, min_size=i, max_size=i))
    omegas = data.draw(st.lists(st.one_of(COEFFS, st.sampled_from(xs), st.sampled_from(xs).map(lambda x: -x)),
                                min_size=i, max_size=i))
    _same(split_clifford_action(i, xs, omegas), _frozen_split_clifford_action(i, xs, omegas))


MODULES = [(r, n - r) for n in range(1, 5) for r in range(n + 1)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MODULES), st.data())
def test_generator_sums_match_the_chain_of_additions_on_recipe_modules(sig, data):
    module = assemble_signature(*sig)
    coords = data.draw(st.lists(COEFFS, min_size=module.signature.n, max_size=module.signature.n))
    _same(module.operator(Multivector.vector(module.signature, coords)), _frozen_generator_sum(module, coords))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("sqrt", 3), ("sqrt", 4), ("octonion", 4), ("octonion", 5)]), st.data())
def test_generator_sums_match_the_chain_of_additions_on_the_other_families(family, data):
    kind, n = family
    module = sqrt_space_module(n) if kind == "sqrt" else octonion_module(n)
    coords = data.draw(st.lists(COEFFS, min_size=n, max_size=n))
    _same(module.operator(Multivector.vector(module.signature, coords)), _frozen_generator_sum(module, coords))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_frame_sums_of_a_spin_coordinate_system(n):
    module = assemble_signature(0, n)
    g = SpinElement.from_multivector(Multivector.make(module.signature, {0: 1, 0b11: 2, 0b110: Fraction(-1, 3)}))
    system = spin_coordinate_system(module, g)
    frame = system.covered_frame
    for j in range(n):
        column = [frame[i][j] for i in range(n)]
        _same(module.operator(Multivector.vector(module.signature, column)), _frozen_generator_sum(module, column))
    assert verify_spin_coordinate_system(module, system).ok


def test_bad_coefficients_raise_the_same_error_class():
    q = KElement("H", ("1/0", 0, 0, 0))
    _same_error(lambda: c4_action(q), lambda: _frozen_c4_action(q))
    _same_error(lambda: c4_action(KElement("C", (1, 0))), lambda: _frozen_c4_action(KElement("C", (1, 0))))
    for args in [(1, ["1/0"], [0]), (2, [1, 0], [0, "1/0"]), (0, [], []), (2, [1], [1, 2]), (0, [1], [1, 2])]:
        _same_error(lambda: split_clifford_action(*args), lambda: _frozen_split_clifford_action(*args))
    module = split_signature_module(1)
    _same_error(lambda: module.operator(Multivector.vector(module.signature, ["1/0", 0])),
                lambda: _frozen_generator_sum(module, ["1/0", 0]))


QUATERNIONS = st.lists(COEFFS, min_size=4, max_size=4)


def _same_hypersurface_action(normal, v, q):
    """Equal results, or the same ``InputError`` message from both."""
    try:
        want = _frozen_hypersurface4_action(normal, v, q)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            hypersurface4_action(normal, v, q)
        assert str(got.value) == str(exc)
    else:
        got = hypersurface4_action(normal, v, q)
        assert type(got) is KElement and got == want


@settings(max_examples=300, deadline=None)
@given(QUATERNIONS.filter(any), QUATERNIONS, QUATERNIONS)
def test_hypersurface4_action_matches_the_quaternion_product(a, b, q):
    """nu = a^2/|a|^2 is a unit and v = nu Im(conj(nu) b) is tangent at it."""
    a = alg.kelem("H", a)
    nu = alg.scale(alg.mul(a, a), 1 / alg.norm_sq(a))
    im = alg.mul(alg.conj(nu), alg.kelem("H", b))
    v = alg.mul(nu, KElement("H", (Fraction(0), *im.coeffs[1:])))
    want = _frozen_hypersurface4_action(nu.coeffs, v.coeffs, q)
    got = hypersurface4_action(nu.coeffs, v.coeffs, q)
    assert type(got) is KElement and got == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(QUATERNIONS, st.sampled_from([[1, 0, 0, 0], [0, 0, 0, -1], ["3/5", 0, "4/5", 0]])),
       QUATERNIONS, QUATERNIONS)
def test_hypersurface4_action_refuses_like_the_quaternion_product(normal, v, q):
    """Mostly refusals: a normal that is not a unit, a v that is not tangent."""
    _same_hypersurface_action(normal, v, q)


@pytest.mark.parametrize("args", [
    pytest.param(((2, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)), id="normal-not-unit"),
    pytest.param(((1, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)), id="normal-norm-2"),
    pytest.param(((0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)), id="normal-zero"),
    pytest.param(((1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)), id="v-along-normal"),
    pytest.param(((0, "3/5", "4/5", 0), (0, 1, 0, 1), (0, 1, 0, 0)), id="v-not-tangent"),
    pytest.param(((2, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)), id="neither-unit-nor-tangent"),
    *(pytest.param(tuple(bad if k == slot else (0, 1, 0, 0) if k == 1 else (1, 0, 0, 0) for k in range(3)),
                   id=f"{name}-{arg}")
      for slot, arg in enumerate(("normal", "v", "q"))
      for name, bad in (("nan", (float("nan"), 0, 0, 0)), ("one-over-zero", ("1/0", 0, 0, 0)),
                        ("short", (1, 0, 0)), ("long", (1, 0, 0, 0, 0)))),
])
def test_hypersurface4_action_bad_inputs_raise_the_same_message(args):
    with pytest.raises(InputError):
        _frozen_hypersurface4_action(*args)
    _same_hypersurface_action(*args)
