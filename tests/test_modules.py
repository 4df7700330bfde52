"""The spinor module families: dimensions, Clifford conditions, intertwiner
tables, variants, gradings and spinor squaring; the one exact conversion of
library inputs and the one report type of every exact check."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from spinrep import algebras as alg
from spinrep.clifford import Multivector, Signature, blade_product, euclidean
from spinrep.errors import InputError, StructureError
from spinrep.kmatrix import commutant
from spinrep.files import module_to_payload, payload_to_gamma
from spinrep.linalg import QMat, SignedPerm, inertia, intertwiner_space
from spinrep import modules, recipe, spin, structure
from spinrep.modules import (
    _invert,
    c4_action,
    grading_from_volume,
    octonion_module,
    spinor_square,
    split_clifford_action,
    sqrt_space_module,
)
from spinrep.recipe import (
    GradedSpace,
    SpinorModule,
    assemble_euclidean,
    assemble_positive,
    assemble_signature,
    even_summand,
    intertwiners,
    split_signature_module,
    tensor_op_left,
    verify_module,
)
from spinrep.structure import audit, expected_irreducible_dim, verify_clifford_condition
from spinrep.modules import hypersurface4_action

K_DIMS = [2, 4, 4, 4, 2, 1, 1, 1]
K0_DIMS = [4, 8, 4, 4, 4, 2, 1, 1]


def _neg_identity(d):
    return QMat.identity(d).scale(-1)


# -- base modules -------------------------------------------------------------


def test_base_module_dimensions():
    assert [assemble_euclidean(n).real_dim for n in (1, 2, 3, 4)] == [2, 4, 4, 8]


def test_base_module_volume_variants():
    plus = assemble_euclidean(3)
    minus = assemble_euclidean(3, "minus")
    assert plus.blade_operator(0b111) == -SignedPerm.identity(4)
    assert minus.blade_operator(0b111) == SignedPerm.identity(4)
    with pytest.raises(InputError):
        assemble_euclidean(2, "minus")


def test_base_module_1_squares_to_minus_one():
    m = assemble_euclidean(1)
    g = m.generators[0]
    assert g * g == _neg_identity(2)


def test_c4_action_examples():
    # c4(1)(l, w) = (-w, l)
    op = c4_action(alg.one("H"))
    vec = [Fraction(0)] * 8
    vec[0] = Fraction(1)  # l = 1
    out = op.apply(vec)
    assert out[4] == 1 and all(c == 0 for i, c in enumerate(out) if i != 4)
    # c4(i)(0, 1) = (i, 0)
    op_i = c4_action(alg.unit("H", 1))
    vec = [Fraction(0)] * 8
    vec[4] = Fraction(1)  # w = 1
    out = op_i.apply(vec)
    assert out[1] == 1 and all(c == 0 for i, c in enumerate(out) if i != 1)
    # c4(q)^2 = -|q|^2
    rng = random.Random(1)
    for _ in range(5):
        q = alg.kelem("H", [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        sq = c4_action(q) * c4_action(q)
        assert sq == QMat.identity(8).scale(-alg.norm_sq(q))


def test_base_module_pos_examples():
    m1 = assemble_positive(1)
    assert m1.generators[0] == QMat.from_entries(1, 1, {(0, 0): 1})
    m1m = assemble_positive(1, "minus")
    assert m1m.generators[0] == QMat.from_entries(1, 1, {(0, 0): -1})
    m2 = assemble_positive(2)
    eps = m2.generators[1]
    assert eps == QMat.diag([1, -1])
    m4 = assemble_positive(4)
    rng = random.Random(2)
    for _ in range(4):
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        op = QMat.zeros(8, 8)
        for i, c in enumerate(coords):
            op = op + m4.generators[i].scale(c)
        norm = sum(c * c for c in coords)
        assert op * op == QMat.identity(8).scale(norm)
    with pytest.raises(InputError):
        assemble_positive(3, "minus")


# -- assembly ------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 17))
def test_euclidean_dimensions_and_clifford(n):
    m = assemble_euclidean(n)
    assert m.real_dim == expected_irreducible_dim(0, n)
    assert verify_clifford_condition(list(m.generators), m.signature).ok


def test_euclidean_key_dimensions():
    assert assemble_euclidean(8).real_dim == 16
    m5 = assemble_euclidean(5)
    assert m5.real_dim == 8
    assert intertwiners(m5).division_algebra == "C"
    assert assemble_euclidean(9).real_dim == 32


@pytest.mark.parametrize("n", range(1, 13))
def test_intertwiner_tables(n):
    m = assemble_euclidean(n)
    idx = (n - 1) % 8
    full = intertwiners(m)
    even = intertwiners(m, even_only=True)
    assert full.real_dimension == K_DIMS[idx]
    assert even.real_dimension == K0_DIMS[idx]


def test_even_intertwiners_grow():
    m5 = assemble_euclidean(5)
    assert intertwiners(m5).division_algebra == "C"
    assert intertwiners(m5, even_only=True).division_algebra == "H"
    m7 = assemble_euclidean(7)
    assert intertwiners(m7).division_algebra == "R"


@pytest.mark.parametrize("n", [3, 7, 11])
def test_plus_minus_distinctness(n):
    plus = assemble_euclidean(n)
    minus = assemble_euclidean(n, "minus")
    d = plus.real_dim
    assert plus.blade_operator((1 << n) - 1) == -SignedPerm.identity(d)
    assert minus.blade_operator((1 << n) - 1) == SignedPerm.identity(d)
    joint = intertwiner_space(list(zip(plus.generators, minus.generators)), d, d)
    assert joint == []


def test_minus_variant_rejected_elsewhere():
    with pytest.raises(InputError):
        assemble_euclidean(5, "minus")
    with pytest.raises(InputError):
        assemble_signature(1, 1, "minus")


@pytest.mark.parametrize("sig", [(1, 1), (2, 2)])
def test_unknown_variant_is_rejected_on_split_signatures(sig):
    cached = assemble_signature.cache_info().currsize
    with pytest.raises(InputError, match="variant must be 'plus' or 'minus', got 'foo'"):
        assemble_signature(*sig, "foo")
    assert assemble_signature.cache_info().currsize == cached


@pytest.mark.parametrize("call", [
    pytest.param(lambda: assemble_signature(0, 5000), id="cl-0-5000"),
    pytest.param(lambda: assemble_signature(0, 25), id="cl-0-25"),
    pytest.param(lambda: split_signature_module(13), id="split-13"),
    pytest.param(lambda: split_signature_module(10**40), id="split-10-40"),
    pytest.param(lambda: split_clifford_action(10**40, [], []), id="split-action-10-40"),
])
def test_modules_are_built_for_at_most_24_generators(call):
    """Refused before anything is built: uncapped, these overflow the
    recursion or a shift by the dimension, or build Cl(13,13)."""
    with pytest.raises(InputError, match="at most 24 generators"):
        call()


def test_the_generator_cap_admits_24_generators():
    assert split_signature_module(12).real_dim == 1 << 12


def test_positive_signature_assembly():
    for n in range(1, 11):
        m = assemble_positive(n)
        assert m.real_dim == expected_irreducible_dim(n, 0)
        assert verify_clifford_condition(list(m.generators), m.signature).ok
    p = assemble_positive(5)
    mnt = assemble_positive(5, "minus")
    assert p.blade_operator(0b11111) == SignedPerm.identity(8)
    assert mnt.blade_operator(0b11111) == -SignedPerm.identity(8)


def test_signature_assembly_matches_euclidean():
    a = assemble_signature(0, 6)
    b = assemble_euclidean(6)
    assert a.generators == b.generators


def test_signature_examples():
    m11 = assemble_signature(1, 1)
    assert m11.real_dim == 2
    assert intertwiners(m11).real_dimension == 1
    m22 = assemble_signature(2, 2)
    assert m22.real_dim == 4


def test_grading_oddness_and_volume():
    for n in (4, 8, 12):
        m = assemble_euclidean(n)
        g = grading_from_volume(m)
        assert g.grading.count(1) == g.grading.count(-1) == m.real_dim // 2
        assert tuple(g.grading) == m.real_grading()
        eps = QMat.diag(g.grading)
        for gen in m.generators:
            assert eps * gen == (gen * eps).scale(-1)
    with pytest.raises(InputError):
        grading_from_volume(assemble_euclidean(5))


def test_grading_from_volume_s4():
    g = grading_from_volume(assemble_euclidean(4))
    assert g.grading.count(1) == 4 and g.grading.count(-1) == 4
    m = assemble_euclidean(4)
    vol = m.blade_operator(0b1111)
    assert vol == SignedPerm.diag(g.grading)


def test_non_diagonal_volume_is_refused():
    """Cl(0,4) with vol^2 = 1, conjugated by a shear that mixes the two
    volume eigenspaces: neither reader of the volume diagonal accepts it."""
    m = assemble_euclidean(4)
    d = m.real_dim
    vol = m.blade_operator(0b1111).to_qmat()
    # a basis vector in the other volume eigenspace than the first one
    other = next(i for i in range(d) if vol.get(i, i) == -vol.get(0, 0))
    shear = QMat.identity(d) + QMat.from_entries(d, d, {(0, other): Fraction(1)})
    gens = [shear * g * _invert(shear) for g in m.generators]
    sheared = SpinorModule(m.signature, m.field, gens, GradedSpace("R", d), QMat.identity(d), m.family,
                           m.variant, ())
    assert sheared.blade_operator(0b1111) * sheared.blade_operator(0b1111) == QMat.identity(d)
    for reader in (grading_from_volume, even_summand):
        with pytest.raises(StructureError, match="not diagonal"):
            reader(sheared)


# -- split signature ------------------------------------------------------------


def test_split_action_example():
    # i = 1: c(x, omega)(l + m f) = (-omega m) + (x l) f
    op = split_clifford_action(1, [Fraction(2)], [Fraction(3)])
    assert op == QMat.from_entries(2, 2, {(0, 1): -3, (1, 0): 2})
    # v = (1, 1) squares to -1 under the normalized pairing
    op = split_clifford_action(1, [1], [1])
    assert op * op == _neg_identity(2)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_split_modules(i):
    m = split_signature_module(i)
    assert m.real_dim == 1 << i
    assert verify_clifford_condition(list(m.generators), Signature(i, i)).ok
    assert intertwiners(m).real_dimension == 1
    # generators odd for the parity grading
    eps = QMat.diag(m.real_grading())
    for g in m.generators:
        assert eps * g == (g * eps).scale(-1)


# -- alternative families ---------------------------------------------------------


def test_sqrt_space_examples():
    m3 = sqrt_space_module(3)
    c1 = m3.generators[0]
    vec = [Fraction(0)] * 4
    vec[0] = Fraction(1)
    assert c1.apply(vec) == [0, 1, 0, 0]  # c(e1)(1, 0) = (0, e1)
    vec = [Fraction(0)] * 4
    vec[1] = Fraction(1)
    assert c1.apply(vec) == [-1, 0, 0, 0]  # c(e1)(0, e1) = (-1, 0)

    m4 = sqrt_space_module(4)
    v = m4.generators[0] + m4.generators[1]
    assert v * v == QMat.identity(8).scale(-2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sqrt_space_structure(n):
    m = sqrt_space_module(n)
    base = assemble_euclidean(n, m.variant if n == 3 else "plus")
    assert m.real_dim == base.real_dim
    assert verify_clifford_condition(list(m.generators), m.signature).ok
    assert _spin_metric_check(m)[1]
    com_sqrt = intertwiners(m)
    com_base = intertwiners(base)
    assert com_sqrt.real_dimension == com_base.real_dimension
    assert com_sqrt.division_algebra == com_base.division_algebra
    # explicit intertwiner exists once variants are matched
    joint = intertwiner_space(list(zip(base.generators, m.generators)), base.real_dim, m.real_dim)
    assert joint


def test_sqrt_space_range():
    with pytest.raises(InputError):
        sqrt_space_module(5)


@pytest.mark.parametrize("n", [3, 4])
def test_sqrt_space_refuses_a_span_that_is_not_invariant(monkeypatch, n):
    """Pairing each key blade with the wrong partner spans no submodule; the
    images are then not reproduced by their key-blade coordinates."""
    real = modules._volume_partner

    def wrong_partner(acts, x):
        sign, partner = real(acts, x)
        return sign, partner ^ (1 << n - 1)

    monkeypatch.setattr(modules, "_volume_partner", wrong_partner)
    with pytest.raises(StructureError, match="eigenspace"):
        modules._sqrt_gens(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sqrt_space_volume_partner_is_the_blade_product(n):
    acts = [recipe._exterior_action(n, j, -1) for j in range(n)]
    vol = (1 << n) - 1
    for x in range(vol + 1):
        sign, partner = blade_product(euclidean(n), x, vol)
        assert modules._volume_partner(acts, x) == (sign, partner)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sqrt_space_metric_spans_the_symmetric_invariant_forms(n):
    """The forms that make every generator and right unit skew-adjoint: the
    symmetric ones are the line of the module's positive definite metric.
    For n >= 2 that line is the whole space; over K = C (n = 1) the space
    also holds the skew form of the unit i, which commutes with everything."""
    m = sqrt_space_module(n)
    d = m.real_dim
    pairs = [(g, g.transpose().scale(-m.signature.form(i))) for i, g in enumerate(m.generators)]
    pairs += [(u, u.transpose().scale(-1)) for u in m.right_units]
    basis = intertwiner_space(pairs, d, d)
    assert len(basis) == (2 if n == 1 else 1)
    symmetric = [b for b in basis if b.transpose() == b]
    assert len(symmetric) == 1
    assert all(b.transpose() == -b for b in basis if b is not symmetric[0])
    assert symmetric[0] == m.spin_metric.scale(symmetric[0].get(0, 0))
    assert m.spin_metric.get(0, 0) == 1
    assert inertia([[m.spin_metric.get(i, j) for j in range(d)] for i in range(d)]) == (d, 0, 0)


def test_invert_reduces_once_and_rejects_singular():
    m = QMat.from_entries(3, 3, {(0, 1): 2, (0, 2): 1, (1, 0): 1, (2, 0): 3, (2, 1): 1, (2, 2): Fraction(3, 2)})
    inv = _invert(m)
    assert m * inv == QMat.identity(3) and inv * m == QMat.identity(3)
    with pytest.raises(StructureError, match="not invertible"):
        _invert(QMat.from_entries(3, 3, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4, (2, 2): 1}))


def test_octonion_examples():
    m8 = octonion_module(8)
    # c8(1)(u, v) = (-v, u)
    g1 = m8.generators[0]
    vec = [Fraction(0)] * 16
    vec[8] = Fraction(1)  # v = 1
    out = g1.apply(vec)
    assert out[0] == -1 and all(c == 0 for i, c in enumerate(out) if i != 0)
    # c8(x)^2 = -|x|^2 on random rational octonions
    rng = random.Random(8)
    for _ in range(6):
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(8)]
        op = QMat.zeros(16, 16)
        for i, c in enumerate(coords):
            op = op + m8.generators[i].scale(c)
        norm = sum(c * c for c in coords)
        assert op * op == QMat.identity(16).scale(-norm)

    m4 = octonion_module(4)
    assert m4.real_dim == 8
    assert intertwiners(m4).division_algebra == "H"


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_octonion_structure(k):
    m = octonion_module(k)
    assert m.real_dim == (8 if k <= 7 else 16)
    assert verify_clifford_condition(list(m.generators), m.signature).ok
    assert _spin_metric_check(m)[1]
    with pytest.raises(InputError):
        octonion_module(3)


# -- spin metric -----------------------------------------------------------------


def _spin_metric_check(module):
    """The ``spin-metric`` check of the module's audit."""
    (check,) = [c for c in verify_module(module).checks if c[0] == "spin-metric"]
    return check


def _with_metric(module, metric):
    return SpinorModule(module.signature, module.field, module.generators, module.space, metric, module.family,
                        module.variant, module.right_units)


def test_spin_metric_passes_on_families():
    for mod in (assemble_euclidean(2), assemble_euclidean(4), assemble_euclidean(6),
                octonion_module(8)):
        assert _spin_metric_check(mod)[1]


def test_spin_metric_negative_control():
    m = assemble_euclidean(2)
    bad = QMat.diag([1, 2, 1, 1])
    assert not _spin_metric_check(_with_metric(m, bad))[1]


def _file_audit(module):
    """The audit ``verify`` runs on the module's gamma file, read back."""
    return audit(**payload_to_gamma(module_to_payload(module)))


def test_generate_and_verify_run_one_audit():
    good = assemble_euclidean(2)
    bad_metric = _with_metric(good, QMat.diag([1, 2, 1, 1]))
    modules = [
        good, bad_metric, assemble_signature(0, 3, "minus"), assemble_signature(1, 0, "minus"),
        assemble_signature(2, 3), assemble_signature(5, 0), assemble_signature(0, 4),
        sqrt_space_module(4), octonion_module(5), octonion_module(8),
    ]
    for m in modules:
        on_file = [c for c in _file_audit(m).checks if c[0] != "volume-sign-recorded"]
        assert verify_module(m).checks == on_file, (m.signature, m.family, m.variant)
    # the metric part of the same audit
    check = _spin_metric_check(bad_metric)
    assert check[2].startswith("generator e_1 fails skew-adjointness")
    assert check in _file_audit(bad_metric).checks


# -- spinor squaring -------------------------------------------------------------


def test_spinor_square_examples():
    m2 = assemble_euclidean(2)
    one = [1, 0, 0, 0]
    i_sp = [0, 1, 0, 0]
    assert spinor_square(m2, one, one) == Multivector.scalar(euclidean(2), 1)
    assert spinor_square(m2, i_sp, one) == Multivector.generator(euclidean(2), 0)
    zero = [0, 0, 0, 0]
    assert spinor_square(m2, zero, one).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spinor_square_round_trip(n):
    m = assemble_euclidean(n)
    d = m.real_dim
    rng = random.Random(100 + n)
    for _ in range(6):
        s1 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
        s2 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
        omega = spinor_square(m, s1, s2)
        # reconstruct the rank-one operator exactly
        op = m.operator(omega)
        k_dim = alg.ALGEBRA_DIM[m.field]
        s1_im = [s1] + [u.apply(s1) for u in m.right_units]
        s2_im = [s2] + [u.apply(s2) for u in m.right_units]
        rows = [m.spin_metric.apply(img) for img in s2_im]
        expect = {}
        for t in range(d):
            for a in range(k_dim):
                coef = rows[a][t]
                if coef:
                    for i_row in range(d):
                        if s1_im[a][i_row]:
                            key = (i_row, t)
                            expect[key] = expect.get(key, Fraction(0)) + coef * s1_im[a][i_row]
        assert op == QMat.from_entries(d, d, {k: v for k, v in expect.items() if v})
        if n % 4 == 3:
            assert all(bin(mask).count("1") % 2 == 0 for mask in omega.terms)


# -- whole-module audits ------------------------------------------------------------


@pytest.mark.parametrize("args", [(0, 5), (4, 0), (3, 2), (2, 3), (1, 6)])
def test_verify_module_passes(args):
    m = assemble_signature(*args)
    rep = verify_module(m)
    assert rep.ok, [c for c in rep.checks if not c[1]]


def test_mixed_signature_variants_differ():
    plus = assemble_signature(2, 1)
    minus = assemble_signature(2, 1, "minus")
    assert plus.blade_operator(0b111) == minus.blade_operator(0b111).scale(-1)


# -- one exact conversion, one report ------------------------------------------------


@pytest.mark.parametrize("call", [
    pytest.param(lambda: QMat.diag(["a"]), id="diag-string"),
    pytest.param(lambda: QMat.diag([float("inf")]), id="diag-inf"),
    pytest.param(lambda: QMat.from_entries(1, 1, {(0, 0): float("nan")}), id="from_entries-nan"),
    pytest.param(lambda: QMat.identity(2).scale("x"), id="scale-string"),
    pytest.param(lambda: Signature(0, 2).bilinear(["a", 0], [1, 0]), id="bilinear-string"),
    pytest.param(lambda: alg.kelem("H", ["a", 0, 0, 0]), id="kelem-string"),
    pytest.param(lambda: split_clifford_action(1, ["1/0"], [0]), id="split_clifford_action-zero-denominator"),
    pytest.param(lambda: spinor_square(assemble_euclidean(2), ["a", 0, 0, 0], [1, 0, 0, 0]),
                 id="spinor_square-string"),
    pytest.param(lambda: hypersurface4_action([float("nan"), 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]),
                 id="hypersurface4_action-nan"),
])
def test_exact_conversions_refuse_what_fraction_refuses(call):
    # Fraction raises ValueError, OverflowError or ZeroDivisionError here
    with pytest.raises(InputError, match="is not an exact rational number"):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: Signature(1.5, 2), id="Signature-float"),
    pytest.param(lambda: Signature("1", 2), id="Signature-string"),
    pytest.param(lambda: Signature(True, 2), id="Signature-bool"),
    # each builder is called with the integer first, so the float meets a filled cache
    pytest.param(lambda: (sqrt_space_module(2), sqrt_space_module(2.0)), id="sqrt_space_module-float"),
    pytest.param(lambda: (split_signature_module(2), split_signature_module(2.0)), id="split_signature_module-float"),
    pytest.param(lambda: (octonion_module(4), octonion_module(4.0)), id="octonion_module-float"),
    pytest.param(lambda: assemble_signature(1.5, 2), id="assemble_signature-float"),
    pytest.param(lambda: (assemble_signature(1, 2), assemble_signature(1.0, 2)), id="assemble_signature-integral-float"),
])
def test_dimensions_must_be_integers(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: spinor_square(assemble_euclidean(2), None, [1, 0, 0, 0]), id="spinor_square-None"),
    pytest.param(lambda: spinor_square(assemble_euclidean(2), 5, [1, 0, 0, 0]), id="spinor_square-int"),
    pytest.param(lambda: spin.spin_lift(None), id="spin_lift-None"),
    pytest.param(lambda: spin.spin_lift([1]), id="spin_lift-row-int"),
])
def test_spinors_and_rotations_must_be_sequences(call):
    with pytest.raises(InputError, match="list or tuple|lists or tuples"):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: QMat(2, 2, [{0: 1}]), id="too-few-rows"),
    pytest.param(lambda: QMat(1, 2, [{}, {}]), id="too-many-rows"),
    pytest.param(lambda: QMat(2, 2, [{5: 1}, {}]), id="column-too-large"),
    pytest.param(lambda: QMat(2, 2, [{-1: 1}, {}]), id="column-negative"),
    pytest.param(lambda: QMat(2, 2, [{1.0: 1}, {}]), id="column-float"),
    pytest.param(lambda: QMat(2, 2, [{True: 1}, {}]), id="column-bool"),
    pytest.param(lambda: QMat(-1, 2), id="rows-negative"),
    pytest.param(lambda: QMat(2, -1), id="columns-negative"),
    pytest.param(lambda: QMat(2.0, 2), id="rows-float"),
    pytest.param(lambda: QMat(True, 2), id="rows-bool"),
    pytest.param(lambda: QMat.from_entries(2, 2, {(3, 0): 1}), id="from_entries-row-too-large"),
    pytest.param(lambda: QMat.from_entries(2, 2, {(-1, 0): 1}), id="from_entries-row-negative"),
    pytest.param(lambda: QMat.from_entries(2, 2, {(0, 2): 1}), id="from_entries-column-too-large"),
])
def test_qmat_refuses_shapes_it_cannot_hold(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: commutant([QMat.identity(2), QMat.identity(3)], 2), "size mismatch",
                 id="commutant-mixed-sizes"),
    pytest.param(lambda: verify_clifford_condition([QMat.identity(2)], Signature(0, 2)), "needs 2 generators",
                 id="verify_clifford_condition-count"),
    pytest.param(lambda: verify_clifford_condition([QMat.identity(2), QMat.identity(3)], Signature(0, 2)),
                 "equal size", id="verify_clifford_condition-shapes"),
    pytest.param(lambda: Signature(0, 2).bilinear([1], [1, 0]), "length", id="bilinear-short"),
    pytest.param(lambda: assemble_euclidean(2).operator(Multivector.scalar(Signature(0, 3), 1)),
                 "signature", id="operator-other-signature"),
    pytest.param(lambda: tensor_op_left(QMat.identity(3), GradedSpace("R", 2, (1, -1)), GradedSpace("R", 1)),
                 "size", id="tensor_op_left-size"),
    pytest.param(lambda: tensor_op_left(QMat.identity(2), GradedSpace("R", 2), GradedSpace("C", 1)),
                 "fields", id="tensor_op_left-fields"),
    pytest.param(lambda: GradedSpace("O", 1), "field", id="GradedSpace-field"),
    pytest.param(lambda: GradedSpace("R", 2, (1,)), "length", id="GradedSpace-grading-length"),
    pytest.param(lambda: GradedSpace("R", 2, (1, 0)), "entries", id="GradedSpace-grading-entry"),
])
def test_mismatched_shapes_and_layouts_are_refused(call, match):
    with pytest.raises(InputError, match=match):
        call()


def test_report_is_the_only_report_class():
    src = Path(modules.__file__).parent
    found = sorted((path.stem, node.name) for path in src.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ClassDef) and node.name.endswith("Report"))
    assert found == [("structure", "Report")]


def _one(module):
    return spin.SpinElement.from_multivector(Multivector.scalar(module.signature, 1))


@pytest.mark.parametrize("check", [
    pytest.param(_file_audit, id="audit"),
    pytest.param(verify_module, id="verify_module"),
    pytest.param(lambda m: verify_clifford_condition(list(m.gens), m.signature), id="verify_clifford_condition"),
    pytest.param(lambda m: spin.double_cover_check(_one(m), m), id="double_cover_check"),
    pytest.param(lambda m: spin.verify_spin_coordinate_system(m, spin.spin_coordinate_system(m, _one(m))),
                 id="verify_spin_coordinate_system"),
])
def test_every_exact_check_returns_a_report(check):
    report = check(assemble_euclidean(3))
    assert type(report) is structure.Report
    assert report.ok and report.checks
