"""Reflections, twisted adjoint, rotation lifts and float quaternion conversion."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import random_rational_rotation

from spinrep.algebras import conj, kelem, mul, mul_matrix, unit
from spinrep.clifford import Multivector, Signature, euclidean
from spinrep.errors import InputError
from spinrep.expressions import compile_curve, compile_surface
from spinrep.recipe import assemble_euclidean, assemble_signature
from spinrep.spin import (
    SpinCoordinateSystem,
    SpinElement,
    double_cover_check,
    reflection,
    spin_action,
    spin_coordinate_system,
    spin_lift,
    twisted_adjoint_matrix,
    verify_spin_coordinate_system,
)
from spinrep.surfaces import rotation_to_quaternion, spin_parallel_transport


def test_reflection_examples():
    sig = euclidean(3)
    assert reflection([1, 0, 0], [1, 0, 0], sig) == [-1, 0, 0]
    assert reflection([1, 0, 0], [0, 1, 0], sig) == [0, 1, 0]
    assert reflection([1, 0, 0], [1, 1, 0], sig) == [-1, 1, 0]
    with pytest.raises(InputError):
        reflection([0, 0, 0], [1, 0, 0], sig)


def twisted_adjoint(g, v):
    """g v grade_involution(g)^(-1): the twisted adjoint matrix of g applied to v."""
    return [sum(a * c for a, c in zip(row, v)) for row in twisted_adjoint_matrix(g)]


def test_twisted_adjoint_examples():
    sig = euclidean(3)
    one = Multivector.scalar(sig, 1)
    for i in range(3):
        v = [Fraction(1 if t == i else 0) for t in range(3)]
        assert twisted_adjoint(one, v) == v
    # g = e1 e2: rotation by pi in the (e1, e2) plane
    g = Multivector.blade(sig, 0b011)
    mat = twisted_adjoint_matrix(g)
    assert mat == [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
    # a unit vector acts as the reflection through its orthogonal plane
    w = Multivector.generator(sig, 0)
    v = [Fraction(1), Fraction(2), Fraction(0)]
    assert twisted_adjoint(w, v) == reflection([1, 0, 0], v, sig)


def test_twisted_adjoint_preserves_form():
    rng = random.Random(21)
    for sig in (euclidean(4), Signature(1, 2), Signature(2, 2)):
        # versors from products of non-null coordinate-ish vectors
        for _ in range(4):
            vecs = []
            while len(vecs) < 2:
                cand = [Fraction(rng.randint(-2, 2)) for _ in range(sig.n)]
                if sig.bilinear(cand, cand) != 0:
                    vecs.append(cand)
            g = Multivector.vector(sig, vecs[0]) * Multivector.vector(sig, vecs[1])
            x = [Fraction(rng.randint(-3, 3)) for _ in range(sig.n)]
            y = [Fraction(rng.randint(-3, 3)) for _ in range(sig.n)]
            gx = twisted_adjoint(g, x)
            gy = twisted_adjoint(g, y)
            assert sig.bilinear(gx, gy) == sig.bilinear(x, y)


def test_spin_lift_identity():
    n = 4
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    g = spin_lift(ident)
    assert g.value == Multivector.scalar(euclidean(n), 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spin_lift_round_trip(n):
    rng = random.Random(40 + n)
    for _ in range(6):
        rot = random_rational_rotation(n, rng)
        g = spin_lift(rot)
        assert g.value.is_even()
        assert twisted_adjoint_matrix(g.value) == rot


def test_spin_lift_exact_at_n8():
    rot = random_rational_rotation(8, random.Random(808), factors=12)
    g = spin_lift(rot)
    assert len(g.value.terms) == 128  # a full even versor
    assert twisted_adjoint_matrix(g.value) == rot
    assert double_cover_check(g, assemble_euclidean(8)).ok


def test_spin_lift_rejects_bad_input():
    bad = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    with pytest.raises(InputError):
        spin_lift(bad)
    refl = [[Fraction(-1), 0], [0, Fraction(1)]]
    with pytest.raises(InputError):
        spin_lift(refl)
    # an odd signed permutation that the reduction takes three mirrors to undo
    cycle = [[Fraction(int(i == (j + 1) % 4)) if max(i, j) < 4 else Fraction(int(i == j))
              for j in range(5)] for i in range(5)]
    with pytest.raises(InputError, match="special orthogonal"):
        spin_lift(cycle)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: spin_lift([["a"]]), id="spin_lift-string"),
    pytest.param(lambda: Multivector.scalar(euclidean(2), 1).scale("x"), id="scale-string"),
    pytest.param(lambda: Multivector.make(euclidean(2), {0: float("nan")}), id="make-nan"),
    pytest.param(lambda: Multivector.vector(euclidean(2), [float("inf"), 0]), id="vector-inf"),
    pytest.param(lambda: reflection(["1/0", 1], [1, 0], euclidean(2)), id="reflection-zero-denominator"),
])
def test_exact_entry_points_refuse_what_fraction_refuses(call):
    # Fraction raises ValueError, OverflowError or ZeroDivisionError here
    with pytest.raises(InputError, match="is not an exact rational number"):
        call()


def test_covering_parity_and_composition():
    rng = random.Random(77)
    n = 4
    for _ in range(5):
        r1 = random_rational_rotation(n, rng)
        r2 = random_rational_rotation(n, rng)
        g1 = spin_lift(r1)
        g2 = spin_lift(r2)
        from conftest import mat_mul

        g12 = spin_lift(mat_mul(r1, r2))
        prod = g1 * g2
        # Ad(g1 g2) = Ad(g1) Ad(g2): both lift the same rotation
        assert twisted_adjoint_matrix(prod.value) == mat_mul(r1, r2)
        # the same rotation: prod = c g12 for a rational c, so prod rev(g12) is the scalar c |g12|^2
        cross = prod.value * g12.value.reversion()
        assert cross.is_scalar() and cross.scalar_part() ** 2 == prod.norm2 * g12.norm2
        # lift of R then R^-1 is +-1
        rinv = [list(col) for col in zip(*r1)]
        ginv = spin_lift(rinv)
        total = g1 * ginv
        assert total.value.is_scalar()


def test_double_cover_check():
    sig = euclidean(3)
    module = assemble_euclidean(3)
    one = SpinElement.from_multivector(Multivector.scalar(sig, 1))
    rep = double_cover_check(one, module)
    assert rep.ok
    g = SpinElement.from_multivector(Multivector.blade(sig, 0b011))
    rep = double_cover_check(g, module)
    assert rep.checks == [("adjoints-equal", True, ""), ("actions-differ", True, "")]

    rng = random.Random(50)
    for _ in range(5):
        lift = spin_lift(random_rational_rotation(3, rng))
        assert double_cover_check(lift, module).ok


def test_spin_action_orthogonality_and_homomorphism():
    sig = euclidean(2)
    module = assemble_euclidean(2)
    g = SpinElement.from_multivector(
        Multivector.make(sig, {0: Fraction(3, 5), 0b11: Fraction(4, 5)})
    )
    assert g.norm2 == 1
    pi = spin_action(module, g)
    m = module.spin_metric
    assert pi.transpose() * m * pi == m

    h = SpinElement.from_multivector(
        Multivector.make(sig, {0: Fraction(5, 13), 0b11: Fraction(12, 13)})
    )
    assert spin_action(module, g) * spin_action(module, h) == spin_action(module, g * h)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_spin_coordinate_systems(n):
    rng = random.Random(60 + n)
    module = assemble_euclidean(n)
    g = spin_lift(random_rational_rotation(n, rng))
    system = spin_coordinate_system(module, g)
    assert [name for name, ok, _ in verify_spin_coordinate_system(module, system).checks if not ok] == []


@pytest.mark.parametrize("sig", [(1, 1), (2, 2), (3, 1)])
def test_spin_coordinate_system_on_split_summand(sig):
    # Cl(1,1) has n = 2 but a volume element squaring to +1, so its even
    # commutant also lives on the +1 summand
    module = assemble_signature(*sig)
    one = SpinElement.from_multivector(Multivector.make(module.signature, {0: Fraction(1)}))
    report = verify_spin_coordinate_system(module, spin_coordinate_system(module, one))
    assert [name for name, ok, _ in report.checks if not ok] == []


def test_spin_coordinate_system_even_commutant_checked_on_summand():
    # n = 4: the even commutant lives on the +1 volume summand.  Composing
    # with a right unit keeps an intertwining isometry but breaks commuting
    # with the quaternionic even commutant there.
    module = assemble_euclidean(4)
    g = spin_lift(random_rational_rotation(4, random.Random(64)))
    system = spin_coordinate_system(module, g)
    bad = SpinCoordinateSystem(system.iso * module.right_units[0], system.covered_frame, system.scale2)
    assert [name for name, ok, _ in verify_spin_coordinate_system(module, bad).checks if not ok] == [
        "commutes-even-2",
        "commutes-even-3",
    ]


# -- float quaternions ---------------------------------------------------------


def test_rotation_to_quaternion_branches():
    rng = random.Random(3)
    for _ in range(30):
        axis = [rng.uniform(-1, 1) for _ in range(3)]
        norm = math.sqrt(sum(a * a for a in axis))
        axis = [a / norm for a in axis]
        angle = rng.uniform(-3.0, 3.0)
        w = math.cos(angle / 2)
        x, y, z = (a * math.sin(angle / 2) for a in axis)
        # rotation matrix of (w, x, y, z)
        r = [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
        q = rotation_to_quaternion(r)
        dot = abs(q[0] * w + q[1] * x + q[2] * y + q[3] * z)
        assert abs(dot - 1.0) < 1e-12


# -- one Spin(3) across the exact and float layers -------------------------------


def _cube_rotations():
    """The 24 rotations of the cube: signed permutation matrices of det +1,
    which is sign(perm) times the product of the signs."""
    out = []
    for perm in itertools.permutations(range(3)):
        parity = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
        for signs in itertools.product((1, -1), repeat=3):
            if math.prod(signs) == (-1) ** parity:
                out.append([[signs[i] if perm[i] == j else 0 for j in range(3)] for i in range(3)])
    return out


def _binary_exact(q) -> bool:
    """Every component is 0, +-1/2 or +-1, exact in binary floating point."""
    return all(2 * abs(c) in (0, 1, 2) for c in q)


def _lift_quaternion(g: SpinElement) -> tuple[Fraction, ...]:
    """The unnormalised quaternion of an even element of Cl(0,3) under
    1 <-> 1, i <-> e23, j <-> e31, k <-> e12; e31 = -e13 (mask 0b101)."""
    t = g.value.terms
    return tuple(Fraction(c) for c in (t.get(0, 0), t.get(0b110, 0), -t.get(0b101, 0), t.get(0b011, 0)))


@pytest.mark.parametrize("rot", _cube_rotations(), ids=lambda r: "".join("+-0"[(v < 0) + 2 * (v == 0)]
                                                                        for row in r for v in row))
def test_spin_lift_is_the_transport_quaternion(rot):
    g = spin_lift(rot)
    q = _lift_quaternion(g)
    scaled = tuple(c / math.sqrt(g.norm2) for c in q)
    want = rotation_to_quaternion([[float(v) for v in row] for row in rot])
    sign = 1 if sum(a * b for a, b in zip(scaled, want)) > 0 else -1
    assert max(abs(sign * a - b) for a, b in zip(scaled, want)) < 1e-15
    if _binary_exact(want):
        assert tuple(sign * a for a in scaled) == want
    # on the recipe's Cl(0,3) module the lift acts as left multiplication by +-q
    action = spin_action(assemble_euclidean(3), g)
    left = mul_matrix(kelem("H", q), "left")
    assert action in (left, -left)


def test_half_the_cube_rotations_have_binary_exact_quaternions():
    rots = _cube_rotations()
    exact = [r for r in rots if _binary_exact(rotation_to_quaternion([[float(v) for v in row] for row in r]))]
    assert (len(rots), len(exact)) == (24, 12)


def _binary_tetrahedral():
    """The 24 unit quaternions +-1, +-i, +-j, +-k and (+-1 +-i +-j +-k)/2, as
    floats: every component is exact in binary floating point."""
    units = [tuple(float(sign * (t == i)) for t in range(4)) for i in range(4) for sign in (1, -1)]
    return units + [tuple(0.5 * c for c in signs) for signs in itertools.product((1, -1), repeat=4)]


def _quaternion_versor(q) -> Multivector:
    """The even element of Cl(0,3) that ``_lift_quaternion`` reads as q."""
    w, x, y, z = map(Fraction, q)
    return Multivector.make(euclidean(3), {0: w, 0b110: x, 0b101: -y, 0b011: z})


def test_binary_tetrahedral_group_has_24_unit_elements():
    group = _binary_tetrahedral()
    assert len(set(group)) == 24 and all(sum(c * c for c in q) == 1 for q in group)


@pytest.mark.parametrize("q", _binary_tetrahedral(), ids=str)
def test_twisted_adjoint_is_the_transport_frame_on_the_binary_tetrahedral_group(q):
    g = _quaternion_versor(q)
    assert _lift_quaternion(SpinElement.from_multivector(g)) == tuple(map(Fraction, q))
    mat = twisted_adjoint_matrix(g)
    # the frame formula e_i -> g e_i conj(g), e_1, e_2, e_3 <-> i, j, k, on exact quaternions
    h = kelem("H", [Fraction(c) for c in q])
    images = [mul(mul(h, unit("H", i)), conj(h)).coeffs for i in (1, 2, 3)]
    assert all(v[0] == 0 for v in images)
    assert mat == [[images[j][i + 1] for j in range(3)] for i in range(3)]
    # the transport's own float formula, started on the plane spanned by the
    # first two columns with that frame: its lift is +-q and its frame the
    # matrix's columns, bit for bit
    cols = [[float(mat[i][j]) for i in range(3)] for j in range(3)]
    surface = compile_surface("; ".join(f"{axis}=({cols[0][i]:g})*u+({cols[1][i]:g})*v"
                                        for i, axis in enumerate("xyz")))
    curve, velocity = compile_curve("u=t; v=0")
    trace = spin_parallel_transport(surface, curve, (1.0, 0.0, 0.0, 0.0), steps=2,
                                    frame0=(cols[0], cols[1]), velocity=velocity)
    assert trace.lifts[0] in (q, tuple(-c for c in q))
    assert (list(trace.e1[0]), list(trace.e2[0]), list(trace.normals[0])) == (cols[0], cols[1], cols[2])
