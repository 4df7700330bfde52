"""Frame transport and spin parallel transport on surfaces; the hypersurface
action in dimension 4."""

import math
from fractions import Fraction

import pytest

from spinrep import algebras as alg
from spinrep.errors import InputError
from spinrep.surfaces import (
    hypersurface4_action,
    parallel_transport_frame,
    plane,
    spin_parallel_transport,
    surface_frame,
    unit_sphere,
)


def great_circle(t):
    return (2 * math.pi * t, 0.0)


def _closed_rotation(t):
    c, s = math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)
    return [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]


def test_north_pole_frame_is_standard():
    sph = unit_sphere()
    e1, e2, nu = surface_frame(sph, 0.0, 0.0)
    assert max(abs(a - b) for a, b in zip(e1, (1, 0, 0))) < 1e-12
    assert max(abs(a - b) for a, b in zip(e2, (0, 1, 0))) < 1e-12
    assert max(abs(a - b) for a, b in zip(nu, (0, 0, 1))) < 1e-12


def test_plane_frame_constant():
    pl = plane()
    for u, v in [(0.0, 0.0), (2.0, -1.0), (0.3, 5.0)]:
        e1, e2, nu = surface_frame(pl, u, v)
        assert e1 == (1.0, 0.0, 0.0)
        assert e2 == (0.0, 1.0, 0.0)
        assert nu == (0.0, 0.0, 1.0)


def test_frame_orthonormality_random_points():
    import random

    sph = unit_sphere()
    rng = random.Random(31)
    for _ in range(20):
        u = rng.uniform(-2.5, 2.5)
        v = rng.uniform(-1.2, 1.2)
        e1, e2, nu = surface_frame(sph, u, v)
        vecs = (e1, e2, nu)
        for i in range(3):
            for j in range(i, 3):
                dot = sum(a * b for a, b in zip(vecs[i], vecs[j]))
                target = 1.0 if i == j else 0.0
                assert abs(dot - target) < 1e-12


def test_frame_transport_great_circle():
    sph = unit_sphere()
    trace = parallel_transport_frame(sph, great_circle, steps=10000)
    worst_r = 0.0
    worst_e2 = 0.0
    worst_norm = 0.0
    for t, rot, e2, e1 in zip(trace.times, trace.rotations, trace.e2, trace.e1):
        expect = _closed_rotation(t)
        worst_r = max(
            worst_r,
            max(abs(rot[i][j] - expect[i][j]) for i in range(3) for j in range(3)),
        )
        worst_e2 = max(worst_e2, max(abs(a - b) for a, b in zip(e2, (0.0, 1.0, 0.0))))
        worst_norm = max(worst_norm, abs(sum(a * a for a in e1) - 1.0))
    assert worst_r <= 1e-8
    assert worst_e2 <= 1e-9
    assert worst_norm <= 1e-10


def test_frame_transport_constant_curve():
    sph = unit_sphere()

    def still(t):
        return (0.7, 0.2)

    trace = parallel_transport_frame(sph, still, steps=100)
    first_e1, first_e2 = trace.e1[0], trace.e2[0]
    for e1, e2 in zip(trace.e1, trace.e2):
        assert max(abs(a - b) for a, b in zip(e1, first_e1)) < 1e-12
        assert max(abs(a - b) for a, b in zip(e2, first_e2)) < 1e-12


def test_frame_transport_input_errors():
    sph = unit_sphere()
    with pytest.raises(InputError):
        parallel_transport_frame(sph, great_circle, steps=1)
    with pytest.raises(InputError):
        parallel_transport_frame(
            sph, great_circle, frame0=((0.0, 0.0, 1.0), (0.0, 1.0, 0.0)), steps=10
        )


def test_spin_transport_sphere_example():
    sph = unit_sphere()
    trace = spin_parallel_transport(sph, great_circle, (0.0, 1.0, 0.0, 0.0), steps=10000)
    worst_g = 0.0
    worst_q = 0.0
    for t, g, q in zip(trace.times, trace.lifts, trace.spinors):
        expect_g = (math.cos(math.pi * t), 0.0, math.sin(math.pi * t), 0.0)
        worst_g = max(worst_g, max(abs(a - b) for a, b in zip(g, expect_g)))
        expect_q = (0.0, math.cos(math.pi * t), 0.0, -math.sin(math.pi * t))
        worst_q = max(worst_q, max(abs(a - b) for a, b in zip(q, expect_q)))
    assert worst_g <= 1e-6
    assert worst_q <= 1e-6
    # anti-periodic spinor over a periodic frame
    assert max(abs(a + b) for a, b in zip(trace.spinors[-1], trace.spinors[0])) <= 1e-6
    frame_defect = max(
        abs(a - b)
        for x, y in ((trace.e1[0], trace.e1[-1]), (trace.e2[0], trace.e2[-1]))
        for a, b in zip(x, y)
    )
    assert frame_defect <= 1e-8
    assert all(trace.ok)


def test_spin_transport_sign_flag_negates():
    sph = unit_sphere()
    plus = spin_parallel_transport(sph, great_circle, (0.0, 1.0, 0.0, 0.0), steps=200)
    minus = spin_parallel_transport(
        sph, great_circle, (0.0, 1.0, 0.0, 0.0), initial_sign=-1, steps=200
    )
    for qp, qm in zip(plus.spinors, minus.spinors):
        assert max(abs(a + b) for a, b in zip(qp, qm)) < 1e-12


def test_spinor_leaves_tangent_plane():
    # at t = 1/2 the transported i-spinor is -k, which is normal at the
    # antipodal point: its normal component has size 1
    sph = unit_sphere()
    trace = spin_parallel_transport(sph, great_circle, (0.0, 1.0, 0.0, 0.0), steps=2000)
    idx = len(trace) // 2
    assert abs(trace.times[idx] - 0.5) < 1e-12
    q = trace.spinors[idx]
    assert max(abs(a - b) for a, b in zip(q, (0.0, 0.0, 0.0, -1.0))) <= 1e-6
    nu = trace.normals[idx]
    normal_component = sum(a * b for a, b in zip(q[1:], nu))
    assert abs(abs(normal_component) - 1.0) <= 1e-6


def test_hypersurface4_action_examples():
    one = (1, 0, 0, 0)
    i, j, k = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    out = hypersurface4_action(one, i, one)
    assert out == alg.kelem("H", i)
    # squared action gives -|v|^2 q
    sq = hypersurface4_action(one, i, tuple(out.coeffs))
    assert sq == alg.kelem("H", (-1, 0, 0, 0))
    out = hypersurface4_action(k, i, one)
    assert out == alg.kelem("H", j)
    assert hypersurface4_action(one, (0, 0, 0, 0), one).is_zero()


def test_hypersurface4_clifford_condition_grid():
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    for nu in units:
        nu_k = alg.kelem("H", nu)
        tangents = []
        for v in units:
            v_k = alg.kelem("H", v)
            if alg.real_part(alg.mul(alg.conj(nu_k), v_k)) == 0:
                tangents.append(v)
        for v in tangents:
            for q in units:
                once = hypersurface4_action(nu, v, q)
                twice = hypersurface4_action(nu, v, tuple(once.coeffs))
                assert twice == alg.scale(alg.kelem("H", q), -1)
        # right multiplication commutes with the action
        for v in tangents:
            for w in units:
                lhs = alg.mul(hypersurface4_action(nu, v, (1, 0, 0, 0)), alg.kelem("H", w))
                rhs = hypersurface4_action(nu, v, w)
                assert lhs == rhs


def test_hypersurface4_rejects_non_tangent():
    with pytest.raises(InputError):
        hypersurface4_action((1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0))
    with pytest.raises(InputError):
        hypersurface4_action((2, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0))


def test_exact_rational_hypersurface_units():
    # a rational unit quaternion off the axes: (3/5, 4/5, 0, 0)
    nu = (Fraction(3, 5), Fraction(4, 5), 0, 0)
    v = (Fraction(-4, 5), Fraction(3, 5), 0, 0)  # tangent: Re(conj(nu) v) = 0
    out = hypersurface4_action(nu, v, (1, 0, 0, 0))
    sq = hypersurface4_action(nu, v, tuple(out.coeffs))
    assert sq == alg.kelem("H", (-1, 0, 0, 0))


def test_non_finite_rows_are_not_ok():
    # NaN from t = 0.55 on: no exception is raised, the rows go non-finite
    def escaping(t):
        return (t, math.nan) if t > 0.55 else (t, 0.0)

    trace = spin_parallel_transport(
        plane(), escaping, (1.0, 0.0, 0.0, 0.0), steps=10, strict=False
    )
    assert trace.ok == [t < 0.55 for t in trace.times]
