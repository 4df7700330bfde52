"""Spin parallel transport on surfaces (the spin frame and the parallel frame
it carries); the hypersurface action in dimension 4."""

import math
from fractions import Fraction

import pytest

from spinrep import algebras as alg
from spinrep.errors import InputError
from spinrep.files import trace_to_csv
from spinrep.modules import hypersurface4_action
from spinrep.surfaces import (
    plane,
    spin_parallel_transport,
    surface_frame,
    unit_sphere,
)


def great_circle(t):
    return (2 * math.pi * t, 0.0)


def loop_velocity(t):
    """(du/dt, dv/dt) of u = 2 pi t at constant v: the great circle and the
    latitudes."""
    return (2 * math.pi, 0.0)


ONE = (1.0, 0.0, 0.0, 0.0)


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


@pytest.mark.parametrize("spec, u, v", [
    # |X_u| overflows to inf: normalizing gave e1 = e2 = nu = (0, 0, 0)
    ("x=u; y=u*1e200; z=exp(v*1e200)**2", 0.0, 0.0),
    # |X_v - (X_v.e1) e1| overflows to inf
    ("x=u; y=v*1e200; z=v*1e200", 0.0, 0.0),
    # X_u is NaN: inf - inf
    ("x=u*1e200*1e200 - u*1e200*1e200; y=v; z=0", 1.0, 0.0),
])
def test_frame_rejects_non_finite_partials(spec, u, v):
    from spinrep.expressions import compile_surface

    with pytest.raises(InputError, match="degenerate"):
        surface_frame(compile_surface(spec), u, v)


def test_frame_transport_great_circle():
    sph = unit_sphere()
    trace = spin_parallel_transport(sph, great_circle, ONE, steps=10000, velocity=loop_velocity)
    worst_r = 0.0
    worst_e2 = 0.0
    worst_norm = 0.0
    for t, e1, e2, nu in zip(trace.times, trace.e1, trace.e2, trace.normals):
        expect = _closed_rotation(t)
        cols = (e1, e2, nu)  # R(t) has the columns (e1, e2, normal)
        worst_r = max(
            worst_r,
            max(abs(cols[j][i] - expect[i][j]) for i in range(3) for j in range(3)),
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

    trace = spin_parallel_transport(sph, still, ONE, steps=100, velocity=lambda t: (0.0, 0.0))
    first_e1, first_e2 = trace.e1[0], trace.e2[0]
    for e1, e2 in zip(trace.e1, trace.e2):
        assert max(abs(a - b) for a, b in zip(e1, first_e1)) < 1e-12
        assert max(abs(a - b) for a, b in zip(e2, first_e2)) < 1e-12


def test_frame_transport_input_errors():
    sph = unit_sphere()
    with pytest.raises(InputError):
        spin_parallel_transport(sph, great_circle, ONE, steps=1, velocity=loop_velocity)
    with pytest.raises(InputError):
        spin_parallel_transport(
            sph, great_circle, ONE, frame0=((0.0, 0.0, 1.0), (0.0, 1.0, 0.0)), steps=10,
            velocity=loop_velocity,
        )
    with pytest.raises(InputError, match="initial_sign"):
        spin_parallel_transport(sph, great_circle, ONE, initial_sign=0, steps=10, velocity=loop_velocity)


def test_left_handed_frame0_is_rejected():
    # tangent and orthonormal, but e1 x e2 = -n at the start (0, 0, 1)
    with pytest.raises(InputError, match="left-handed"):
        spin_parallel_transport(
            unit_sphere(), great_circle, ONE, frame0=((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)),
            steps=10, velocity=loop_velocity,
        )
    # the right-handed frame0 with the same axes transports cleanly
    trace = spin_parallel_transport(
        unit_sphere(), great_circle, ONE, frame0=((0.0, 1.0, 0.0), (-1.0, 0.0, 0.0)),
        steps=1000, velocity=loop_velocity,
    )
    assert all(trace.ok)


@pytest.mark.parametrize("sign", [1, -1])
def test_great_circle_spinor_returns_negated(sign):
    # one loop of the frame in SO(3) is the generator of pi_1(SO(3)): the
    # spin frame, and every spinor with it, comes back negated
    q0 = (0.3, 0.5, -0.1, 0.8)
    trace = spin_parallel_transport(
        unit_sphere(), great_circle, q0, initial_sign=sign, steps=2000,
        velocity=loop_velocity,
    )
    assert max(abs(a + b) for a, b in zip(trace.spinors[-1], trace.spinors[0])) <= 1e-12
    assert max(abs(a + b) for a, b in zip(trace.lifts[-1], trace.lifts[0])) <= 1e-12
    assert all(trace.ok)


@pytest.mark.parametrize("phi", [0.3, 0.7])
def test_latitude_spin_holonomy_sign(phi):
    # the frame turns by the enclosed area A = 2 pi (1 - sin phi) about the
    # normal, so conj(g(0)) g(1) = cos(A/2) + sin(A/2) k; its scalar part is
    # negative at phi = 0.3 and positive at 0.7, the sign only a continuous
    # lift fixes
    area = 2 * math.pi * (1 - math.sin(phi))
    want = (math.cos(area / 2), 0.0, 0.0, math.sin(area / 2))
    for sign in (1, -1):
        trace = spin_parallel_transport(
            unit_sphere(), lambda t: (2 * math.pi * t, phi), ONE, initial_sign=sign,
            steps=10000, velocity=loop_velocity,
        )
        # exact product of the float lifts (Fraction(float) is exact)
        g0, g1 = (alg.kelem("H", [Fraction(c) for c in g]) for g in (trace.lifts[0], trace.lifts[-1]))
        holonomy = alg.mul(alg.conj(g0), g1).coeffs
        assert max(abs(a - b) for a, b in zip(holonomy, want)) <= 1e-12


def test_spin_transport_sphere_example():
    sph = unit_sphere()
    trace = spin_parallel_transport(sph, great_circle, (0.0, 1.0, 0.0, 0.0), steps=10000, velocity=loop_velocity)
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
    plus = spin_parallel_transport(sph, great_circle, (0.0, 1.0, 0.0, 0.0), steps=200, velocity=loop_velocity)
    minus = spin_parallel_transport(
        sph, great_circle, (0.0, 1.0, 0.0, 0.0), initial_sign=-1, steps=200, velocity=loop_velocity
    )
    for qp, qm in zip(plus.spinors, minus.spinors):
        assert max(abs(a + b) for a, b in zip(qp, qm)) < 1e-12


def test_spinor_leaves_tangent_plane():
    # at t = 1/2 the transported i-spinor is -k, which is normal at the
    # antipodal point: its normal component has size 1
    sph = unit_sphere()
    trace = spin_parallel_transport(sph, great_circle, (0.0, 1.0, 0.0, 0.0), steps=2000, velocity=loop_velocity)
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

    def escaping_velocity(t):
        return (1.0, math.nan) if t > 0.55 else (1.0, 0.0)

    trace = spin_parallel_transport(plane(), escaping, ONE, steps=10, velocity=escaping_velocity)
    assert trace.ok == [t < 0.55 for t in trace.times]


def test_csv_flags_non_finite_rows_without_trace_flags():
    # the CSV flags NaN rows 0 by itself, even where the trace flags say ok
    def escaping(t):
        return (t, math.nan) if t > 0.5 else (t, 0.0)

    def escaping_velocity(t):
        return (1.0, math.nan) if t > 0.5 else (1.0, 0.0)

    trace = spin_parallel_transport(plane(), escaping, ONE, steps=4, velocity=escaping_velocity)
    trace.ok = [True] * len(trace)
    rows = trace_to_csv(trace).splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["1", "1", "1", "0", "0"]
    assert "nan" in rows[-1]


@pytest.mark.parametrize("steps", [2, 100])
def test_transport_evaluation_counts(steps):
    # one curve(t0) for the start frame, then the rate at t0 and at the
    # midpoint and end of each step; one chart evaluation per sample
    calls = {"curve": 0, "velocity": 0, "chart": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    surface = unit_sphere()
    surface.chart = counted("chart", surface.chart)
    spin_parallel_transport(surface, counted("curve", great_circle), ONE, steps=steps,
                            velocity=counted("velocity", loop_velocity))
    assert calls == {"curve": 2 * steps + 2, "velocity": 2 * steps + 1, "chart": steps + 1}


@pytest.mark.parametrize("frame0", [
    ((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((1.0, 0.0, 0.0), (0.0, math.nan, 0.0)),
    ((math.inf, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((1.0, 0.0, math.nan), (0.0, 1.0, 0.0)),
    # not numbers, or not two vectors of three: an InputError, not a bare Python error
    (("a", 0, 0), (0, 1, 0)),
    ((1, 0, 0),),
    ((1, 0), (0, 1, 0)),
    ((1, 0, 0), None),
    ((10**400, 0, 0), (0, 1, 0)),
    5,
])
def test_non_finite_frame0_is_rejected(frame0):
    with pytest.raises(InputError, match="initial"):
        spin_parallel_transport(plane(), lambda t: (t, 0.0), ONE, frame0=frame0, steps=10,
                                velocity=lambda t: (1.0, 0.0))


@pytest.mark.parametrize("bad", [
    {"t0": 1.0, "t1": 1.0},
    {"t0": math.nan},
    {"t1": math.inf},
    {"t0": -math.inf},
    {"t0": -1e308, "t1": 1e308},  # t1 - t0 overflows: the step would be inf
    {"q0": (0.0, 0.0, 0.0, 0.0)},
    {"q0": (math.nan, 1.0, 0.0, 0.0)},
    {"q0": (0.0, 1.0, math.inf, 0.0)},
    {"q0": (1.0, 0.0, 0.0)},
    {"steps": 10.5},
    # not numbers: an InputError, not a bare Python error
    {"t0": "0"},
    {"t1": "1"},
    {"t0": 10**400},
    {"q0": ("a", 0, 0, 0)},
    {"q0": None},
    {"q0": (10**400, 0, 0, 0)},
])
def test_transport_rejects_degenerate_times_and_spinors(bad):
    kwargs = {"q0": ONE, "steps": 10, "velocity": loop_velocity, **bad}
    with pytest.raises(InputError):
        spin_parallel_transport(unit_sphere(), great_circle, **kwargs)


def test_int_inputs_transport_as_their_floats():
    def run(t1, q0, frame0):
        return spin_parallel_transport(plane(), lambda t: (t, 0.5 * t * t), q0, t1=t1, frame0=frame0, steps=20,
                                       velocity=lambda t: (1.0, t))
    as_ints = run(1, (1, 0, 2, 0), ((1, 0, 0), (0, 1, 0)))
    assert as_ints == run(1.0, (1.0, 0.0, 2.0, 0.0), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    assert as_ints.times[-1] == 1 and all(as_ints.ok)
