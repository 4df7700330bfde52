"""The straight-line RK4 loop of ``spin_parallel_transport`` against a frozen
copy of the tuple-helper integrator it replaced: every trace list (by
``repr``, since NaN rows never compare equal) and every CSV byte must match,
and so must every exception, with its message and failing ``t``.  The one
intended difference: a start chart whose X_u x X_v, X_u or X_v has a length
that is NaN or overflows to inf is now rejected at t0, where the old
integrator normalized it to NaN or zero vectors and went on, or checked a
``frame0`` against it by tests that a NaN passes.

The frozen copy below is the old integrator verbatim, with the vector and
quaternion helpers it used; only its name is changed, and its norm is the
``+`` chain the library uses, which gives the bits ``sum()`` gave on Python
3.10 and 3.11 on every version.  Do not edit it otherwise."""

import math
from typing import Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinrep.errors import InputError, IntegrationError
from spinrep.expressions import ParametricSurface, Vec3, compile_curve, compile_surface
from spinrep.files import trace_to_csv
from spinrep.surfaces import (
    BUILTIN_CURVES,
    BUILTIN_SURFACES,
    TransportTrace,
    spin_parallel_transport,
    surface_frame,
)

# ---------------------------------------------------------------------------
# Frozen reference integrator
# ---------------------------------------------------------------------------

def _add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _scale(a, c):
    return (a[0] * c, a[1] * c, a[2] * c)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _norm(a):
    return math.sqrt(_dot(a, a))


def _normalize(a):
    n = _norm(a)
    if n == 0.0:
        raise InputError("cannot normalize a zero vector")
    return _scale(a, 1.0 / n)


def rotation_to_quaternion(r) -> tuple[float, float, float, float]:
    """Unit quaternion (w, x, y, z) with q v conj(q) = R v, max-diagonal
    branch for numerical stability.  The overall sign follows the branch."""
    t = r[0][0] + r[1][1] + r[2][2]
    candidates = [t, r[0][0], r[1][1], r[2][2]]
    best = max(range(4), key=lambda i: candidates[i])
    if best == 0:
        s = math.sqrt(max(t + 1.0, 0.0)) * 2.0
        w = 0.25 * s
        x = (r[2][1] - r[1][2]) / s
        y = (r[0][2] - r[2][0]) / s
        z = (r[1][0] - r[0][1]) / s
    elif best == 1:
        s = math.sqrt(max(1.0 + r[0][0] - r[1][1] - r[2][2], 0.0)) * 2.0
        w = (r[2][1] - r[1][2]) / s
        x = 0.25 * s
        y = (r[0][1] + r[1][0]) / s
        z = (r[0][2] + r[2][0]) / s
    elif best == 2:
        s = math.sqrt(max(1.0 + r[1][1] - r[0][0] - r[2][2], 0.0)) * 2.0
        w = (r[0][2] - r[2][0]) / s
        x = (r[0][1] + r[1][0]) / s
        y = 0.25 * s
        z = (r[1][2] + r[2][1]) / s
    else:
        s = math.sqrt(max(1.0 + r[2][2] - r[0][0] - r[1][1], 0.0)) * 2.0
        w = (r[1][0] - r[0][1]) / s
        x = (r[0][2] + r[2][0]) / s
        y = (r[1][2] + r[2][1]) / s
        z = 0.25 * s
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / norm, x / norm, y / norm, z / norm)


def quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_conj(a):
    return (a[0], -a[1], -a[2], -a[3])


def quat_rotate(q, v):
    """Rotate the 3-vector v by the unit quaternion q (q v conj(q))."""
    p = (0.0, v[0], v[1], v[2])
    w = quat_mul(quat_mul(q, p), quat_conj(q))
    return (w[1], w[2], w[3])


def _unit_normal(surface: ParametricSurface, u: float, v: float) -> Vec3:
    xu, xv = surface.partials(u, v)
    n = _cross(xu, xv)
    if _norm(n) < 1e-14:
        raise InputError(f"chart is not an immersion at (u,v)=({u},{v})")
    return _normalize(n)


def surface_frame(surface: ParametricSurface, u: float, v: float) -> tuple[Vec3, Vec3, Vec3]:
    """Oriented orthonormal frame: e1 along X_u, e2 the Gram-Schmidt
    complement of X_v, normal e1 x e2."""
    xu, xv = surface.partials(u, v)
    if _norm(xu) < 1e-14:
        raise InputError(f"degenerate X_u at (u,v)=({u},{v})")
    e1 = _normalize(xu)
    xv_perp = _sub(xv, _scale(e1, _dot(xv, e1)))
    if _norm(xv_perp) < 1e-14:
        raise InputError(f"degenerate frame at (u,v)=({u},{v})")
    e2 = _normalize(xv_perp)
    nu = _cross(e1, e2)
    return e1, e2, nu


FRAME_TOL = 1e-9
# what evaluating a chart, a curve or their derivatives raises at a bad point
# (math domain errors, division by zero, overflow, a degenerate chart)
_EVAL_ERRORS = (InputError, ArithmeticError, ValueError)


def _normal_and_velocity(surface, curve, velocity, t):
    """(u, v) = curve(t), the unit normal n there and dn/dt, by the chain rule
    from the curve's velocity (du/dt, dv/dt) = velocity(t)."""
    u, v = curve(t)
    du, dv = velocity(t)
    xu, xv = surface.partials(u, v)
    xuu, xuv, xvv = surface.second_partials(u, v)
    n_raw = _cross(xu, xv)
    n_len = _norm(n_raw)
    if n_len < 1e-14:
        raise IntegrationError("immersion failure along the curve", t)
    n_hat = _scale(n_raw, 1.0 / n_len)
    dxu = _add(_scale(xuu, du), _scale(xuv, dv))
    dxv = _add(_scale(xuv, du), _scale(xvv, dv))
    dn_raw = _add(_cross(dxu, xv), _cross(xu, dxv))
    # derivative of n_raw/|n_raw|
    dn = _scale(_sub(dn_raw, _scale(n_hat, _dot(n_hat, dn_raw))), 1.0 / n_len)
    return (u, v), n_hat, dn


def frozen_spin_parallel_transport(
    surface: ParametricSurface,
    curve: Callable[[float], tuple[float, float]],
    q0: tuple[float, float, float, float],
    initial_sign: int = 1,
    steps: int = 10000,
    t0: float = 0.0,
    t1: float = 1.0,
    frame0: tuple[Vec3, Vec3] | None = None,
    *,
    velocity: Callable[[float], tuple[float, float]],
) -> TransportTrace:
    """Spin parallel transport of the spinor q0 given at the initial time.

    Integrates the spin frame g(t) directly: dg/dt = 1/2 w g with the pure
    quaternion w = n x dn/dt, by fixed-step RK4 with one normalization per
    step.  g(t0) lifts the oriented frame (e1, e2, normal) at t0, which is
    ``frame0`` when given and ``surface_frame`` otherwise; ``initial_sign``
    (+1 or -1) picks one of its two lifts, and the other negates the whole
    trace.  The frame is e1 = g i conj(g), e2 = g j conj(g) and the spinor
    q(t) = g(t) * q0.  ``velocity(t)`` is the curve's exact (du/dt, dv/dt),
    as ``expressions.compile_curve`` returns it with the curve."""
    if steps < 2:
        raise InputError("steps must be at least 2")
    if initial_sign not in (1, -1):
        raise InputError("initial_sign must be +1 or -1")
    try:
        uv = curve(t0)
        nu0, x0 = _unit_normal(surface, *uv), surface.point(*uv)
    except (ArithmeticError, ValueError) as exc:  # InputError at t0 stays an input error
        raise IntegrationError(str(exc), t0) from exc
    if frame0 is None:
        e1, e2, _ = surface_frame(surface, *uv)
    else:
        e1, e2 = tuple(map(float, frame0[0])), tuple(map(float, frame0[1]))
        for name, vec in (("e1", e1), ("e2", e2)):
            if abs(_dot(vec, nu0)) > FRAME_TOL:
                raise InputError(f"initial {name} is not tangent")
        if abs(_dot(e1, e1) - 1) > FRAME_TOL or abs(_dot(e2, e2) - 1) > FRAME_TOL:
            raise InputError("initial frame is not orthonormal")
        if abs(_dot(e1, e2)) > FRAME_TOL:
            raise InputError("initial frame is not orthonormal")
        if _dot(_cross(e1, e2), nu0) < 0:
            raise InputError("initial frame is left-handed: e1 x e2 must be the normal")
    g = rotation_to_quaternion([[e1[i], e2[i], nu0[i]] for i in range(3)])
    g = tuple(initial_sign * c for c in g)
    q_model = tuple(map(float, q0))
    dt = (t1 - t0) / steps
    trace = TransportTrace()

    def half_rate(t):
        """(u, v), the unit normal and 1/2 (0, n x dn/dt) at t."""
        try:
            uv, n, dn = _normal_and_velocity(surface, curve, velocity, t)
        except _EVAL_ERRORS as exc:
            raise IntegrationError(str(exc), t) from exc
        return uv, n, (0.0, *_scale(_cross(n, dn), 0.5))

    def record(t, x, n, g):
        e1 = quat_rotate(g, (1.0, 0.0, 0.0))
        e2 = quat_rotate(g, (0.0, 1.0, 0.0))
        e3 = quat_rotate(g, (0.0, 0.0, 1.0))
        q = quat_mul(g, q_model)
        trace.times.append(t)
        trace.positions.append(x)
        trace.e1.append(e1)
        trace.e2.append(e2)
        trace.normals.append(n)
        trace.lifts.append(g)
        trace.spinors.append(q)
        values = (t, *x, *e1, *e2, *n, *g, *q)
        defect = max(abs(a - b) for a, b in zip(e3, n))
        trace.ok.append(all(map(math.isfinite, values)) and defect <= FRAME_TOL)

    def step_by(g, h, k):
        return tuple(a + h * b for a, b in zip(g, k))

    record(t0, x0, nu0, g)
    w_start = half_rate(t0)[2]
    for step in range(steps):
        t = t0 + step * dt
        t_next = t1 if step == steps - 1 else t0 + (step + 1) * dt
        # w depends on t alone: the midpoint serves k2 and k3, and the end
        # point serves k4, the sample's normal and the next step's k1
        w_mid = half_rate(t + dt / 2)[2]
        uv, n, w_end = half_rate(t_next)
        k1 = quat_mul(w_start, g)
        k2 = quat_mul(w_mid, step_by(g, dt / 2, k1))
        k3 = quat_mul(w_mid, step_by(g, dt / 2, k2))
        k4 = quat_mul(w_end, step_by(g, dt, k3))
        g = tuple(
            gc + (a + 2.0 * (b + c) + d) * (dt / 6) for gc, a, b, c, d in zip(g, k1, k2, k3, k4)
        )
        # +, not sum(), as in the library: sum() compensates its rounding from Python 3.12 on
        norm = math.sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2] + g[3] * g[3])
        g = tuple(c / norm for c in g)
        try:
            x = surface.point(*uv)
        except _EVAL_ERRORS as exc:
            raise IntegrationError(str(exc), t_next) from exc
        record(t_next, x, n, g)
        w_start = w_end
    return trace


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _escaping(t):
    """A curve that leaves through NaN at t > 0.55 without raising."""
    return (t, math.nan) if t > 0.55 else (t, 0.0)


def _escaping_velocity(t):
    return (1.0, math.nan) if t > 0.55 else (1.0, 0.0)


def _outcome(integrate, *args, **kwargs):
    """Everything observable of one run: the CSV lines and the repr of every
    item of every trace list, or the exception's type, message and ``t``."""
    try:
        trace = integrate(*args, **kwargs)
    except Exception as exc:  # the exception is the outcome
        return ("raised", type(exc).__name__, str(exc), repr(getattr(exc, "t", None)))
    lists = {name: [repr(item) for item in getattr(trace, name)] for name in TransportTrace.__slots__}
    return ("trace", {"csv": trace_to_csv(trace).split("\n"), **lists})


def _start_frame(surface, curve, t0, turn):
    """``frame0``: the start frame turned about the normal by ``turn`` quarter
    turns (exactly, when an int) or radians (a float); None when unusable."""
    try:
        e1, e2, _ = surface_frame(surface, *curve(t0))
    except Exception:  # both integrators meet the same failure
        return None
    if not all(map(math.isfinite, e1 + e2)):
        return None
    if isinstance(turn, int):
        for _ in range(turn):
            e1, e2 = e2, tuple(-c for c in e1)
        return e1, e2
    c, s = math.cos(turn), math.sin(turn)
    return (tuple(c * a + s * b for a, b in zip(e1, e2)),
            tuple(c * b - s * a for a, b in zip(e1, e2)))


def _start_overflows(surface, curve, t0):
    """Whether X_u, X_v or X_u x X_v at t0 has a length that is not finite."""
    try:
        xu, xv = surface.partials(*curve(t0))
    except Exception:  # both integrators meet the same failure
        return False
    return not all(_norm(a) < math.inf for a in (xu, xv, _cross(xu, xv)))


def _assert_same(surface_spec, curve_spec, q0, steps, initial_sign=1, t0=0.0, t1=1.0, turn=None):
    surface = compile_surface(BUILTIN_SURFACES.get(surface_spec, surface_spec))
    if curve_spec == "escaping":
        curve, velocity = _escaping, _escaping_velocity
    else:
        curve, velocity = compile_curve(BUILTIN_CURVES.get(curve_spec, curve_spec))
    frame0 = None if turn is None else _start_frame(surface, curve, t0, turn)
    args = (surface, curve, q0, initial_sign, steps, t0, t1, frame0)
    want = _outcome(frozen_spin_parallel_transport, *args, velocity=velocity)
    got = _outcome(spin_parallel_transport, *args, velocity=velocity)
    if got != want and _start_overflows(surface, curve, t0):
        # The one intended difference: a start normal whose length is not
        # finite is an IntegrationError at t0, and a start frame whose X_u or
        # X_v complement has such a length is degenerate.
        assert (got[:2] == ("raised", "IntegrationError") and got[3] == repr(t0)
                or got[:2] == ("raised", "InputError") and got[2].startswith("degenerate ")), got[:3]
        return
    if "raised" in (got[0], want[0]):
        assert got[:2] == want[:2] and got[2:] == want[2:], (got[:1], want[:1])
        return
    # row by row, so that a failure names one short row
    for name, want_rows in want[1].items():
        got_rows = got[1][name]
        assert len(got_rows) == len(want_rows), name
        for row, (g, w) in enumerate(zip(got_rows, want_rows)):
            assert g == w, f"{name}, row {row}"


SPHERE = BUILTIN_SURFACES["unit-sphere"]


@pytest.mark.parametrize("surface, curve, q0, steps", [
    ("unit-sphere", "great-circle", (0.3, 0.1, -0.5, 2.0), 2000),
    ("unit-sphere", "u=2*pi*t; v=0.4", (0.0, 1.0, 0.0, 0.0), 2000),
    (SPHERE, "u=2*pi*t; v=0.4", (0.0, 1.0, 0.0, 0.0), 2000),
    ("plane", "u=cos(t); v=sin(2*t)", (1.0, 0.0, 0.0, 0.0), 500),
    ("x=u; y=v; z=exp(u)*atan(v)**2", "u=cos(2*pi*t)/2; v=0.3+sin(2*pi*t)/3", (1.0, -2.0, 0.5, 0.0), 400),
    ("plane", "escaping", (1.0, 0.0, 0.0, 0.0), 10),
])
def test_pinned_cases_match_the_frozen_integrator(surface, curve, q0, steps):
    _assert_same(surface, curve, q0, steps)


# A small grammar of expressions: sin/cos/exp/atan, products, sums and **.
# The constant 1e200 overflows products to inf, and inf - inf to NaN.
def _expressions(atoms):
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp", "atan"]), inner),
            st.builds("({})*({})".format, inner, inner),
            st.builds("({})+({})".format, inner, inner),
            st.builds("({})**{}".format, inner, st.sampled_from(["2", "3", "0.5", "-1"])),
        ),
        max_leaves=4,
    )


_SURFACE_EXPR = _expressions(["u", "v", "0.5", "-2", "pi", "1e200"])
_CURVE_EXPR = _expressions(["t", "0.3", "-1", "2", "pi", "1e200"])
_SURFACES = st.one_of(
    st.sampled_from(["plane", "unit-sphere"]),
    st.builds("x=u; y=v; z={}".format, _SURFACE_EXPR),
    st.builds("x={}; y={}; z={}".format, _SURFACE_EXPR, _SURFACE_EXPR, _SURFACE_EXPR),
)
_CURVES = st.one_of(
    st.sampled_from(["great-circle", "escaping"]),
    st.builds("u={}; v={}".format, _CURVE_EXPR, _CURVE_EXPR),
)
_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))
_TIME = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.25]), st.floats(-2.0, 2.0))


@settings(max_examples=120, deadline=None)
@given(
    surface=_SURFACES,
    curve=_CURVES,
    q0=st.tuples(_COMPONENT, _COMPONENT, _COMPONENT, _COMPONENT).filter(any),
    steps=st.integers(2, 300),
    initial_sign=st.sampled_from([1, -1]),
    times=st.tuples(_TIME, _TIME).filter(lambda ts: ts[0] != ts[1]),
    turn=st.one_of(st.none(), st.integers(0, 3), st.floats(-math.pi, math.pi)),
)
# signed zeros: on the plane w is zero, and initial_sign -1 makes g -0.0
# where it is zero, so e1, e2 and q have -0.0 components
@example(surface="plane", curve="u=t; v=0", q0=(1.0, 0.0, 0.0, 0.0), steps=3, initial_sign=-1,
         times=(0.0, 1.0), turn=None)
@example(surface="plane", curve="u=t; v=0", q0=(-0.0, 1.0, 0.0, -0.0), steps=3, initial_sign=-1,
         times=(1.0, 0.0), turn=2)
# start normals that overflow to NaN: the intended difference, and a chart
# that overflows first, which both integrators report alike
@example(surface="x=u; y=exp(exp(v)); z=((u)+(1e200))**2", curve="u=t; v=(2)*(pi)",
         q0=(0.0, 0.0, 0.0, 1.0), steps=2, initial_sign=1, times=(0.0, 1.0), turn=0)
@example(surface="x=u; y=(u)*(1e200); z=(exp((v)*(1e200)))**2", curve="great-circle",
         q0=(0.0, 0.0, 0.0, 1.0), steps=2, initial_sign=1, times=(0.0, 1.0), turn=0)
@example(surface="x=u; y=(u)*(1e200); z=(v)*(1e200)", curve="u=t; v=0", q0=(1.0, 0.0, 0.0, 0.0), steps=4,
         initial_sign=1, times=(0.0, 1.0), turn=None)
@example(surface="plane", curve="escaping", q0=(1.0, 0.0, 0.0, 0.0), steps=10, initial_sign=1,
         times=(0.0, 1.0), turn=None)
@example(surface="plane", curve="u=-(t)*(0.3); v=t", q0=(-0.0, 1.0, 0.0, -0.0), steps=7, initial_sign=-1,
         times=(-0.0, 1.0), turn=0.5)
def test_straight_line_loop_matches_the_frozen_integrator(surface, curve, q0, steps, initial_sign, times, turn):
    _assert_same(surface, curve, q0, steps, initial_sign, *times, turn)
