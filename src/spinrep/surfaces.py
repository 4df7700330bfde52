"""Parametric surfaces in R^3 with the quaternionic spinor model: spin
parallel transport along curves.

The spin frame g(t) is one unit quaternion whose rotation carries [i j k]
to [e1(t) e2(t) n(t)].  Transport integrates its ODE  dg/dt = 1/2 (n x dn/dt) g
with fixed-step RK4 (normalizing g once per step), reads the parallel frame
off g as e1 = g i conj(g), e2 = g j conj(g), and moves the initial spinor by
left multiplication.  The sign of g is carried continuously, so no path
lifting is needed.  Everything here is floating point; the exact algebraic
layer is not involved.

Every surface is a chart compiled by ``spinrep.expressions`` with its exact
partials; the builtin names (``unit-sphere``, ``plane``, ``great-circle``)
are shorthands for the specs in BUILTIN_SURFACES and BUILTIN_CURVES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import InputError, IntegrationError
from .expressions import ParametricSurface, Vec3, compile_surface


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


# ---------------------------------------------------------------------------
# Floating-point unit quaternions (the spin frames of transport)
# ---------------------------------------------------------------------------

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


# The builtin surfaces and curves of ``transport``: each name is shorthand
# for a spec, compiled like any other.
BUILTIN_SURFACES = {
    "unit-sphere": "x=sin(u)*cos(v); y=sin(v); z=cos(u)*cos(v)",
    "plane": "x=u; y=v; z=0",
}
BUILTIN_CURVES = {"great-circle": "u=2*pi*t; v=0"}


def unit_sphere() -> ParametricSurface:
    """Unit sphere chart covering the prime great circle without degeneracy:
    X(u, v) = (sin u cos v, sin v, cos u cos v), outward normal."""
    return compile_surface(BUILTIN_SURFACES["unit-sphere"])


def plane() -> ParametricSurface:
    """The plane z = 0: X(u, v) = (u, v, 0), normal e3."""
    return compile_surface(BUILTIN_SURFACES["plane"])


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


@dataclass
class TransportTrace:
    """Sampled transport data along a curve.

    ``lifts`` hold the spin frame g(t), a unit quaternion with
    g i conj(g) = e1, g j conj(g) = e2 and g k conj(g) = normal; ``spinors``
    the transported spinor values; ``ok`` per-sample flags (every value
    finite and g k conj(g) within FRAME_TOL of the exact surface normal).
    """

    times: list[float] = field(default_factory=list)
    positions: list[Vec3] = field(default_factory=list)
    e1: list[Vec3] = field(default_factory=list)
    e2: list[Vec3] = field(default_factory=list)
    normals: list[Vec3] = field(default_factory=list)
    lifts: list[tuple[float, float, float, float]] = field(default_factory=list)
    spinors: list[tuple[float, float, float, float]] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)

    def __len__(self):
        return len(self.times)

    @property
    def rotations(self) -> list[list[list[float]]]:
        """R(t) with columns (e1, e2, normal), one per sample."""
        return [
            [[e1[i], e2[i], n[i]] for i in range(3)]
            for e1, e2, n in zip(self.e1, self.e2, self.normals)
        ]


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


def spin_parallel_transport(
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
        norm = math.sqrt(sum(c * c for c in g))
        g = tuple(c / norm for c in g)
        try:
            x = surface.point(*uv)
        except _EVAL_ERRORS as exc:
            raise IntegrationError(str(exc), t_next) from exc
        record(t_next, x, n, g)
        w_start = w_end
    return trace


def hypersurface4_action(normal, v, q):
    """Clifford action of a tangent vector on spinors along a hypersurface
    in R^4 viewed as the quaternions.

    The unit normal identifies the tangent space with the imaginary
    quaternions through the isometry v -> v * conj(normal); the action is
    left multiplication by that imaginary unit image, so squaring gives
    -|v|^2 exactly for every tangent v (multiplying the normal on the other
    side would break this whenever normal and v both have real components).

    ``normal`` must be a unit quaternion, ``v`` tangent at that point
    (Re(conj(normal) * v) = 0).  The inputs are read as Fractions and both
    preconditions are checked exactly.
    """
    from fractions import Fraction

    from . import algebras as alg

    nq, vq, qq = (alg.kelem("H", [Fraction(c) for c in x]) for x in (normal, v, q))
    if alg.norm_sq(nq) != 1:
        raise InputError("normal is not a unit quaternion")
    if alg.real_part(alg.mul(alg.conj(nq), vq)) != 0:
        raise InputError("v is not tangent (Re(conj(n) v) != 0)")
    return alg.mul(alg.mul(vq, alg.conj(nq)), qq)
