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
import sys
from typing import Callable

from .errors import InputError, IntegrationError
from .expressions import ParametricSurface, Vec3, compile_surface


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


def surface_frame(surface: ParametricSurface, u: float, v: float) -> tuple[Vec3, Vec3, Vec3]:
    """Oriented orthonormal frame: e1 along X_u, e2 the Gram-Schmidt
    complement of X_v, normal e1 x e2.  A length that is NaN or overflows to
    inf fails the tests as a zero one does."""
    xu, xv = surface.partials(u, v)
    if not 1e-14 <= _norm(xu) < math.inf:
        raise InputError(f"degenerate X_u at (u,v)=({u},{v})")
    e1 = _normalize(xu)
    xv_perp = _sub(xv, _scale(e1, _dot(xv, e1)))
    if not 1e-14 <= _norm(xv_perp) < math.inf:
        raise InputError(f"degenerate frame at (u,v)=({u},{v})")
    e2 = _normalize(xv_perp)
    nu = _cross(e1, e2)
    return e1, e2, nu


class TransportTrace:
    """Sampled transport data along a curve, filled one sample at a time.

    ``lifts`` hold the spin frame g(t), a unit quaternion with
    g i conj(g) = e1, g j conj(g) = e2 and g k conj(g) = normal; ``spinors``
    the transported spinor values; ``ok`` per-sample flags (every value
    finite and g k conj(g) within FRAME_TOL of the exact surface normal).
    Two traces are equal when every list is.
    """

    __slots__ = ("times", "positions", "e1", "e2", "normals", "lifts", "spinors", "ok")

    def __init__(self):
        self.times: list[float] = []
        self.positions: list[Vec3] = []
        self.e1: list[Vec3] = []
        self.e2: list[Vec3] = []
        self.normals: list[Vec3] = []
        self.lifts: list[tuple[float, float, float, float]] = []
        self.spinors: list[tuple[float, float, float, float]] = []
        self.ok: list[bool] = []

    def __eq__(self, other):
        if not isinstance(other, TransportTrace):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __len__(self):
        return len(self.times)


FRAME_TOL = 1e-9
# what evaluating a chart, a curve or their derivatives raises at a bad point
# (math domain errors, division by zero, overflow, a degenerate chart)
_EVAL_ERRORS = (InputError, ArithmeticError, ValueError)


def _floats(values, n: int, what: str) -> tuple[float, ...]:
    """``values`` as ``n`` floats; an ``InputError`` whose message starts
    with ``what`` unless they are a tuple or list of ``n`` finite ints or floats."""
    values = values if isinstance(values, (tuple, list)) else ()
    if len(values) != n or not all(isinstance(v, (int, float)) and abs(v) <= sys.float_info.max for v in values):
        raise InputError(f"{what} must be {n} finite numbers")
    return tuple(map(float, values))


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
    as ``expressions.compile_curve`` returns it with the curve.

    The loop keeps every product by 0.0 and 1.0 of the quaternion formulas:
    dropping one can turn a -0.0 into 0.0, or the NaN of inf * 0 into inf."""
    if type(steps) is not int or steps < 2:
        raise InputError(f"steps must be an integer of at least 2, got {steps!r}")
    if initial_sign not in (1, -1):
        raise InputError("initial_sign must be +1 or -1")
    _floats((t0, t1), 2, "t0 and t1")  # the times themselves stay as given
    if not math.isfinite(t1 - t0) or t0 == t1:  # inf on overflow
        raise InputError("t0 and t1 must be finite and different, with t1 - t0 finite")
    q_model = _floats(q0, 4, "q0")
    if not any(q_model):
        raise InputError("q0 must not be zero")
    try:
        uv = curve(t0)
        nu0 = _cross(*surface.partials(*uv))
        n_len = _norm(nu0)
        if not n_len < math.inf:  # NaN, or an overflow that would normalize to 0 or NaN
            raise IntegrationError(f"start normal is not finite at (u,v)=({uv[0]},{uv[1]})", t0)
        if n_len < 1e-14:
            raise InputError(f"chart is not an immersion at (u,v)=({uv[0]},{uv[1]})")
        nu0, x0 = _normalize(nu0), surface.point(*uv)
    except (ArithmeticError, ValueError) as exc:  # InputError at t0 stays an input error
        raise IntegrationError(str(exc), t0) from exc
    if frame0 is None:
        e1, e2, _ = surface_frame(surface, *uv)
    else:
        pair = frame0 if isinstance(frame0, (tuple, list)) and len(frame0) == 2 else (None, None)
        e1, e2 = (_floats(v, 3, "initial e1 and e2 each") for v in pair)
        # each test is written so that a NaN fails it
        for name, vec in (("e1", e1), ("e2", e2)):
            if not abs(_dot(vec, nu0)) <= FRAME_TOL:
                raise InputError(f"initial {name} is not tangent")
        for dot, want in ((_dot(e1, e1), 1), (_dot(e2, e2), 1), (_dot(e1, e2), 0)):
            if not abs(dot - want) <= FRAME_TOL:
                raise InputError("initial frame is not orthonormal")
        if not _dot(_cross(e1, e2), nu0) >= 0:
            raise InputError("initial frame is left-handed: e1 x e2 must be the normal")
    g = rotation_to_quaternion([[e1[i], e2[i], nu0[i]] for i in range(3)])
    gw, gx, gy, gz = (initial_sign * c for c in g)
    qw, qx, qy, qz = q_model
    partials, second_partials, point = surface.partials, surface.second_partials, surface.point

    def rate(t):
        """(u, v, n, x, y, z): u, v = curve(t), the unit normal n there and
        (x, y, z) = 1/2 n x dn/dt = w/2, with dn/dt by the chain rule."""
        try:
            u, v = curve(t)
            du, dv = velocity(t)
            (xu0, xu1, xu2), (xv0, xv1, xv2) = partials(u, v)
            (uu0, uu1, uu2), (uv0, uv1, uv2), (vv0, vv1, vv2) = second_partials(u, v)
            r0, r1, r2 = xu1 * xv2 - xu2 * xv1, xu2 * xv0 - xu0 * xv2, xu0 * xv1 - xu1 * xv0
            n_len = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
            if n_len < 1e-14:
                raise IntegrationError("immersion failure along the curve", t)
            inv = 1.0 / n_len
            n0, n1, n2 = r0 * inv, r1 * inv, r2 * inv
            # d/dt of X_u and X_v, then of X_u x X_v and of its unit vector
            a0, a1, a2 = uu0 * du + uv0 * dv, uu1 * du + uv1 * dv, uu2 * du + uv2 * dv
            b0, b1, b2 = uv0 * du + vv0 * dv, uv1 * du + vv1 * dv, uv2 * du + vv2 * dv
            d0 = (a1 * xv2 - a2 * xv1) + (xu1 * b2 - xu2 * b1)
            d1 = (a2 * xv0 - a0 * xv2) + (xu2 * b0 - xu0 * b2)
            d2 = (a0 * xv1 - a1 * xv0) + (xu0 * b1 - xu1 * b0)
            along = n0 * d0 + n1 * d1 + n2 * d2
            d0, d1, d2 = (d0 - n0 * along) * inv, (d1 - n1 * along) * inv, (d2 - n2 * along) * inv
            return (u, v, (n0, n1, n2),
                    (n1 * d2 - n2 * d1) * 0.5, (n2 * d0 - n0 * d2) * 0.5, (n0 * d1 - n1 * d0) * 0.5)
        except _EVAL_ERRORS as exc:
            raise IntegrationError(str(exc), t) from exc

    trace = TransportTrace()
    times, positions, e1s, e2s = trace.times, trace.positions, trace.e1, trace.e2
    normals, lifts, spinors, oks = trace.normals, trace.lifts, trace.spinors, trace.ok
    isfinite = math.isfinite
    dt = (t1 - t0) / steps
    dt2, dt6 = dt / 2, dt / 6
    t, x, n = t0, x0, nu0
    sx, sy, sz = rate(t0)[3:]  # w/2 at the start of the step; m.. at its midpoint, e.. at its end
    for step in range(steps + 1):
        # the sample at t: e1, e2, e3 = (g p) conj(g) for p = i, j, k, and q = g q0
        gw0, gx0, gy0, gz0 = gw * 0.0, gx * 0.0, gy * 0.0, gz * 0.0
        gw1, gx1, gy1, gz1 = gw * 1.0, gx * 1.0, gy * 1.0, gz * 1.0
        cx, cy, cz = -gx, -gy, -gz
        a0, a1 = gw0 - gx1 - gy0 - gz0, gw1 + gx0 + gy0 - gz0
        a2, a3 = gw0 - gx0 + gy0 + gz1, gw0 + gx0 - gy1 + gz0
        e1 = (a0 * cx + a1 * gw + a2 * cz - a3 * cy, a0 * cy - a1 * cz + a2 * gw + a3 * cx,
              a0 * cz + a1 * cy - a2 * cx + a3 * gw)
        a0, a1 = gw0 - gx0 - gy1 - gz0, gw0 + gx0 + gy0 - gz1
        a2, a3 = gw1 - gx0 + gy0 + gz0, gw0 + gx1 - gy0 + gz0
        e2 = (a0 * cx + a1 * gw + a2 * cz - a3 * cy, a0 * cy - a1 * cz + a2 * gw + a3 * cx,
              a0 * cz + a1 * cy - a2 * cx + a3 * gw)
        a0, a1 = gw0 - gx0 - gy0 - gz1, gw0 + gx0 + gy1 - gz0
        a2, a3 = gw0 - gx1 + gy0 + gz0, gw1 + gx0 - gy0 + gz0
        e3x, e3y, e3z = (a0 * cx + a1 * gw + a2 * cz - a3 * cy, a0 * cy - a1 * cz + a2 * gw + a3 * cx,
                         a0 * cz + a1 * cy - a2 * cx + a3 * gw)
        g = (gw, gx, gy, gz)
        q = (gw * qw - gx * qx - gy * qy - gz * qz, gw * qx + gx * qw + gy * qz - gz * qy,
             gw * qy - gx * qz + gy * qw + gz * qx, gw * qz + gx * qy - gy * qx + gz * qw)
        n0, n1, n2 = n
        times.append(t)
        positions.append(x)
        e1s.append(e1)
        e2s.append(e2)
        normals.append(n)
        lifts.append(g)
        spinors.append(q)
        defect = max(abs(e3x - n0), abs(e3y - n1), abs(e3z - n2))
        oks.append(all(map(isfinite, (t, *x, *e1, *e2, *n, *g, *q))) and defect <= FRAME_TOL)
        if step == steps:
            return trace
        # one RK4 step: w depends on t alone, so the midpoint serves k2 and
        # k3, and the end point serves k4, the next sample and the next k1
        t_next = t1 if step == steps - 1 else t0 + (step + 1) * dt
        mx, my, mz = rate(t0 + step * dt + dt2)[3:]
        u, v, n, ex, ey, ez = rate(t_next)
        k1w, k1x = 0.0 * gw - sx * gx - sy * gy - sz * gz, 0.0 * gx + sx * gw + sy * gz - sz * gy
        k1y, k1z = 0.0 * gy - sx * gz + sy * gw + sz * gx, 0.0 * gz + sx * gy - sy * gx + sz * gw
        aw, ax, ay, az = gw + dt2 * k1w, gx + dt2 * k1x, gy + dt2 * k1y, gz + dt2 * k1z
        k2w, k2x = 0.0 * aw - mx * ax - my * ay - mz * az, 0.0 * ax + mx * aw + my * az - mz * ay
        k2y, k2z = 0.0 * ay - mx * az + my * aw + mz * ax, 0.0 * az + mx * ay - my * ax + mz * aw
        aw, ax, ay, az = gw + dt2 * k2w, gx + dt2 * k2x, gy + dt2 * k2y, gz + dt2 * k2z
        k3w, k3x = 0.0 * aw - mx * ax - my * ay - mz * az, 0.0 * ax + mx * aw + my * az - mz * ay
        k3y, k3z = 0.0 * ay - mx * az + my * aw + mz * ax, 0.0 * az + mx * ay - my * ax + mz * aw
        aw, ax, ay, az = gw + dt * k3w, gx + dt * k3x, gy + dt * k3y, gz + dt * k3z
        k4w, k4x = 0.0 * aw - ex * ax - ey * ay - ez * az, 0.0 * ax + ex * aw + ey * az - ez * ay
        k4y, k4z = 0.0 * ay - ex * az + ey * aw + ez * ax, 0.0 * az + ex * ay - ey * ax + ez * aw
        gw += (k1w + 2.0 * (k2w + k3w) + k4w) * dt6
        gx += (k1x + 2.0 * (k2x + k3x) + k4x) * dt6
        gy += (k1y + 2.0 * (k2y + k3y) + k4y) * dt6
        gz += (k1z + 2.0 * (k2z + k3z) + k4z) * dt6
        # +, not sum(): from Python 3.12 on sum() compensates its rounding, and
        # this chain gives the bits Python 3.10 and 3.11 sum() gave on every version
        norm = math.sqrt(gw * gw + gx * gx + gy * gy + gz * gz)
        gw, gx, gy, gz = gw / norm, gx / norm, gy / norm, gz / norm
        try:
            x = point(u, v)
        except _EVAL_ERRORS as exc:
            raise IntegrationError(str(exc), t_next) from exc
        t, sx, sy, sz = t_next, ex, ey, ez


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
    from . import algebras as alg

    nq, vq, qq = (alg.kelem("H", x) for x in (normal, v, q))
    if alg.norm_sq(nq) != 1:
        raise InputError("normal is not a unit quaternion")
    if alg.real_part(alg.mul(alg.conj(nq), vq)) != 0:
        raise InputError("v is not tangent (Re(conj(n) v) != 0)")
    return alg.mul(alg.mul(vq, alg.conj(nq)), qq)
