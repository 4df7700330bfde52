"""Parametric surfaces in R^3 with the quaternionic spinor model: frame
parallel transport along curves and its lift to spin parallel transport.

The pipeline follows the moving-frame construction: integrate the parallel
frame ODE  dV/dt = -(V . dn/dt) n  with fixed-step RK4 (re-orthonormalizing
each step), collect the rotations R(t) [i j k] = [e1(t) e2(t) n(t)], lift the
rotation path continuously to unit quaternions, and move the initial spinor
by left multiplication.  Everything here is floating point; the exact
algebraic layer is not involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import InputError, IntegrationError
from .spin import (
    LIFT_DOT_MIN,
    lift_residual,
    quat_mul,
    quaternion_lift_path,
)

FD_STEP = 1e-6  # central-difference step for missing derivatives

Vec3 = tuple[float, float, float]


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


@dataclass
class ParametricSurface:
    """Chart (u,v) -> R^3 with optional analytic derivatives.

    Missing first or second partials are filled by central differences with
    step 1e-6.  ``partials`` returns (X_u, X_v); ``second_partials`` returns
    (X_uu, X_uv, X_vv).
    """

    chart: Callable[[float, float], Vec3]
    partials: Callable[[float, float], tuple[Vec3, Vec3]] | None = None
    second_partials: Callable[[float, float], tuple[Vec3, Vec3, Vec3]] | None = None
    name: str = "surface"

    def point(self, u: float, v: float) -> Vec3:
        return tuple(map(float, self.chart(u, v)))

    def first_partials(self, u: float, v: float) -> tuple[Vec3, Vec3]:
        if self.partials is not None:
            xu, xv = self.partials(u, v)
            return tuple(map(float, xu)), tuple(map(float, xv))
        h = FD_STEP
        xu = _scale(_sub(self.point(u + h, v), self.point(u - h, v)), 0.5 / h)
        xv = _scale(_sub(self.point(u, v + h), self.point(u, v - h)), 0.5 / h)
        return xu, xv

    def second_partials_at(self, u: float, v: float) -> tuple[Vec3, Vec3, Vec3]:
        if self.second_partials is not None:
            xuu, xuv, xvv = self.second_partials(u, v)
            return tuple(map(float, xuu)), tuple(map(float, xuv)), tuple(map(float, xvv))
        h = FD_STEP
        xu_p, _ = self.first_partials(u + h, v)
        xu_m, _ = self.first_partials(u - h, v)
        _, xv_p = self.first_partials(u, v + h)
        _, xv_m = self.first_partials(u, v - h)
        _, xv_up = self.first_partials(u + h, v)
        _, xv_um = self.first_partials(u - h, v)
        xuu = _scale(_sub(xu_p, xu_m), 0.5 / h)
        xvv = _scale(_sub(xv_p, xv_m), 0.5 / h)
        xuv = _scale(_sub(xv_up, xv_um), 0.5 / h)
        return xuu, xuv, xvv

    def normal(self, u: float, v: float) -> Vec3:
        xu, xv = self.first_partials(u, v)
        n = _cross(xu, xv)
        if _norm(n) < 1e-14:
            raise InputError(f"chart is not an immersion at (u,v)=({u},{v})")
        return _normalize(n)


def unit_sphere() -> ParametricSurface:
    """Unit sphere chart covering the prime great circle without degeneracy:
    X(u, v) = (sin u cos v, sin v, cos u cos v), outward normal."""

    def chart(u, v):
        return (math.sin(u) * math.cos(v), math.sin(v), math.cos(u) * math.cos(v))

    def partials(u, v):
        xu = (math.cos(u) * math.cos(v), 0.0, -math.sin(u) * math.cos(v))
        xv = (-math.sin(u) * math.sin(v), math.cos(v), -math.cos(u) * math.sin(v))
        return xu, xv

    def second(u, v):
        xuu = (-math.sin(u) * math.cos(v), 0.0, -math.cos(u) * math.cos(v))
        xuv = (-math.cos(u) * math.sin(v), 0.0, math.sin(u) * math.sin(v))
        xvv = (-math.sin(u) * math.cos(v), -math.sin(v), -math.cos(u) * math.cos(v))
        return xuu, xuv, xvv

    return ParametricSurface(chart, partials, second, name="unit-sphere")


def plane() -> ParametricSurface:
    def chart(u, v):
        return (u, v, 0.0)

    def partials(u, v):
        return (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)

    def second(u, v):
        z = (0.0, 0.0, 0.0)
        return z, z, z

    return ParametricSurface(chart, partials, second, name="plane")


BUILTIN_SURFACES = {"unit-sphere": unit_sphere, "plane": plane}


def surface_frame(surface: ParametricSurface, u: float, v: float) -> tuple[Vec3, Vec3, Vec3]:
    """Oriented orthonormal frame: e1 along X_u, e2 the Gram-Schmidt
    complement of X_v, normal e1 x e2."""
    xu, xv = surface.first_partials(u, v)
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

    ``rotations`` hold R(t) with columns (e1, e2, normal); ``lifts`` the
    continuous unit-quaternion lift; ``spinors`` the transported spinor
    values; ``ok`` per-sample tolerance flags (frame orthonormality and lift
    residual within bounds).
    """

    times: list[float] = field(default_factory=list)
    positions: list[Vec3] = field(default_factory=list)
    e1: list[Vec3] = field(default_factory=list)
    e2: list[Vec3] = field(default_factory=list)
    normals: list[Vec3] = field(default_factory=list)
    rotations: list[list[list[float]]] = field(default_factory=list)
    lifts: list[tuple[float, float, float, float]] = field(default_factory=list)
    spinors: list[tuple[float, float, float, float]] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)

    def __len__(self):
        return len(self.times)


FRAME_TOL = 1e-9
LIFT_TOL = 1e-8
# what evaluating a chart, a curve or their derivatives raises at a bad point
# (math domain errors, division by zero, overflow, a degenerate chart)
_EVAL_ERRORS = (InputError, ArithmeticError, ValueError)


def _normal_and_velocity(surface, curve, velocity, t):
    """Unit normal n and dn/dt at curve(t), by the chain rule.

    ``velocity(t)`` gives (du/dt, dv/dt); without it the curve is
    differenced centrally with step FD_STEP.  Second partials are exact
    when the surface provides them, otherwise finite differences."""
    u, v = curve(t)
    if velocity is None:
        h = FD_STEP
        u_p, v_p = curve(t + h)
        u_m, v_m = curve(t - h)
        du = (u_p - u_m) / (2 * h)
        dv = (v_p - v_m) / (2 * h)
    else:
        du, dv = velocity(t)
    xu, xv = surface.first_partials(u, v)
    xuu, xuv, xvv = surface.second_partials_at(u, v)
    n_raw = _cross(xu, xv)
    n_len = _norm(n_raw)
    if n_len < 1e-14:
        raise IntegrationError("immersion failure along the curve", t)
    n_hat = _scale(n_raw, 1.0 / n_len)
    dxu = _add(_scale(xuu, du), _scale(xuv, dv))
    dxv = _add(_scale(xuv, du), _scale(xvv, dv))
    dn_raw = _add(_cross(dxu, xv), _cross(xu, dxv))
    # derivative of n_raw/|n_raw|
    return n_hat, _scale(_sub(dn_raw, _scale(n_hat, _dot(n_hat, dn_raw))), 1.0 / n_len)


def parallel_transport_frame(
    surface: ParametricSurface,
    curve: Callable[[float], tuple[float, float]],
    frame0: tuple[Vec3, Vec3] | None = None,
    steps: int = 10000,
    t0: float = 0.0,
    t1: float = 1.0,
    velocity: Callable[[float], tuple[float, float]] | None = None,
) -> TransportTrace:
    """Parallel-transport an initial tangent frame along the curve.

    Integrates dV/dt = -(V . dn/dt) n with fixed-step RK4 and per-step
    Gram-Schmidt re-orthonormalization; fills times, positions, frames and
    rotations of the returned trace.  ``velocity(t)``, when given, is the
    curve's exact (du/dt, dv/dt); otherwise the curve is differenced.
    """
    if steps < 2:
        raise InputError("steps must be at least 2")

    def at(t):
        """(u, v), the unit normal and the point at curve parameter t."""
        uv = curve(t)
        return uv, surface.normal(*uv), surface.point(*uv)

    try:
        (u0, v0), nu0, x0 = at(t0)
    except (ArithmeticError, ValueError) as exc:  # InputError at t0 stays an input error
        raise IntegrationError(str(exc), t0) from exc
    if frame0 is None:
        e1, e2, _ = surface_frame(surface, u0, v0)
    else:
        e1, e2 = tuple(map(float, frame0[0])), tuple(map(float, frame0[1]))
        for name, vec in (("e1", e1), ("e2", e2)):
            if abs(_dot(vec, nu0)) > FRAME_TOL:
                raise InputError(f"initial {name} is not tangent")
        if abs(_dot(e1, e1) - 1) > FRAME_TOL or abs(_dot(e2, e2) - 1) > FRAME_TOL:
            raise InputError("initial frame is not orthonormal")
        if abs(_dot(e1, e2)) > FRAME_TOL:
            raise InputError("initial frame is not orthonormal")

    dt = (t1 - t0) / steps
    trace = TransportTrace()

    def rhs(t, state):
        try:
            n, dn = _normal_and_velocity(surface, curve, velocity, t)
        except _EVAL_ERRORS as exc:
            raise IntegrationError(str(exc), t) from exc
        return [_scale(n, -_dot(vec, dn)) for vec in state]

    def record(t, x, n, e1, e2):
        trace.times.append(t)
        trace.positions.append(x)
        trace.e1.append(e1)
        trace.e2.append(e2)
        trace.normals.append(n)
        trace.rotations.append(
            [[e1[i], e2[i], n[i]] for i in range(3)]
        )

    state = (e1, e2)
    record(t0, x0, nu0, e1, e2)
    for step in range(steps):
        t = t0 + step * dt
        k1 = rhs(t, state)
        s2 = tuple(_add(v, _scale(k, dt / 2)) for v, k in zip(state, k1))
        k2 = rhs(t + dt / 2, s2)
        s3 = tuple(_add(v, _scale(k, dt / 2)) for v, k in zip(state, k2))
        k3 = rhs(t + dt / 2, s3)
        s4 = tuple(_add(v, _scale(k, dt)) for v, k in zip(state, k3))
        k4 = rhs(t + dt, s4)
        state = tuple(
            _add(v, _scale(_add(_add(a, _scale(_add(b, c), 2.0)), d), dt / 6))
            for v, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
        t = t1 if step == steps - 1 else t0 + (step + 1) * dt
        # re-orthonormalize against the exact normal at the new point
        try:
            _, n, x = at(t)
            v1 = _sub(state[0], _scale(n, _dot(state[0], n)))
            v1 = _normalize(v1)
            v2 = _sub(state[1], _scale(n, _dot(state[1], n)))
            v2 = _sub(v2, _scale(v1, _dot(v2, v1)))
            v2 = _normalize(v2)
        except _EVAL_ERRORS as exc:
            raise IntegrationError(str(exc), t) from exc
        state = (v1, v2)
        record(t, x, n, v1, v2)
    return trace


def _frame_defect(e1, e2, n) -> float:
    worst = 0.0
    vecs = (e1, e2, n)
    for i in range(3):
        for j in range(i, 3):
            target = 1.0 if i == j else 0.0
            worst = max(worst, abs(_dot(vecs[i], vecs[j]) - target))
    return worst


def spin_parallel_transport(
    surface: ParametricSurface,
    curve: Callable[[float], tuple[float, float]],
    q0: tuple[float, float, float, float],
    initial_sign: int = 1,
    steps: int = 10000,
    t0: float = 0.0,
    t1: float = 1.0,
    frame0: tuple[Vec3, Vec3] | None = None,
    strict: bool = True,
    velocity: Callable[[float], tuple[float, float]] | None = None,
) -> TransportTrace:
    """Spin parallel transport of the spinor q0 given at the initial time.

    Composes frame transport, continuous path lifting g(t), and left
    quaternion multiplication: q(t) = g(t) * q0 with q0 the model-space
    spinor (the value in the fiber at t0 is g(t0) * q0; for curves starting
    at the standard frame g(t0) = +-1).  ``initial_sign`` selects between
    the two lifts; the other lift negates the whole trace."""
    trace = parallel_transport_frame(surface, curve, frame0, steps, t0, t1, velocity)
    lifted = quaternion_lift_path(trace.rotations, initial_sign, strict=strict)
    if strict:
        lifts, ambiguous = lifted, []
    else:
        lifts, ambiguous = lifted
    trace.lifts = list(lifts)
    q_model = tuple(map(float, q0))
    ambiguous_set = set(ambiguous)
    for idx in range(len(trace)):
        g = lifts[idx]
        q = quat_mul(g, q_model)
        trace.spinors.append(q)
        e1, e2, n = trace.e1[idx], trace.e2[idx], trace.normals[idx]
        values = (trace.times[idx], *trace.positions[idx], *e1, *e2, *n, *g, *q)
        finite = all(map(math.isfinite, values))
        frame_ok = _frame_defect(e1, e2, n) <= FRAME_TOL
        lift_ok = lift_residual(g, trace.rotations[idx]) <= LIFT_TOL
        trace.ok.append(finite and frame_ok and lift_ok and idx not in ambiguous_set)
    return trace


def hypersurface4_action(normal, v, q, tol: float | None = None):
    """Clifford action of a tangent vector on spinors along a hypersurface
    in R^4 viewed as the quaternions.

    The unit normal identifies the tangent space with the imaginary
    quaternions through the isometry v -> v * conj(normal); the action is
    left multiplication by that imaginary unit image, so squaring gives
    -|v|^2 exactly for every tangent v (multiplying the normal on the other
    side would break this whenever normal and v both have real components).

    ``normal`` must be a unit quaternion, ``v`` tangent at that point
    (Re(conj(normal) * v) = 0).  With rational inputs and tol=None the
    preconditions are checked exactly; pass a tolerance for float data.
    """
    from fractions import Fraction

    from . import algebras as alg

    exact = tol is None

    def to_kelem(x):
        if exact:
            return alg.kelem("H", [Fraction(c) for c in x])
        return alg.KElement("H", tuple(Fraction(float(c)) for c in x))

    nq = to_kelem(normal)
    vq = to_kelem(v)
    qq = to_kelem(q)
    norm_defect = alg.norm_sq(nq) - 1
    tangency = alg.real_part(alg.mul(alg.conj(nq), vq))
    if exact:
        if norm_defect != 0:
            raise InputError("normal is not a unit quaternion")
        if tangency != 0:
            raise InputError("v is not tangent (Re(conj(n) v) != 0)")
    else:
        if abs(float(norm_defect)) > tol:
            raise InputError("normal is not a unit quaternion within tolerance")
        if abs(float(tangency)) > tol:
            raise InputError("v is not tangent within tolerance")
    return alg.mul(alg.mul(vq, alg.conj(nq)), qq)
