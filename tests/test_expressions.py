"""The expression language of --surface and --curve: the whitelist, exact
derivatives, and the holonomy they buy on an expression sphere."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrep.expressions import compile_curve, compile_surface
from spinrep.errors import InputError
from spinrep.surfaces import spin_parallel_transport, unit_sphere

SPHERE = "x=sin(u)*cos(v); y=sin(v); z=cos(u)*cos(v)"


@pytest.mark.parametrize(
    "expr",
    [
        "().__class__",          # attribute
        "u.real",
        "(u, v)[0]",             # subscript
        "(lambda: u)()",         # lambda
        "[u for w in (1, 2)][0]",  # comprehension
        "'u'",                   # string
        "sin(x=u)",              # keyword argument
        "sin(u, v)",
        "sin(*u)",
        "w",                     # unknown names
        "__import__",
        "log(u)",
        "sin",                   # a function is not a value
        "pi(u)",
        "u(v)",
        "u if v else 0",
        "u // 2",
        "u % 2",
        "u < v",
        "1j",
        "True",
        "1e999",
    ],
)
def test_rejected_expressions(expr):
    with pytest.raises(InputError):
        compile_surface(f"x={expr}; y=v; z=0")


@pytest.mark.parametrize(
    "spec",
    ["x=u; y=v", "x=u; y=v; z=0; w=1", "x=u; y=v; z=0; xy=1", "x=u; y=v; z=0; =1",
     "x=u; x=v; y=v; z=0", "x=u; y=v; z", "", "sphere", "x=u; y=v; z=t"],
)
def test_rejected_surface_specs(spec):
    with pytest.raises(InputError):
        compile_surface(spec)


def test_rejected_curve_specs():
    for spec in ("u=t", "u=t; v=u", "u=t; v=0; w=1", "u=t; v=t[0]"):
        with pytest.raises(InputError):
            compile_curve(spec)


_TOKENS = st.sampled_from([
    "u", "v", "t", "x", "y", "z", "w", "=", ";", " ", "0", "1", "2.5", "1e400", "pi",
    "sin(", "cos(", "tan(", "exp(", "sqrt(", "atan(", "abs(", "log(", "(", ")", ",",
    "+", "-", "*", "/", "**", ".", "[", "]", "'", "lambda", ":", "__class__", "_0",
])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=60), st.lists(_TOKENS, max_size=25).map("".join)))
def test_compiler_returns_or_raises_input_error(text):
    """Arbitrary text compiles or raises InputError; compiled code returns
    floats or raises a math domain or arithmetic error."""
    for parse, args in ((compile_surface, (0.3, 0.7)), (compile_curve, (0.3,))):
        try:
            compiled = parse(text)
        except InputError:
            continue
        functions = compiled if isinstance(compiled, tuple) else (
            compiled.chart, compiled.partials, compiled.second_partials)
        for f in functions:
            try:
                values = f(*args)
            except (ArithmeticError, ValueError):
                continue
            flat = [c for v in values for c in (v if isinstance(v, tuple) else (v,))]
            assert all(type(c) is float for c in flat)


def _sphere_reference(u, v):
    """The unit sphere's chart, partials and second partials, derived by
    hand: X(u, v) = (sin u cos v, sin v, cos u cos v)."""
    su, cu, sv, cv = math.sin(u), math.cos(u), math.sin(v), math.cos(v)
    point = (su * cv, sv, cu * cv)
    xu = (cu * cv, 0.0, -su * cv)
    xv = (-su * sv, cv, -cu * sv)
    xuu = (-su * cv, 0.0, -cu * cv)
    xuv = (-cu * sv, 0.0, su * sv)
    xvv = (-su * cv, -sv, -cu * cv)
    return point, (xu, xv), (xuu, xuv, xvv)


def test_sphere_partials_match_unit_sphere():
    """Bitwise, signed zeros included, for the spec and the builtin name."""
    for surface in (compile_surface(SPHERE), unit_sphere()):
        for i in range(-8, 9):
            for j in range(-4, 5):
                u, v = 0.37 * i, 0.33 * j
                got = (surface.point(u, v), surface.partials(u, v), surface.second_partials(u, v))
                assert repr(got) == repr(_sphere_reference(u, v))


@pytest.mark.parametrize(
    "expr, derivative",
    [
        ("2*pi*t", lambda t: 2 * math.pi),
        ("-t*cos(t)", lambda t: -math.cos(t) + t * math.sin(t)),
        ("tan(t)", lambda t: 1 / math.cos(t) ** 2),
        ("exp(2*t)/(2+t)", lambda t: math.exp(2 * t) * (2 / (2 + t) - 1 / (2 + t) ** 2)),
        ("sqrt(1+t*t)", lambda t: t / math.sqrt(1 + t * t)),
        ("atan(3*t)", lambda t: 3 / (1 + 9 * t * t)),
        ("abs(t-0.25)", lambda t: math.copysign(1.0, t - 0.25)),
        ("t**3 - +t", lambda t: 3 * t * t - 1),
        ("(1+t)**t", lambda t: (1 + t) ** t * (math.log(1 + t) + t / (1 + t))),
        ("2**sin(t)", lambda t: 2 ** math.sin(t) * math.log(2) * math.cos(t)),
    ],
)
def test_curve_velocity_is_exact(expr, derivative):
    curve, velocity = compile_curve(f"u={expr}; v=0.5")
    for t in (0.1, 0.4, 0.7, 0.9):
        du, dv = velocity(t)
        assert dv == 0.0
        assert abs(du - derivative(t)) <= 1e-14 * max(1.0, abs(derivative(t)))


def test_second_partials_are_exact():
    surface = compile_surface("x=u*u*v; y=exp(u*v); z=sin(u)/v")
    for u, v in ((0.3, 0.7), (-1.1, 1.9), (2.0, -0.4)):
        e = math.exp(u * v)
        xuu, xuv, xvv = surface.second_partials(u, v)
        want = (
            (2 * v, v * v * e, -math.sin(u) / v),
            (2 * u, e + u * v * e, -math.cos(u) / v ** 2),
            (0.0, u * u * e, 2 * math.sin(u) / v ** 3),
        )
        for got, exp in zip((xuu, xuv, xvv), want):
            assert max(abs(a - b) for a, b in zip(got, exp)) <= 1e-14 * max(1.0, *map(abs, exp))


def _holonomy_error(trace, phi):
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    e1_0, e2_0, e1_1 = trace.e1[0], trace.e2[0], trace.e1[-1]
    angle = math.atan2(dot(e1_1, e2_0), dot(e1_1, e1_0))
    diff = (angle - 2 * math.pi * (1 - math.sin(phi))) % (2 * math.pi)
    return min(diff, 2 * math.pi - diff)


@pytest.mark.parametrize("sphere", [unit_sphere, lambda: compile_surface(SPHERE)],
                         ids=["builtin", "expression"])
@pytest.mark.parametrize("phi", [0.3, 0.5, 0.7])
def test_latitude_holonomy_gate(sphere, phi):
    """One loop of the latitude phi turns the parallel frame by the enclosed
    area 2 pi (1 - sin phi); with exact derivatives RK4 reaches it to 1e-13
    at 10k steps on the builtin and on the expression sphere alike."""
    curve, velocity = compile_curve(f"u=2*pi*t; v={phi}")
    trace = spin_parallel_transport(
        sphere(), curve, (1.0, 0.0, 0.0, 0.0), steps=10000, velocity=velocity
    )
    assert _holonomy_error(trace, phi) <= 1e-13
