"""The expression language of ``transport --surface`` and ``--curve``: the
one evaluator of the surfaces and curves the CLI transports along.

A surface spec is ``x=EXPR; y=EXPR; z=EXPR`` in the variables u, v; a curve
spec is ``u=EXPR; v=EXPR`` in t.  An expression may hold only numbers, the
variables, the constant ``pi``, ``+ - * / **``, unary ``+``/``-`` and the
functions below called with one positional argument; anything else raises
InputError before anything is evaluated.  Each spec is parsed with ``ast``
against that whitelist, differentiated symbolically, and compiled once into
straight-line Python: the chart with its first and second partials (a
``ParametricSurface``), or the curve with its velocity (du/dt, dv/dt).  The
builtin surfaces and curves of ``spinrep.surfaces`` are specs too.
"""

from __future__ import annotations

import ast
import math
from functools import partial
from typing import Callable

from .errors import InputError

Vec3 = tuple[float, float, float]

_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
    "sqrt": math.sqrt, "atan": math.atan, "abs": abs,
}
_CONSTANTS = {"pi": math.pi}
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}
# What the generated code can call.  ``log`` and ``sign`` occur only in
# derivatives; no user name reaches them.  ``math.pow`` raises ValueError for
# a negative base with a fractional exponent, where ``**`` turns complex.
_RUNTIME = dict(_FUNCTIONS, log=math.log, sign=partial(math.copysign, 1.0), power=math.pow)


class ParametricSurface:
    """Chart (u,v) -> R^3 with its exact derivatives: ``partials`` returns
    (X_u, X_v) and ``second_partials`` returns (X_uu, X_uv, X_vv)."""

    __slots__ = ("chart", "partials", "second_partials")

    def __init__(self, chart: Callable[[float, float], Vec3],
                 partials: Callable[[float, float], tuple[Vec3, Vec3]],
                 second_partials: Callable[[float, float], tuple[Vec3, Vec3, Vec3]]):
        self.chart = chart
        self.partials = partials
        self.second_partials = second_partials

    def point(self, u: float, v: float) -> Vec3:
        return tuple(map(float, self.chart(u, v)))


class _Graph:
    """Hash-consed expression graph.  Node ``i`` is ``nodes[i]``, one of
    ("num", value), ("var", name), ("neg", a), ("call", function, a) or
    (op, a, b) with op in + - * / **, where a and b are ids of earlier
    nodes; so ids run in evaluation order and equal subexpressions share
    one id.  The building methods fold the identities of 0 and 1."""

    def __init__(self):
        self.nodes: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.zero = self.node("num", 0.0)
        self.one = self.node("num", 1.0)

    def node(self, *key) -> int:
        if key not in self.ids:
            self.ids[key] = len(self.nodes)
            self.nodes.append(key)
        return self.ids[key]

    def add(self, a, b):
        return b if a == self.zero else a if b == self.zero else self.node("+", a, b)

    def sub(self, a, b):
        if b == self.zero:
            return a
        return self.neg(b) if a == self.zero else self.node("-", a, b)

    def mul(self, a, b):
        if self.zero in (a, b):
            return self.zero
        return b if a == self.one else a if b == self.one else self.node("*", a, b)

    def div(self, a, b):
        return a if b == self.one or a == self.zero else self.node("/", a, b)

    def neg(self, a):
        if a == self.zero:
            return a
        return self.nodes[a][1] if self.nodes[a][0] == "neg" else self.node("neg", a)

    def pow(self, a, b):
        return a if b == self.one else self.one if b == self.zero else self.node("**", a, b)

    def parse(self, node: ast.AST, variables: tuple[str, ...]) -> int:
        """Id of a whitelisted ``ast`` expression; InputError otherwise.
        Unlike the building methods this folds nothing, so the chart and
        the curve compute exactly the operations written."""
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = float(node.value)
            if not math.isfinite(value):
                raise InputError(f"number {node.value!r} is out of range")
            return self.node("num", value)
        if isinstance(node, ast.Name):
            if node.id in variables:
                return self.node("var", node.id)
            if node.id in _CONSTANTS:
                return self.node("num", _CONSTANTS[node.id])
            raise InputError(f"unknown name {node.id!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            operand = self.parse(node.operand, variables)
            return operand if isinstance(node.op, ast.UAdd) else self.node("neg", operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            left = self.parse(node.left, variables)
            return self.node(_BINOPS[type(node.op)], left, self.parse(node.right, variables))
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords
            and not isinstance(node.args[0], ast.Starred)
        ):
            return self.node("call", node.func.id, self.parse(node.args[0], variables))
        raise InputError(f"{type(node).__name__} is not allowed in an expression")

    def _reachable(self, roots) -> list[int]:
        """Ids the roots depend on, in evaluation order."""
        seen, stack = set(), list(roots)
        while stack:
            i = stack.pop()
            if i not in seen:
                seen.add(i)
                stack.extend(a for a in self.nodes[i][1:] if type(a) is int)
        return sorted(seen)

    def _chain(self, function, a):
        """f'(a) for each function f the generated code can call."""
        if function == "sin":
            return self.node("call", "cos", a)
        if function == "cos":
            return self.neg(self.node("call", "sin", a))
        if function == "tan":
            cos = self.node("call", "cos", a)
            return self.div(self.one, self.mul(cos, cos))
        if function == "exp":
            return self.node("call", "exp", a)
        if function == "sqrt":
            return self.div(self.node("num", 0.5), self.node("call", "sqrt", a))
        if function == "atan":
            return self.div(self.one, self.add(self.one, self.mul(a, a)))
        if function == "abs":
            return self.node("call", "sign", a)
        if function == "log":
            return self.div(self.one, a)
        return self.zero  # sign

    def derivative(self, roots: list[int], x: str) -> list[int]:
        """Exact partial derivatives of the roots in the variable ``x``."""
        d: dict[int, int] = {}
        for i in self._reachable(roots):
            kind, a, *rest = self.nodes[i]
            if kind == "num":
                d[i] = self.zero
            elif kind == "var":
                d[i] = self.one if a == x else self.zero
            elif kind == "neg":
                d[i] = self.neg(d[a])
            elif kind == "call":
                b = rest[0]
                d[i] = self.zero if d[b] == self.zero else self.mul(self._chain(a, b), d[b])
            else:
                b = rest[0]
                da, db = d[a], d[b]
                if kind == "+":
                    d[i] = self.add(da, db)
                elif kind == "-":
                    d[i] = self.sub(da, db)
                elif kind == "*":
                    d[i] = self.add(self.mul(da, b), self.mul(a, db))
                elif kind == "/":
                    d[i] = self.sub(self.div(da, b), self.div(self.mul(a, db), self.mul(b, b)))
                elif db == self.zero:  # a ** b, b constant in x
                    exponent = self.nodes[b]
                    less_one = (self.node("num", exponent[1] - 1.0) if exponent[0] == "num"
                                else self.sub(b, self.one))
                    d[i] = self.mul(self.mul(b, self.pow(a, less_one)), da)
                else:  # d(a^b) = a^b (b' log a + b a'/a)
                    d[i] = self.mul(i, self.add(self.mul(db, self.node("call", "log", a)),
                                                self.div(self.mul(b, da), a)))
        return [d[r] for r in roots]

    def function(self, args: str, body: list):
        """A Python function of ``args`` returning ``body``, a list of ids
        or of lists of ids, as a tuple (of tuples).  Each node it needs is
        computed once."""
        flat = [i for item in body for i in (item if isinstance(item, list) else [item])]

        def ref(i):
            kind, a = self.nodes[i][:2]
            return repr(a) if kind == "num" else a if kind == "var" else f"_{i}"

        lines = [f"def f({args}):"]
        for i in self._reachable(flat):
            kind, a, *rest = self.nodes[i]
            if kind == "neg":
                lines.append(f"    _{i} = -{ref(a)}")
            elif kind == "call":
                lines.append(f"    _{i} = {a}({ref(rest[0])})")
            elif kind == "**":
                lines.append(f"    _{i} = power({ref(a)}, {ref(rest[0])})")
            elif kind not in ("num", "var"):
                lines.append(f"    _{i} = {ref(a)} {kind} {ref(rest[0])}")

        def render(item):
            if isinstance(item, list):
                return "(" + "".join(render(x) + ", " for x in item) + ")"
            return ref(item)

        lines.append(f"    return {render(body)}")
        namespace = dict(_RUNTIME)
        exec(compile("\n".join(lines), "<spinrep-expression>", "exec"), namespace)
        return namespace["f"]


def _parse_spec(graph: _Graph, spec: str, axes: tuple[str, ...], variables: tuple[str, ...]):
    """Ids of the expressions of ``axis=EXPR; ...``, one per axis, in order."""
    exprs: dict[str, int] = {}
    try:
        for piece in filter(None, (p.strip() for p in spec.split(";"))):
            axis, sep, text = piece.partition("=")
            axis = axis.strip()
            if not sep or axis not in axes or axis in exprs:
                raise InputError(f"unexpected {piece!r}")
            exprs[axis] = graph.parse(ast.parse(text.strip(), mode="eval").body, variables)
        missing = [axis for axis in axes if axis not in exprs]
        if missing:
            raise InputError(f"missing {', '.join(missing)}")
    # the parser reports nesting too deep for its stack as MemoryError
    except (SyntaxError, ValueError, OverflowError, RecursionError, MemoryError, InputError) as exc:
        form = "; ".join(f"{axis}=EXPR" for axis in axes)
        raise InputError(f"bad spec {spec!r}: {exc} (expected '{form}')") from exc
    return [exprs[axis] for axis in axes]


def compile_curve(spec: str):
    """(curve, velocity): t -> (u, v) and t -> (du/dt, dv/dt)."""
    graph = _Graph()
    uv = _parse_spec(graph, spec, ("u", "v"), ("t",))
    return graph.function("t", uv), graph.function("t", graph.derivative(uv, "t"))


def compile_surface(spec: str) -> ParametricSurface:
    """The chart with its exact first and second partials."""
    graph = _Graph()
    xyz = _parse_spec(graph, spec, ("x", "y", "z"), ("u", "v"))
    xu, xv = graph.derivative(xyz, "u"), graph.derivative(xyz, "v")
    second = [graph.derivative(xu, "u"), graph.derivative(xu, "v"), graph.derivative(xv, "v")]
    return ParametricSurface(
        graph.function("u, v", xyz), graph.function("u, v", [xu, xv]),
        graph.function("u, v", second),
    )
