"""Spans and counters recorded by the benchmark around calls into spinrep.

A span is (name, start, end, parent) and lives in memory until the run ends.
The benchmark installs wrappers on the public functions of each layer; a
function that a later version of spinrep no longer has is skipped, and its
metric reads 0.  Spans inside spinrep itself are left for a later change.

Layer of a span: the part of its name before the first dot.  From the spans:

* ``<name>_s``: time in outermost calls of ``name`` (recursion counted once);
* ``layer.<L>.busy_s``: time with at least one span of layer L open;
* ``layer.<L>.self_s``: time in layer L minus the time of its child spans.

Calls too frequent for a span each (chart and curve evaluations) are leaf
timers: they add to a total and to their layer's self time, and are taken out
of the enclosing span's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "modules", "kmatrix", "linalg", "files", "clifford", "spin", "surfaces")


class Tracer:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._leaf_inside: dict[int, float] = defaultdict(float)
        self._leaf_self: dict[str, float] = defaultdict(float)
        self._leaf_busy: dict[str, float] = defaultdict(float)

    def span(self, name: str):
        return _Span(self, name)

    def leaf(self, name: str, layer: str, seconds: float) -> None:
        """A call timed without a span of its own."""
        self.counts[name] += seconds
        self._leaf_self[layer] += seconds
        if self._stack:
            self._leaf_inside[self._stack[-1]] += seconds
        if not any(self.spans[i][0].split(".", 1)[0] == layer for i in self._stack):
            self._leaf_busy[layer] += seconds

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        names = [s[0] for s in self.spans]
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy = {layer: self._leaf_busy[layer] for layer in LAYERS}
        own = {layer: self._leaf_self[layer] for layer in LAYERS}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            dur = end - start
            own[layer] = own.get(layer, 0.0) + dur - child_time[idx] - self._leaf_inside[idx]
            same_name = same_layer = False
            p = parent
            while p is not None:
                same_name |= names[p] == name
                same_layer |= names[p].split(".", 1)[0] == layer
                p = self.spans[p][3]
            if not same_name:
                out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + dur
            if not same_layer:
                busy[layer] = busy.get(layer, 0.0) + dur
        for layer in LAYERS:
            out[f"layer.{layer}.busy_s"] = busy[layer]
            out[f"layer.{layer}.self_s"] = own[layer]
        out["trace.spans"] = len(self.spans)
        return out


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.record = [self.name, 0.0, 0.0, parent]
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Patches:
    """Wrappers installed on spinrep functions, removable in one call."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``, remembering the old value for ``undo``."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement) -> None:
        """Rebind every spinrep module global that refers to ``original``,
        so calls made inside the package go through the wrapper too."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "spinrep" or name.startswith("spinrep.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def wrap(self, tracer: Tracer, module: str, attr: str, span: str, before=None, after=None):
        """Wrap ``module.attr`` (a function, or ``Class.method`` as
        ``attr="Class.method"``) in a span.  ``before(args, kwargs)`` may
        return replaced arguments; ``after(args, kwargs, result)`` sees the
        result.  Missing targets are skipped."""
        mod = sys.modules.get(module)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with tracer.span(span):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        if owner_name:
            self.set(owner, method, wrapper)
        else:
            self.replace_everywhere(original, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def timed_callable(tracer: Tracer, fn, count_name: str, time_name: str):
    """Wrap a chart or curve callable in a counting leaf timer.  Its layer is
    the spinrep module that defined it (expression charts come from cli)."""
    module = getattr(fn, "__module__", "") or ""
    layer = module.rsplit(".", 1)[-1] if module.startswith("spinrep.") else "surfaces"
    if layer not in LAYERS:
        layer = "surfaces"
    clock = time.perf_counter

    def wrapper(*args):
        start = clock()
        try:
            return fn(*args)
        finally:
            tracer.counts[count_name] += 1
            tracer.leaf(time_name, layer, clock() - start)

    return wrapper
