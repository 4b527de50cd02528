"""Spans around every public function of strongprod, from outside it.

``Tracer.install`` wraps each public function (and each public method of
a public class) that a submodule of the package defines, and rebinds the
wrapper at every place a submodule binds the original: module attributes,
values of module-level dicts (such as a command table) and class
attributes. A span's layer is the last component of the function's
defining module (``fn.__module__``), so a kernel that is renamed or
replaced inside its module stays attributed to that module's layer.

Spans are kept in memory as tuples and summarised by ``summarise``.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Functions that some per-layer metrics are defined by. A name not found
# when the tracer is installed is listed in ``Tracer.missing`` and its
# metrics read 0.
PACKAGE = "strongprod"

EXPECTED = (
    "parse_edge_list",
    "build_digraph",
    "is_strongly_connected",
    "write_edge_list",
    "diameter",
    "sigma_",
)


def _size(obj) -> tuple[int | None, int | None]:
    """(n, m) of a graph-like object, else (n, None) or (None, None)."""
    n = getattr(obj, "n", None)
    if not isinstance(n, int):
        return None, None
    m = getattr(obj, "m", None)
    return n, m if isinstance(m, int) else None


class Tracer:
    """Installs and removes span-recording wrappers around a package."""

    def __init__(self, expected=EXPECTED):
        self.expected = expected
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self.wrapped: list[str] = []
        self.missing: list[str] = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent,
                                _size(args[0] if args else None), _size(result))

        return wrapper

    def install(self) -> None:
        """Wrap and rebind; sets ``wrapped`` and ``missing``."""
        modules = self._modules()
        wrappers = {}
        self.wrapped = []
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = (value, self._wrap(value, attr, layer))
                elif inspect.isclass(value):
                    for name, method in list(vars(value).items()):
                        if not name.startswith("_") and inspect.isfunction(method):
                            qual = f"{attr}.{name}"
                            setattr(value, name, self._wrap(method, qual, layer))
                            self._restore.append((setattr, value, name, method))
                            self.wrapped.append(qual)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._restore.append((setattr, module, attr, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            value[key] = wrappers[id(item)][1]
                            self._restore.append((dict.__setitem__, value, key, item))
        self.wrapped += sorted({fn.__name__ for fn, _ in wrappers.values()})
        self.missing = [name for name in self.expected
                        if not any(w == name or (name.endswith("_") and w.startswith(name))
                                   for w in self.wrapped)]

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._restore):
            setter(owner, key, original)
        self._restore.clear()

    def take(self) -> list:
        """Spans recorded since the last call, emptying the buffer."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def summarise(spans: list) -> dict[str, float]:
    """Per-layer self time and the span-derived counts of one request.

    Self time is a span's duration minus the durations of its direct
    children. An "entry" span is one whose parent is in another layer.
    """
    out: dict[str, float] = defaultdict(float)
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, layer, start, end, parent, arg, res) in enumerate(spans):
        duration = end - start
        out[f"{layer}.self_s"] += duration - child[i]
        parent_span = spans[parent] if parent >= 0 else None
        entry = parent_span is None or parent_span[1] != layer
        if parent_span is None:
            out["root_s"] += duration
        if layer == "apsp" and entry and arg[1] is not None:
            out["apsp.calls"] += 1
            out["apsp.pairs"] += arg[0] ** 2
        if layer == "product" and entry and res[1] is not None:
            out["product.vertices"] += res[0]
            out["product.arcs"] += res[1]
        if name == "diameter" and entry:
            out["apsp.diameter_s"] += duration
        if layer == "metrics" and name.startswith("sigma_") and not (
                parent_span and parent_span[0].startswith("sigma_")):
            out["metrics.sigma_s"] += duration
        if name == "parse_edge_list":
            out["digraph.parse_s"] += duration
            out["digraph.arcs_in"] += res[1] or 0
        elif name == "build_digraph":
            out["digraph.build_s"] += duration
        elif name == "is_strongly_connected":
            out["digraph.scc_s"] += duration
        elif name == "write_edge_list":
            out["digraph.write_s"] += duration
            out["digraph.arcs_out"] += arg[1] or 0
        out[f"calls.{name}"] += 1
    return out
