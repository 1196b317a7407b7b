"""Span tracing of tropcount's cross-module calls, installed at run time.

Every function that one ``tropcount`` module imports from another (found
by parsing the package source, so imports made inside function bodies
count too), plus ``lp.strict_point``, which ``moduli`` reaches as a module
attribute, is replaced by a wrapper in the namespace it is defined in and
in every namespace that imported it.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent).  Spans stay in flat arrays in memory
while the program runs and are written out once at the end.  A layer is a
module; its self time is the time of its spans minus the time covered by
their direct child spans.  Methods of classes (``Fan``, ``IntMatrix``) are
not wrapped, so their time counts to the calling layer.
"""
from __future__ import annotations

import array
import ast
import functools
import importlib
import inspect
import json
import pathlib
import time

PACKAGE = "tropcount"
LAYERS = ("cli", "counting", "moduli", "maps", "polyhedral", "exactmath", "lp")
# Reached as ``lp.strict_point`` after ``from . import lp``, not by name.
ATTRIBUTE_CALLS = (("lp", "strict_point"),)


def cross_module_imports(package_dir: pathlib.Path) -> dict[tuple[str, str], set[str]]:
    """Map (defining module, name) to the modules that import that name."""
    found: dict[tuple[str, str], set[str]] = {}
    for path in sorted(package_dir.glob("*.py")):
        importer = path.stem
        if importer == "__init__":
            continue  # re-exports for library users, not a calling layer
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    found.setdefault((node.module, alias.name), set()).add(importer)
    for key in ATTRIBUTE_CALLS:
        found.setdefault(key, set())
    return found


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.excluded_ns: dict[int, int] = {}
        self._stack = [-1]

    def exclude(self, seconds: float) -> None:
        """Take time spent on the benchmark's own work out of the open span."""
        span = self._stack[-1]
        if span >= 0:
            self.excluded_ns[span] = self.excluded_ns.get(span, 0) + int(seconds * 1e9)

    def wrap(self, qualname: str, fn):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{qualname} is a generator; a span would not cover its work")
        name_id = len(self.names)
        self.names.append(qualname)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self, package_dir: pathlib.Path) -> int:
        """Wrap every cross-module function of the package; return how many."""
        wrapped = 0
        for (source, name), importers in sorted(cross_module_imports(package_dir).items()):
            module = importlib.import_module(f"{PACKAGE}.{source}")
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue  # classes, constants and modules carry no span
            traced = self.wrap(f"{source}.{name}", fn)
            setattr(module, name, traced)
            for importer in importers:
                setattr(importlib.import_module(f"{PACKAGE}.{importer}"), name, traced)
            wrapped += 1
        return wrapped

    def summary(self) -> dict:
        """Per-layer self time, and calls and self time per wrapped function.

        Self time leaves out what ``exclude`` charged to the span.

        ``calls_by_caller`` keys are ``callee<caller-layer``, where the
        caller layer is the layer of the enclosing span.
        """
        n = len(self.starts)
        if self._stack != [-1] or any(self.ends[i] == 0 for i in range(n)):
            raise RuntimeError("summary taken while spans are still open")
        layer_of = [name.split(".", 1)[0] for name in self.names]
        child_ns = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        layer_self = dict.fromkeys(LAYERS, 0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        fn_calls = dict.fromkeys(self.names, 0)
        fn_self = dict.fromkeys(self.names, 0)
        by_caller: dict[str, int] = {}
        for i in range(n):
            nid = self.name_ids[i]
            name = self.names[nid]
            own = self.ends[i] - self.starts[i] - child_ns[i] - self.excluded_ns.get(i, 0)
            layer_self[layer_of[nid]] += own
            layer_calls[layer_of[nid]] += 1
            fn_calls[name] += 1
            fn_self[name] += own
            p = self.parents[i]
            caller = layer_of[self.name_ids[p]] if p >= 0 else "-"
            key = f"{name}<{caller}"
            by_caller[key] = by_caller.get(key, 0) + 1
        return {
            "spans": n,
            "layer_self_s": {k: v / 1e9 for k, v in layer_self.items()},
            "layer_calls": layer_calls,
            "calls": fn_calls,
            "self_s": {k: v / 1e9 for k, v in fn_self.items()},
            "calls_by_caller": by_caller,
        }

    def dump(self, prefix: pathlib.Path) -> None:
        """Write the spans as four native-endian arrays plus a JSON index."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{prefix}.spans", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        index = {
            "names": self.names,
            "count": len(self.starts),
            "layout": ["name_id:i32", "parent:i32", "start_ns:i64", "end_ns:i64"],
            "note": "each column is stored whole, in this order; parent -1 is a root",
            "excluded_ns": self.excluded_ns,
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(index, fh, indent=1)
