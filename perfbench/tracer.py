"""Span tracer for the traced run.

While installed, every public function of the distset modules is replaced by
a wrapper at every module attribute that binds it (the copies imported into
other modules included) and inside module-level tables such as
`cli._ORACLES`. Each call records a span: name, start, end, parent span and
the benchmark operation id. Spans stay in memory until `write_spans`.

Self time is a span's duration minus the durations of its direct children.
Some functions also feed work counts computed from their inputs and outputs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from types import FunctionType, ModuleType

PACKAGE = "distset"
MODULES = ("rationals", "metric", "distance_sets", "classifier", "constructions",
           "oracles", "metric_preserving", "urysohn", "cli")


def _sized(values) -> int | None:
    return len(set(values)) if isinstance(values, (set, frozenset, list, tuple)) else None


def _four_values(counts, args, kwargs, result):
    size = _sized(args[0])
    counts["quads"] = counts.get("quads", 0) + (size or 0) ** 4
    counts["passed"] = counts.get("passed", 0) + int(result[0])


def _stage(counts, args, kwargs, result):
    counts["points_added"] = counts.get("points_added", 0) + len(result.log)
    counts["saturated"] = counts.get("saturated", 0) + int(result.saturated)


def _enumerate(counts, args, kwargs, result):
    positive = sum(1 for v in set(args[0]) if v > 0)
    max_size = args[1] if len(args) > 1 else kwargs["max_size"]
    counts["classes"] = counts.get("classes", 0) + len(result)
    counts["candidates"] = counts.get("candidates", 0) + sum(
        positive ** (n * (n - 1) // 2) for n in range(1, max_size + 1)
    )


def _found(counts, args, kwargs, result):
    counts["found"] = counts.get("found", 0) + int(result is not None)


def _validate(counts, args, kwargs, result):
    counts["triangles"] = counts.get("triangles", 0) + len(args[0]) ** 3


HOOKS = {
    "urysohn.four_values_check": _four_values,
    "urysohn.urysohn_stage": _stage,
    "urysohn.enumerate_spaces_up_to_isometry": _enumerate,
    "oracles.find_isometry": _found,
    "oracles.find_embedding": _found,
    "oracles.graph_iso": _found,
    "oracles.graph_embed": _found,
    "metric.validate_metric": _validate,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: list[dict] = []
        self.start, self.end = array("d"), array("d")
        self.parent, self.op, self.name = array("q"), array("q"), array("i")
        self.op_id = -1
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._build()

    def _build(self) -> None:
        wrapped: dict[int, FunctionType] = {}
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, FunctionType)
                        or fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        modules = [m for n, m in sorted(sys.modules.items())
                   if isinstance(m, ModuleType) and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in wrapped:
                    self._patches.append((module, attr, value, wrapped[id(value)]))
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if isinstance(item, tuple) and any(id(v) in wrapped for v in item):
                            new = tuple(wrapped.get(id(v), v) for v in item)
                            self._patches.append((value, key, item, new))

    def _wrap(self, qualname: str, fn: FunctionType) -> FunctionType:
        idx = len(self.names)
        self.names.append(qualname)
        self.self_s.append(0.0)
        self.calls.append(0)
        self.counts.append({})
        hook = HOOKS.get(qualname)
        start, end, parent, op, name = self.start, self.end, self.parent, self.op, self.name
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts[idx]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name)
            parent.append(stack[-1][0] if stack else -1)
            op.append(tracer.op_id)
            name.append(idx)
            start.append(0.0)
            end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
                if stack:
                    stack[-1][1] += t1 - t0
                self_s[idx] += t1 - t0 - frame[1]
                calls[idx] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for target, key, _, new in self._patches:
            self._set(target, key, new)

    def uninstall(self) -> None:
        for target, key, old, _ in self._patches:
            self._set(target, key, old)

    @staticmethod
    def _set(target, key, value) -> None:
        if isinstance(target, dict):
            target[key] = value
        else:
            setattr(target, key, value)

    def layer(self, qualname: str) -> tuple[float, int, dict]:
        """(self seconds, calls, counts) of one function."""
        i = self.names.index(qualname)
        return self.self_s[i], self.calls[i], self.counts[i]

    def nested(self, outer: str, inner: str) -> bool:
        """Whether some span of inner has a span of outer among its ancestors."""
        want, target = self.names.index(outer), self.names.index(inner)
        for sid in range(len(self.name)):
            if self.name[sid] != target:
                continue
            p = self.parent[sid]
            while p >= 0:
                if self.name[p] == want:
                    return True
                p = self.parent[p]
        return False

    def write_spans(self, path) -> int:
        """Write one CSV row per span, times in ns from the first span."""
        t0 = min(self.start) if self.start else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,op,name,start_ns,end_ns\n")
            for sid in range(len(self.name)):
                handle.write(
                    f"{sid},{self.parent[sid]},{self.op[sid]},{self.names[self.name[sid]]},"
                    f"{round((self.start[sid] - t0) * 1e9)},{round((self.end[sid] - t0) * 1e9)}\n"
                )
        return len(self.name)
