"""Spans recorded from outside the package, around calls into each layer.

Every module attribute of a traced module that names a cmzv function is
replaced by a wrapper that records a span (name, start, end, parent index).
The span name is the defining module's short name and the function name,
so `cmzv.verify.eval_numeric` and `cmzv.quad.eval_numeric` both record
"quad.eval_numeric".  Spans stay in memory until the pass ends.  A layer's
self time is its span minus the part covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import time
import types


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, exception type name or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._observers: dict[str, object] = {}

    def observe(self, name: str, fn) -> None:
        """Call fn(span index, args, result) when a `name` span ends; result
        is None when the call raised."""
        self._observers[name] = fn

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observers = self._observers

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[2] = clock()
                observer = observers.get(name)
                if observer is not None:
                    observer(idx, args, result)

        return traced

    def instrument(self, module) -> None:
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj.__module__.startswith("cmzv"):
                layer = obj.__module__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(f"{layer}.{obj.__name__}", obj))

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_time(self, name: str) -> float:
        """Total time of the `name` spans minus the part their child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        return sum((s[2] - s[1]) - inner for s, inner in zip(self.spans, child_time) if s[0] == name)

    def layer_entry_time(self, layer: str, under: str | None = None) -> float:
        """Time in spans of `layer` entered from outside that layer; with
        `under`, only those called, at any depth, from a span of that name."""
        prefix = layer + "."
        spans = self.spans

        def entered(s):
            return s[0].startswith(prefix) and (s[3] < 0 or not spans[s[3]][0].startswith(prefix))

        def below(s):
            i = s[3]
            while i >= 0:
                if spans[i][0] == under:
                    return True
                i = spans[i][3]
            return False

        return sum(s[2] - s[1] for s in spans if entered(s) and (under is None or below(s)))

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
