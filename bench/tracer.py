"""Call tracing for the benchmark's traced runs.

The tracer replaces public functions of the program with timing wrappers.
A module that did ``from .bits import wrap_add`` holds its own binding of
the function, so patching only the defining module would miss its calls:
``install`` rebinds every attribute of every listed module that is the
original function object, and ``restore`` puts every binding back.

Spans are kept in memory (up to a cap) and written out at the end; the
per-function totals are kept for every call.
"""

from __future__ import annotations

import functools
import json
import time
from types import ModuleType

SPAN_CAP = 20_000


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._next_id = 0
        self._patches: list[tuple[ModuleType, str, object]] = []

    def bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def timed(self, name: str, fn, on_result=None):
        """A wrapper that records calls, total time and self time of ``fn``."""
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, start, end, parent))
                else:
                    self.dropped_spans += 1
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """A wrapper that only counts calls, for functions too cheap to time."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, original, wrapper, modules) -> int:
        """Rebind every binding of ``original`` in ``modules`` to ``wrapper``."""
        patched = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    patched += 1
        if patched == 0:
            raise LookupError(f"no binding of {original!r} found to patch")
        return patched

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                    "dropped_spans": self.dropped_spans,
                },
                fh,
            )
