"""Span tracer that wraps popdiff's public functions from the outside.

Nothing in the package is edited: ``Tracer.install`` replaces each listed
function or method with a wrapper that records a span, and re-points every
module of the package that imported the function by name, so calls made
through either route are seen.  ``Tracer.uninstall`` puts the originals
back, which lets one process alternate untraced and traced passes.

A span is ``(id, parent, name, start, end, run, attrs)``.  Each thread
keeps its own stack of open spans; a span opened on a worker thread with
an empty stack (the sweep's thread pool) takes the main thread's innermost
open span as its parent.  Spans are held in memory and written out once.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str | None
    attrs: dict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)`` adds
        fields to the span of a call that returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span_id = next(tracer._ids)
            run = tracer.run_id
            stack.append(span_id)
            extra: dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                extra["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if not extra and attrs is not None:
                    extra = attrs(args, result)
                tracer.spans.append(Span(span_id, parent, name, start, end, run, extra))
            return result

        return traced

    def install(self, targets, modules) -> None:
        """Wrap each ``(owner, attribute, span name, attrs)`` target.

        ``owner`` is a module or a class.  For a module-level function every
        module in ``modules`` holding the same object is patched as well.
        """
        for owner, attr, name, attrs in targets:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, attrs))
            else:
                wrapped = self.wrap(name, original, attrs)
            self._patch(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and not (module is owner and key == attr):
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    max_call_s: float = 0.0
    attrs: dict = field(default_factory=dict)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    """Per span name: calls, self time (duration minus the part
    of it covered by child spans, which may run on other threads), the
    longest single call, and the sum of each numeric attribute."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, LayerStats] = defaultdict(LayerStats)
    for s in spans:
        st = out[s.name]
        duration = s.end - s.start
        st.calls += 1
        st.self_s += duration - _covered(s.start, s.end, children.get(s.id, []))
        st.max_call_s = max(st.max_call_s, duration)
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)):
                st.attrs[key] = st.attrs.get(key, 0) + value
    return out
