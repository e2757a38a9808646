"""Spans and counters around sweepsolve's public functions, installed from
outside the package.

Coarse calls become spans (name, start, end, parent). Hot calls, such as
`contains` or a family's `at`, become counters that keep only a call count
and a total time. A traced call's self time is its duration minus the time
of the traced calls made inside it, so the self times of everything traced
under one top-level call add up to that call's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    # Index of the enclosing span; -1 at top level or when the span runs
    # inside a counted call (that counter then owns the span's time).
    parent: int
    # Time of counted calls made directly inside this span.
    counted: float = 0.0


@dataclass(slots=True)
class Counter:
    calls: int = 0
    total: float = 0.0
    # Time of traced calls made inside this counter's calls.
    nested: float = 0.0


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and how it is reported."""

    module: str  # defining module, e.g. "sweepsolve.sets"
    attr: str  # "function" or "Class.method"
    name: str  # metric name
    layer: str  # module the code belongs to; self time is summed per layer
    span: bool  # False: count-and-total counter for very hot calls
    size: object = None  # optional result -> number, summed per name


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    # (counter name, name of the traced call it ran in) -> calls
    within: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)  # open calls: (name, span index or -1)

    def call(self, target: Target, fn, args, kwargs):
        name = target.name
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and parent[0] == name:
            # Re-entry, e.g. a piecewise family's at() calling its piece's at().
            return fn(*args, **kwargs)
        index = -1
        if target.span:
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent[1] if parent else -1))
        stack.append((name, index))
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            if index >= 0:
                span = self.spans[index]
                span.start, span.end = start, end
            else:
                counter = self.counters.get(name)
                if counter is None:
                    counter = self.counters[name] = Counter()
                counter.calls += 1
                counter.total += duration
                key = (name, parent[0] if parent else None)
                self.within[key] = self.within.get(key, 0) + 1
            if parent is not None:
                if parent[1] < 0:
                    self.counters.setdefault(parent[0], Counter()).nested += duration
                elif index < 0:
                    self.spans[parent[1]].counted += duration
                # A span inside a span is subtracted through its parent index.
        if target.size is not None:
            self.sizes[name] = self.sizes.get(name, 0) + target.size(result)
        return result

    def self_seconds(self) -> dict:
        """Self time per traced name."""
        out: dict = {}
        for span, own in zip(self.spans, span_self_times(self.spans)):
            out[span.name] = out.get(span.name, 0.0) + own
        for name, counter in self.counters.items():
            out[name] = out.get(name, 0.0) + counter.total - counter.nested
        return out

    def inclusive_seconds(self, name: str) -> float:
        if name in self.counters:
            return self.counters[name].total
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        if name in self.counters:
            return self.counters[name].calls
        return sum(1 for s in self.spans if s.name == name)


def span_self_times(spans) -> list:
    """Duration of each span minus its child spans and its counted calls."""
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.end - span.start
    return [s.end - s.start - children[i] - s.counted for i, s in enumerate(spans)]


def layer_self_seconds(tracer: Tracer, targets) -> dict:
    layer_of = {t.name: t.layer for t in targets}
    out = {layer: 0.0 for layer in layer_of.values()}
    for name, seconds in tracer.self_seconds().items():
        out[layer_of[name]] += seconds
    return out


def _resolve(target: Target):
    module = importlib.import_module(target.module)
    owner_name, _, method = target.attr.rpartition(".")
    if not owner_name:
        return module, getattr(module, target.attr)
    return getattr(module, owner_name), method


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


@contextmanager
def installed(tracer: Tracer, targets, package: str = "sweepsolve"):
    """Route every listed function through the tracer while the block runs.

    A function imported with `from .x import y` is looked up in the importing
    module, so every module of the package that binds the original object gets
    the wrapper. A method is wrapped on each class that defines it. Targets
    the package no longer has are skipped and reported on stderr.
    """
    patched = []

    def wrap(target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(target, fn, args, kwargs)

        return traced

    try:
        for target in targets:
            try:
                owner, found = _resolve(target)
            except (ImportError, AttributeError):
                print(f"trace: {target.module}.{target.attr} not found, skipped", file=sys.stderr)
                continue
            if isinstance(owner, type):
                for cls in _subclasses(owner):
                    if found in vars(cls):
                        original = vars(cls)[found]
                        setattr(cls, found, wrap(target, original))
                        patched.append((cls, found, original))
                continue
            wrapper = wrap(target, found)
            modules = [m for key, m in list(sys.modules.items())
                       if key == package or key.startswith(package + ".")]
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is found:
                        setattr(module, key, wrapper)
                        patched.append((module, key, found))
        yield tracer
    finally:
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)
