"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
public conekit functions listed in BOUNDARIES are replaced, wherever a
loaded conekit module holds them, by a wrapper that records (name, start,
end, parent).  Calls a wrapped function makes to unwrapped helpers count
toward its own self time.  Nothing is written until `write` is called at the
end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in the traced run.  Hot per-point helpers
# (cones.coefficients, cones.contains, exact.*) are probed instead of
# wrapped, so that tracing them does not dominate what it measures.
BOUNDARIES = (
    ("conekit.experiments", "run_cone"),
    ("conekit.cones", "enumerate_parallelepiped"),
    ("conekit.cones", "hilbert_basis"),
    ("conekit.cosets", "coset_profile"),
    ("conekit.decompose", "decompose"),
    ("conekit.decompose", "reduce_to_hilbert"),
    ("conekit.decompose", "icr_upper_bound"),
    ("conekit.search", "find_combination"),
    ("conekit.oracle", "dilated_sample"),
    ("conekit.oracle", "sample_icp"),
    ("conekit.oracle", "min_terms"),
    ("conekit.oracle", "verify_cover"),
    ("conekit.cover", "build_cover_det5"),
    ("conekit.cover", "decompose_in_cover"),
    ("conekit.feasibility", "open_cones_intersect"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "miss")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, -1 for a root
        self.miss = False  # the call missed its lru_cache

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class NullTracer:
    """Tracer of the untraced run: calls straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self, on_result=None):
        """`on_result` maps a span name to a callback(args, result)."""
        self.spans = []
        self.active = True  # False while probes run
        self.originals = {}  # span name -> the unwrapped function
        self._stack = []
        self._on_result = dict(on_result or {})

    @contextlib.contextmanager
    def span(self, name):
        if not self.active:
            yield None
            return
        span = Span(name, time.perf_counter_ns(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span named `name`."""
        with self.span(name):
            return fn(*args)

    def _wrap(self, name, fn):
        on_result = self._on_result.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if span is not None:
                span.miss = cache_info is not None and cache_info().misses != misses
                if on_result:
                    on_result(args, result)
            return result

        return traced

    def install(self, extra_modules=()):
        """Replace every BOUNDARIES function wherever a conekit module, or one
        of `extra_modules`, holds a reference to it."""
        modules = [
            module for name, module in sys.modules.items()
            if name == "conekit" or name.startswith("conekit.")
        ]
        modules.extend(extra_modules)
        for module_name, attr in BOUNDARIES:
            original = getattr(sys.modules[module_name], attr)
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def inside(self, root) -> list:
        """For each span, whether it is a `root` span or runs inside one."""
        flags = []
        for span in self.spans:
            flags.append(span.name == root or (span.parent >= 0 and flags[span.parent]))
        return flags

    def self_time_ns(self, keep) -> dict:
        """Self time per layer over the spans `keep` flags: span duration
        minus the time covered by its children."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.duration_ns
        totals = defaultdict(int)
        for span, children, kept in zip(self.spans, child_ns, keep):
            if kept:
                totals[span.name.split(".", 1)[0]] += span.duration_ns - children
        return dict(totals)

    def write(self, path):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps([span.name, span.start, span.end, span.parent]) + "\n")
