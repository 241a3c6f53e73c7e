"""Spans around the public functions of every bergtoep module.

Wrappers are installed from outside the library: each public function is
replaced, in every bergtoep module namespace that holds it, by a wrapper
that records a span (name, start, end, parent span, case id).  Spans stay
in memory and are written out as JSON when the run ends.  A layer's self
time is its spans' duration minus the part their children cover.

Sample points of the Berezin integral are too many for one span each, or
even for a clock read each: the sampler handed to ``invariant_integral``
is wrapped to count points (by array size) and to time one call in
``SAMPLE_STRIDE``.  The extrapolated sampler time is reported as
``berezin.sample.s`` and counts as child coverage of the integral span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, function) pairs wrapped in every bergtoep namespace that holds them
WRAPPED = [
    ("berezin", "invariant_integral"),
    ("berezin", "berezin_series"),
    ("berezin", "berezin_matrix"),
    ("spectral", "trace_report"),
    ("spectral", "trace_berezin"),
    ("spectral", "trace_matrix"),
    ("spectral", "trace_closed_form"),
    ("spectral", "ensure_trace_class"),
    ("spectral", "singular_values"),
    ("spectral", "jacobi_svd"),
    ("spectral", "hermitian_eigenvalues"),
    ("spectral", "decay_fit"),
    ("spectral", "carleson_bound_estimate"),
    ("operators", "assemble"),
    ("bergman", "d_alpha_beta_eval"),
    ("bergman", "kernel_deriv_norm"),
    ("measures", "boundary_weight_integral"),
    ("measures", "carleson_integral"),
    ("verify", "run_examples"),
    ("cli", "run_command"),
    ("cli", "emit_report"),
]

LAYERS = ("berezin", "spectral", "operators", "bergman", "measures", "verify", "cli")

SAMPLE_STRIDE = 16


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    case: str | None
    end: float = 0.0
    child_s: float = 0.0
    outermost: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    case: str | None = None
    counters: dict = field(default_factory=dict)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.case)
        span.outermost = all(self.spans[i].name != name for i in self.stack)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def wrap(self, name: str, fn):
        from bergtoep.errors import NotTraceClassError

        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = None
            if hook is not None:
                args, kwargs, after = hook(self, args, kwargs)
            span = self._enter(name)
            try:
                return fn(*args, **kwargs)
            except NotTraceClassError:
                if name == "spectral.ensure_trace_class":
                    self.count("spectral.ensure_trace_class.rejects")
                raise
            finally:
                if after is not None:
                    after(span)
                self._exit(span)

        return wrapper

    def install(self):
        """Replace every wrapped function everywhere; returns an undo callable."""
        importlib.import_module("bergtoep.cli")  # imports every other module
        modules = [m for n, m in sys.modules.items() if n == "bergtoep" or n.startswith("bergtoep.")]
        undo = []
        for mod_name, fn_name in WRAPPED:
            original = getattr(importlib.import_module(f"bergtoep.{mod_name}"), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))

        def restore():
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

        return restore

    # ------------------------------------------------------------ analysis

    def totals(self) -> dict:
        """Per span name: calls, busy seconds (outermost spans), self seconds."""
        out: dict = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if span.outermost:
                row["s"] += span.duration
            row["self_s"] += span.duration - span.child_s
        return out

    def to_json(self) -> list:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "case": s.case, "self_s": s.duration - s.child_s}
            for s in self.spans
        ]


class _CountingSampler:
    """Counts points on every call; times one call in SAMPLE_STRIDE."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.calls = 0
        self.points = 0
        self.timed_calls = 0
        self.timed_s = 0.0

    def __call__(self, z):
        self.calls += 1
        self.points += 1 if isinstance(z, (complex, float)) else int(np.size(z))
        if self.calls % SAMPLE_STRIDE:
            return self.sampler(z)
        t0 = time.perf_counter()
        try:
            return self.sampler(z)
        finally:
            self.timed_s += time.perf_counter() - t0
            self.timed_calls += 1

    def seconds(self) -> float:
        return self.timed_s * self.calls / self.timed_calls if self.timed_calls else 0.0


def _integral_hook(tracer: Tracer, args, kwargs):
    if args:
        sampler = _CountingSampler(args[0])
        args = (sampler,) + tuple(args[1:])
    else:
        sampler = _CountingSampler(kwargs["sampler"])
        kwargs = dict(kwargs, sampler=sampler)

    def after(span: Span) -> None:
        seconds = sampler.seconds()
        span.child_s += seconds
        tracer.count("berezin.sample.points", sampler.points)
        tracer.count("berezin.sample.s", seconds)

    return args, kwargs, after


def _jacobi_hook(tracer: Tracer, args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    tracer.count("spectral.jacobi_svd.n3_sum", float(np.shape(matrix)[0]) ** 3)
    return args, kwargs, None


def _assemble_hook(tracer: Tracer, args, kwargs):
    dim = args[1] if len(args) > 1 else kwargs["dim"]
    tracer.count("operators.assemble.bytes", 16 * dim * dim)
    return args, kwargs, None


_HOOKS = {
    "spectral.jacobi_svd": _jacobi_hook,
    "operators.assemble": _assemble_hook,
    "berezin.invariant_integral": _integral_hook,
}
