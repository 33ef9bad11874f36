"""Spans and counts around the program's public entry points.

The tracer replaces each traced function, in every ``bergerflow`` module that
holds a reference to it, by a wrapper that records a span: its name, its
parent span, start and end.  Nothing inside the program changes; the
wrappers live here and are removed when the ``traced`` block ends.

Aggregates (calls, busy time, self time, calls per parent) are kept for
every span; the spans themselves are kept up to ``SPAN_CAP`` and written out
with the aggregates when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

SPAN_CAP = 20_000

# (module, function): the public entry points of each layer.
TARGETS = [
    ("model", "geometry_scalars"),
    ("dynamics", "vector_field"),
    ("dynamics", "curve_speed"),
    ("dynamics", "equilibria"),
    ("integrate", "integrate"),
    ("integrate", "integrate_reduced"),
    ("phase", "region_for_initial"),
    ("phase", "inward_flux_check"),
    ("phase", "sample_portrait"),
    ("phase", "containment_report"),
    ("acceptance", "run_checks"),
    ("cli", "main"),
]

RUN_CHECKS = "acceptance.run_checks"
INTEGRATE = "integrate.integrate"
REDUCED = "integrate.integrate_reduced"


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, span id, child ns]
        self.calls = Counter()
        self.busy_ns = Counter()
        self.self_ns = Counter()
        self.edges = Counter()  # (parent name, child name) -> calls
        self.counts = Counter()  # counts read from results
        self.spans: list[tuple] = []  # (id, parent id, name, start ns, end ns)
        self._ids = 0

    def _open(self, name):
        self._ids += 1
        frame = [name, self._ids, 0]
        self.stack.append(frame)
        return frame

    def _close(self, frame, start, end):
        self.stack.pop()
        name, span_id, child_ns = frame
        dur = end - start
        self.calls[name] += 1
        self.busy_ns[name] += dur
        self.self_ns[name] += dur - child_ns
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
            self.edges[parent[0], name] += 1
        if name in (INTEGRATE, REDUCED) and any(f[0] == RUN_CHECKS for f in self.stack):
            if name == INTEGRATE:
                self.counts["acceptance.integrations"] += 1
            self.counts["acceptance.integrate_ns"] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[1] if parent else None, name, start, end))

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # The check producers of acceptance yield results; the span lasts
            # until the generator is exhausted.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                frame = self._open(name)
                start = perf_counter_ns()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(frame, start, perf_counter_ns())

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start, perf_counter_ns())
            if name == INTEGRATE:
                self.counts["integrate.samples"] += len(result.samples)
            elif name == REDUCED:
                self.counts["integrate.reduced.samples"] += len(result)
            return result

        return wrapper

    def dump(self, path, extra: dict):
        table = {
            name: {
                "calls": self.calls[name],
                "busy_ms": self.busy_ns[name] / 1e6,
                "self_ms": self.self_ns[name] / 1e6,
            }
            for name in sorted(self.calls)
        }
        doc = {
            **extra,
            "spans_table": table,
            "edges": {f"{p} > {c}": n for (p, c), n in sorted(self.edges.items())},
            "counts": dict(self.counts),
            "spans_kept": len(self.spans),
            "spans_total": sum(self.calls.values()),
            "spans": self.spans,
        }
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc))


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    from bergerflow import acceptance, cli  # noqa: F401  (both are traced)

    modules = [m for n, m in list(sys.modules.items())
               if n == "bergerflow" or n.startswith("bergerflow.")]
    undo = []
    for mod_name, attr in TARGETS:
        original = getattr(importlib.import_module(f"bergerflow.{mod_name}"), attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(f"{mod_name}.{attr}", original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
    checks = getattr(acceptance, "ALL_CHECKS", [])
    saved = list(checks)
    checks[:] = [
        (names, tracer.wrap(f"acceptance.check.{fn.__name__.removeprefix('check_')}", fn))
        for names, fn in saved
    ]
    try:
        yield tracer
    finally:
        checks[:] = saved
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)
