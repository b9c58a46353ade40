"""Spans at module boundaries, installed from outside the library.

The traced run replaces module-level bindings (for example
`obsblock.designer.decompose`) with timing wrappers and restores them
afterwards; no file of the library changes. Spans are kept in memory and
self times come from span nesting: a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). A function bound in several modules is
# wrapped at each binding under one span name.
BINDINGS = (
    ("obsblock.designer", "decompose", "spectrum.decompose"),
    ("obsblock.cutset", "decompose", "spectrum.decompose"),
    ("obsblock.records", "decompose", "spectrum.decompose"),
    ("obsblock.designer", "assemble", "model.assemble"),
    ("obsblock.cutset", "assemble", "model.assemble"),
    ("obsblock.verify", "assemble", "model.assemble"),
    ("obsblock.records", "assemble", "model.assemble"),
    ("obsblock.model", "assemble", "model.assemble"),
    ("obsblock.graph", "min_vertex_cut", "graph.min_vertex_cut"),
    ("obsblock.cutset", "min_vertex_cut", "graph.min_vertex_cut"),
    ("obsblock.cutset", "lg_condition", "cutset.lg_condition"),
    ("obsblock.cutset", "design_via_cutset", "cutset.design_via_cutset"),
    ("obsblock.cutset", "design_blocking", "designer.design_blocking"),
    ("obsblock.designer", "design_blocking", "designer.design_blocking"),
    ("obsblock.designer", "check_controllability",
     "designer.check_controllability"),
    ("obsblock.designer", "select_lambda", "designer.select_lambda"),
    ("obsblock.designer", "nullspace_bundle", "designer.nullspace_bundle"),
    ("obsblock.designer", "select_hp", "designer.select_hp"),
    ("obsblock.designer", "build_candidate", "designer.build_candidate"),
    ("obsblock.designer", "assemble_and_gain", "designer.assemble_and_gain"),
    ("obsblock.verify", "verify_design", "verify.verify_design"),
    ("obsblock.verify", "pbh_test", "verify.pbh_test"),
    ("obsblock.verify", "observability_rank", "verify.observability_rank"),
    ("obsblock.verify", "preservation_audit", "verify.preservation_audit"),
    ("obsblock.verify", "output_energy", "verify.output_energy"),
    ("pipeline", "write_record", "records.dump"),
    ("pipeline", "read_record", "records.load"),
)

# Counters taken from a wrapped call's result: span name -> function
# returning {counter: increment}.
OBSERVERS = {
    "cutset.lg_condition": lambda cond: {"cutset.lg_satisfied": int(cond.satisfied)},
}


class Tracer:
    """Flat list of spans (name, parent index, start, end) plus counters."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._open = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, perf_counter(), None])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][3] = perf_counter()

    def wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                for key, inc in observe(result).items():
                    self.counters[key] += inc
            return result
        return traced

    def self_times(self):
        """Per span name: (summed self time, call count)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, _, start, end) in enumerate(self.spans):
            total[name] += (end - start) - child[i]
            calls[name] += 1
        return total, calls


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding for the duration of the block, then restore."""
    saved = []
    try:
        for mod_name, attr, span_name in BINDINGS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(original, span_name))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
