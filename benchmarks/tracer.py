"""Span recorder for the traced run.

Wrappers from this file replace public ``gfwiretap`` functions on every
package module that binds them, including the by-name imports in
``replica``, ``codec``, ``simulate`` and ``cli``, while inside
:meth:`Tracer.installed`.  Each wrapped call records a span (name, start,
end, parent span, op id) in memory; the four hottest functions keep only a
call count and summed time.  A call's self time is its duration minus the
durations of the wrapped calls made directly inside it.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

PACKAGE_MODULES = (
    "gfwiretap",
    "gfwiretap.numerics",
    "gfwiretap.channel",
    "gfwiretap.replica",
    "gfwiretap.field",
    "gfwiretap.codec",
    "gfwiretap.simulate",
    "gfwiretap.cli",
)

#: (module, function, span name, count-only).  The layer of a span is the
#: part of its name before the first dot.
TRACED = (
    ("gfwiretap.numerics", "default_rule", "numerics.rule", False),
    ("gfwiretap.numerics", "gauss_expectation", "numerics.quadrature", True),
    ("gfwiretap.numerics", "bisect_transition", "numerics.bisect", False),
    ("gfwiretap.replica", "solve_overlap", "replica.solve", False),
    ("gfwiretap.replica", "energy", "replica.energy", True),
    ("gfwiretap.replica", "locate_critical_rate", "replica.locate", False),
    ("gfwiretap.field", "sample_field", "field.sample", False),
    ("gfwiretap.field", "evaluate", "field.codeword", True),
    ("gfwiretap.field", "evaluate_flipped", "field.codeword", True),
    ("gfwiretap.field", "covariance_probe", "field.probe", False),
    ("gfwiretap.codec", "build_binning", "codec.binning", False),
    ("gfwiretap.codec", "encode", "codec.encode", False),
    ("gfwiretap.codec", "mmse_estimate", "codec.posterior", False),
    ("gfwiretap.codec", "decode", "codec.decode", False),
    ("gfwiretap.simulate", "run_trial", "simulate.trial", False),
    ("gfwiretap.simulate", "run_experiment", "simulate.experiment", False),
    ("gfwiretap.simulate", "estimate_leakage", "simulate.leakage", False),
    ("gfwiretap.cli", "main", "cli.main", False),
)

LAYERS = ("numerics", "replica", "field", "codec", "simulate", "cli", "bench")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


#: Work counted at call entry, from the arguments alone.
COUNTERS = {
    # coefficients drawn times 8 bytes: computed, not measured
    "field.sample": lambda a, kw: ("field.sample.bytes", _arg(a, kw, 0, "spec").coeff_count * 8),
    "codec.posterior": lambda a, kw: ("codec.candidates", 1 << _arg(a, kw, 0, "fld").spec.dim),
    "simulate.leakage": lambda a, kw: ("simulate.leakage.samples", _arg(a, kw, 3, "n_samples")),
}


class Tracer:
    """Records spans and per-name totals while installed."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.totals = {}  # name -> [calls, busy_s, self_s]
        self.edges = {}  # (parent name, child name) -> [calls, busy_s]
        self.counts = {}
        self.op_id = None
        self._stack = []  # frames: [name, child_s, span id]
        self._next_id = 0
        self._patches = None

    def wrap(self, name, fn, store=True):
        """``fn`` wrapped to record a call under ``name``."""
        stack, edges, perf = self._stack, self.edges, time.perf_counter
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if store:
                span_id, self._next_id = self._next_id, self._next_id + 1
                parent_id = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            if counter is not None:
                key, amount = counter(args, kwargs)
                self.counts[key] = self.counts.get(key, 0) + amount
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    edge = edges.setdefault((parent[0], name), [0, 0.0])
                    edge[0] += 1
                    edge[1] += duration
                if store:
                    self.spans.append((span_id, name, start, end, parent_id, self.op_id))

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as the root span ``bench.op`` of op ``op_id``."""
        self.op_id = op_id
        try:
            return self.wrap("bench.op", fn)(*args)
        finally:
            self.op_id = None

    def _find_patches(self):
        """``(module, attribute, original, wrapper)`` for every package-module
        binding of each traced function."""
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        patches = []
        for module_name, attr, name, count_only in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original, store=not count_only)
            for module in modules:
                patches.extend(
                    (module, key, original, wrapper)
                    for key, value in vars(module).items()
                    if value is original
                )
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Route the package's calls through the wrappers while inside."""
        if not self._patches:
            self._patches = self._find_patches()
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for module, key, original, _ in self._patches:
                setattr(module, key, original)

    def calls(self, name) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def busy(self, name) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def layer_self(self, layer) -> float:
        return sum(t[2] for name, t in self.totals.items() if name.split(".")[0] == layer)

    def edge(self, parent, child) -> tuple[int, float]:
        calls, busy = self.edges.get((parent, child), (0, 0.0))
        return calls, busy

    def first_span(self, name) -> float:
        return next((end - start for _, n, start, end, _, _ in self.spans if n == name), 0.0)

    def root_time(self, op_id) -> float:
        """Summed duration of the root spans of op ``op_id``."""
        return sum(end - start for _, _, start, end, parent, op in self.spans
                   if parent is None and op == op_id)

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of per-name totals."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"totals": self.totals, "counts": self.counts}) + "\n")


def layer_metrics(tr: Tracer, ess_frac: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as ``name -> (value, unit)``."""
    solves = tr.calls("replica.solve")
    posterior_busy = tr.busy("codec.posterior")
    candidates = tr.counts.get("codec.candidates", 0)
    m = {
        "numerics.rule.build_s": (tr.first_span("numerics.rule"), "s"),
        "numerics.quadrature.calls": (tr.calls("numerics.quadrature"), "count"),
        "numerics.quadrature.busy_s": (tr.busy("numerics.quadrature"), "s"),
        "numerics.bisect.steps": (tr.edge("numerics.bisect", "replica.solve")[0], "count"),
        "replica.solve.calls": (solves, "count"),
        "replica.solve.busy_s": (tr.busy("replica.solve"), "s"),
        "replica.solve.self_s": (tr.self_time("replica.solve"), "s"),
        "replica.energy.calls": (tr.calls("replica.energy"), "count"),
        "replica.energy.per_solve": (tr.calls("replica.energy") / max(solves, 1), "calls/solve"),
        "replica.energy.busy_s": (tr.busy("replica.energy"), "s"),
        "replica.locate.busy_s": (tr.busy("replica.locate"), "s"),
        "field.sample.calls": (tr.calls("field.sample"), "count"),
        "field.sample.busy_s": (tr.busy("field.sample"), "s"),
        "field.sample.bytes": (tr.counts.get("field.sample.bytes", 0), "B_computed"),
        "field.codeword.calls": (tr.calls("field.codeword"), "count"),
        "field.codeword.busy_s": (tr.busy("field.codeword"), "s"),
        "field.probe.self_s": (tr.self_time("field.probe"), "s"),
        "codec.posterior.calls": (tr.calls("codec.posterior"), "count"),
        "codec.posterior.busy_s": (posterior_busy, "s"),
        "codec.posterior.self_s": (tr.self_time("codec.posterior"), "s"),
        "codec.posterior.ess_frac": (ess_frac, "ratio"),
        "codec.candidates": (candidates, "count"),
        "codec.candidates_per_s": (candidates / posterior_busy if posterior_busy else 0.0, "1/s"),
        "codec.encode.busy_s": (tr.busy("codec.encode"), "s"),
        "codec.binning.busy_s": (tr.busy("codec.binning"), "s"),
        "simulate.trial.self_s": (tr.self_time("simulate.trial"), "s"),
        "simulate.leakage.table_s": (tr.edge("simulate.leakage", "field.codeword")[1], "s"),
        "simulate.leakage.score_s": (tr.self_time("simulate.leakage"), "s"),
        "simulate.leakage.samples": (tr.counts.get("simulate.leakage.samples", 0), "count"),
        "cli.self_s": (tr.self_time("cli.main"), "s"),
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (tr.layer_self(layer), "s")
    return m
