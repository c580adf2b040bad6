"""Spans around the calls into bift's public functions, from outside
the package.

bift modules import names directly (``from .tables import
augmented_forward``), so a wrapper must sit on every attribute a caller
looks up, not only on the defining module.  ``Tracer.install`` replaces
each public function of the pipeline modules wherever a ``bift`` module
binds it, and ``uninstall`` puts the originals back.

A span is (op, parent, name, start, end); all spans of one
``cli.main`` call share the op id.  Spans stay in memory and are written
out when the run ends.  Self time is a span's duration minus the time
its children cover; since a single thread runs the pipeline, children
never overlap, so that is the duration minus the children's durations.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "scenarios", "tables", "functionals", "theorems", "cli", "reportio")

# Called once per serialized number; a span per call would cost more
# than the serializer itself.  Its time stays in reportio.dumps.
UNTRACED = {"bift.reportio.format_float"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [op, parent, name, start, end]
        self.counts = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _begin(self, name: str) -> int:
        if not self._stack:
            self._op += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._op, parent, name, time.perf_counter(), None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if post is not None:
                post(result)
            return result
        return traced

    def measure(self, name: str, fn):
        """Run ``fn`` as a benchmark-owned child span (instrumentation
        that must not count as the parent's self time)."""
        idx = self._begin(name)
        try:
            return fn()
        finally:
            self._end(idx)

    # -- installation ----------------------------------------------------

    def _post_hooks(self):
        def forward_counts(dist):
            self.counts["tables.dense_entries"] += dist.table.size
            self.counts["tables.forward_entries"] += dist.table.size
            self.counts["tables.forward_nonzero"] += self.measure(
                "bench.count", lambda: int(np.count_nonzero(dist.table)))

        def reverse_counts(dist):
            self.counts["tables.dense_entries"] += dist.table.size

        def dumps_counts(text):
            # The serializer emits ASCII only (json.dumps escapes the
            # rest), so characters are bytes.
            self.counts["reportio.bytes_out"] += len(text)

        def parser_hook(parser):
            parser.parse_args = self.wrap("bift.cli.parse_args", parser.parse_args)

        return {"bift.tables.augmented_forward": forward_counts,
                "bift.tables.reverse_joint": reverse_counts,
                "bift.reportio.dumps": dumps_counts,
                "bift.cli.build_parser": parser_hook}

    def install(self) -> None:
        """Wrap every public function of the pipeline modules at every
        ``bift`` attribute that binds it."""
        hooks = self._post_hooks()
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"bift.{layer}"]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                qual = f"{mod.__name__}.{name}"
                if fn.__module__ != mod.__name__ or name.startswith("_") or qual in UNTRACED:
                    continue
                wrappers[id(fn)] = (fn, self.wrap(qual, fn, hooks.get(qual)))
        for modname, mod in list(sys.modules.items()):
            if modname != "bift" and not modname.startswith("bift."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    @property
    def ops(self) -> int:
        return self._op + 1

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for op, parent, name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[4] - s[3]) - c for s, c in zip(self.spans, child)]

    def totals(self):
        """(inclusive seconds, self seconds, call count), each keyed by
        the span name without the ``bift.`` prefix."""
        incl, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for span, st in zip(self.spans, self.self_times()):
            name = span[2].removeprefix("bift.")
            incl[name] += span[4] - span[3]
            self_s[name] += st
            calls[name] += 1
        return incl, self_s, calls

    def self_within(self, roots: set[str], layer: str) -> float:
        """Self seconds of ``layer`` spans at or below a span named in
        ``roots`` (names without the ``bift.`` prefix)."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (span, st) in enumerate(zip(self.spans, self.self_times())):
            name = span[2].removeprefix("bift.")
            inside[i] = name in roots or (span[1] >= 0 and inside[span[1]])
            if inside[i] and name.split(".")[0] == layer:
                total += st
        return total

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([op, parent, name, t0, t1]) + "\n")


def traced_passes(run, ops, seconds: float):
    """``run.run_passes`` with spans recorded; (tracer, its result)."""
    tracer = Tracer()
    tracer.install()
    try:
        return tracer, run.run_passes(ops, seconds)
    finally:
        tracer.uninstall()


SPECTRA = {"tables.spectra_from_unitary", "tables.spectra_from_analytic"}


def layer_metrics(tracer: Tracer, factor: float, cold: Tracer,
                  cold_factor: float) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced op (counts included,
    so a count that repeats exactly is still exact per pass).  ``cold``
    traced the warm-up pass, the first ops of a fresh process.  Times
    are multiplied by the passes' reference-speed factors."""
    incl, self_s, calls = tracer.totals()
    n = max(tracer.ops, 1)

    def inc(*names):
        return sum(incl[x] for x in names) / n

    def module_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == layer) / n

    c = tracer.counts
    fwd = c["tables.forward_entries"]
    m = {
        "trace.op_s": inc("cli.main"),
        "trace.instrument_s": module_self("bench"),
        "tables.dense_build_s": inc("tables.augmented_forward", "tables.reverse_joint"),
        "tables.dense_entries": c["tables.dense_entries"] / n,
        "tables.dense_mib_computed": c["tables.dense_entries"] * 8 / 2**20 / n,
        "tables.nonzero_frac": (c["tables.forward_nonzero"] / fwd) if fwd else 0.0,
        "tables.spectra_self_s": tracer.self_within(SPECTRA, "tables") / n,
        "tables.spectra_cold_self_s": (cold.self_within(SPECTRA, "tables") / max(cold.ops, 1)
                                       * cold_factor / factor),
        "functionals.average_calls": (calls["functionals.average"]
                                      + calls["functionals.restricted_average"]) / n,
        "functionals.average_s": inc("functionals.average", "functionals.restricted_average"),
        "functionals.tuple_s": inc("functionals.tuple_functionals"),
        "theorems.evaluate_self_s": self_s["theorems.evaluate"] / n,
        "theorems.detailed_s": inc("theorems.detailed_ft_check"),
        "theorems.integral_s": inc("theorems.integral_ft"),
        "theorems.reverse_s": inc("theorems.reverse_averaged_ft"),
        "theorems.classical_s": inc("theorems.classical_reduction_check"),
        "cli.invariant_checks_s": inc("cli.invariant_checks"),
        "cli.parse_s": inc("cli.build_parser", "cli.parse_args"),
        "cli.report_document_s": inc("cli.report_document"),
        "cli.core_checks_s": inc("cli.core_checks"),
        "linalg.calls": sum(v for k, v in calls.items() if k.startswith("linalg.")) / n,
        "reportio.dumps_s": inc("reportio.dumps"),
        "reportio.bytes_out": c["reportio.bytes_out"] / n,
        "reportio.load_s": inc("reportio.load_config", "reportio.decode_complex_matrix"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = module_self(layer)
    return {k: v * factor if k.endswith("_s") else v for k, v in m.items()}
