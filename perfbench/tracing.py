"""Spans and counters for the package's layers, recorded from outside it.

``Tracer.installed()`` replaces each function in ``SPANS`` with a timing
wrapper in every package module that holds it, so a call is recorded
whichever module's import the caller went through, and puts the originals
back on exit.  Nothing under ``src/`` changes.

A span is a name, the index of its parent span, a start and an end; the
benchmark opens one root span named ``op`` per op, and all spans of an op
descend from it.  Spans stay in memory and are reduced to per-layer
metrics once the run ends.  A span's self time is its duration minus that
of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter
from time import perf_counter

SPANS = (
    ("bench", "run_trial"),
    ("pipeline", "localize_from_tensor"),
    ("ordinal", "tensor_from_distances"),
    ("ordinal", "tensor_from_signals"),
    ("rank", "aggregate_proximities"),
    ("funclearn", "estimate_distances"),
    ("funclearn", "fit_linear_map"),
    ("unfold", "localize_all"),
    ("unfold", "unloc_localize"),
    ("ingest", "parse_measurements"),
    ("ingest", "select_strong_links"),
    ("ingest", "measurement_signal_matrix"),
    ("cli", "cmd_localize"),
)
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fn in SPANS)
PACKAGE = "ordinal_unloc"


def _on_solve(tracer, args, result):
    tracer.counts["solves"] += 1
    tracer.counts["iterations"] += result.iterations
    tracer.max_iterations = max(tracer.max_iterations, result.iterations)
    tracer.counts["converged"] += result.converged
    tracer.counts["winner_not_centroid"] += result.winning_restart != 0


def _on_estimate(tracer, args, result):
    tracer.counts["estimate_entries"] += result.values.size
    tracer.counts["negative_estimates"] += result.negative_count
    tracer.counts["flagged_anchors"] += len(result.flagged_anchors)


def _on_parse(tracer, args, result):
    tracer.counts["records_parsed"] += len(result.records)
    tracer.counts["parse_errors"] += len(result.parse_errors)


def _on_select(tracer, args, result):
    tracer.counts["records_offered"] += len(args[0].records)
    tracer.counts["records_kept"] += len(result.records)


def _on_signal_matrix(tracer, args, result):
    n = result.order
    tracer.counts["links"] += n * (n - 1)
    tracer.counts["missing_links"] += int(result.missing.sum()) - n


HOOKS = {
    "unfold.unloc_localize": _on_solve,
    "funclearn.estimate_distances": _on_estimate,
    "ingest.parse_measurements": _on_parse,
    "ingest.select_strong_links": _on_select,
    "ingest.measurement_signal_matrix": _on_signal_matrix,
}


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        # parallel lists of atoms, not one object per span, so the garbage
        # collector has no growing heap of containers to scan
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_iterations = 0

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index):
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self):
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [
            m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        patched = []
        try:
            for layer, fn_name in SPANS:
                original = getattr(sys.modules[f"{PACKAGE}.{layer}"], fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    if vars(module).get(fn_name) is original:
                        setattr(module, fn_name, wrapper)
                        patched.append((module, fn_name, original))
            yield self
        finally:
            for module, fn_name, original in patched:
                setattr(module, fn_name, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``.  A function that
        was never called reports 0 calls, 0 us per call and 0 share."""
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        for name, parent, start, end in zip(self.names, self.parents, self.starts, self.ends):
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_time[name] += duration
            if parent >= 0:
                self_time[self.names[parent]] -= duration
        ops, op_time = calls["op"], total["op"]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (_ratio(calls[name], ops), "1/op")
            out[f"{name}.us_per_call"] = (_ratio(total[name], calls[name]) * 1e6, "us")
            out[f"{name}.self_share"] = (_ratio(self_time[name], op_time), "1")
        c = self.counts
        estimates = calls["funclearn.estimate_distances"]
        parses = calls["ingest.parse_measurements"]
        out.update({
            "unfold.iterations_mean": (_ratio(c["iterations"], c["solves"]), "count"),
            "unfold.iterations_max": (float(self.max_iterations), "count"),
            "unfold.converged_frac": (_ratio(c["converged"], c["solves"]), "1"),
            "unfold.winner_not_centroid_frac": (_ratio(c["winner_not_centroid"], c["solves"]), "1"),
            "funclearn.fit_calls_per_estimate": (
                _ratio(calls["funclearn.fit_linear_map"], estimates), "count"),
            "funclearn.negative_frac": (_ratio(c["negative_estimates"], c["estimate_entries"]), "1"),
            "funclearn.flagged_anchors": (_ratio(c["flagged_anchors"], estimates), "1/call"),
            "ingest.records_per_s": (
                _ratio(c["records_parsed"], total["ingest.parse_measurements"]), "1/s"),
            "ingest.parse_errors": (_ratio(c["parse_errors"], parses), "1/call"),
            "ingest.kept_frac": (_ratio(c["records_kept"], c["records_offered"]), "1"),
            "ingest.missing_link_frac": (_ratio(c["missing_links"], c["links"]), "1"),
        })  # fmt: skip
        return out
