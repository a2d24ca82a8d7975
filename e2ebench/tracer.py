"""In-memory span tracing around drifttune's public entry points.

The tracer patches module and class attributes in this process only; the
program itself is unchanged. Each call to a wrapped entry point records a
span (name, start, end, parent, tag) in memory. A layer's self time is
its spans' durations minus the time their direct children cover. Work done
inside pool workers is not traced: forked workers restore the originals.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("stream", "kernels", "classifier", "detectors", "dtd", "harness", "cli")

# (span name, owner, attribute). A module owner patches the attribute in
# every drifttune module that holds the same function object, because the
# callers look it up in their own namespace (dtd_step in harness, adapt and
# evaluate in dtd and harness, run_suite in cli).
def entry_points(dt):
    harness, dtd, classifier = dt.harness, dt.dtd, dt.classifier
    return [
        ("stream.chunk", dt.stream.Stream, "chunk"),
        ("kernels.class_stats", dt.kernels, "class_stats"),
        ("kernels.predict_indices", dt.kernels, "predict_indices"),
        ("classifier.train", classifier.GaussianNB, "train"),
        ("classifier.predict", classifier.GaussianNB, "predict"),
        ("classifier.copy", classifier.GaussianNB, "copy"),
        ("classifier.adapt", classifier, "adapt"),
        ("classifier.evaluate", classifier, "evaluate"),
        ("detectors.update", dt.detectors.DriftMonitor, "update"),
        ("detectors.clone", dt.detectors.DriftMonitor, "clone"),
        ("detectors.fresh", dt.detectors.DriftMonitor, "fresh"),
        ("detectors.reset", dt.detectors.DriftMonitor, "reset"),
        ("dtd.dtd_step", dtd, "dtd_step"),
        ("dtd.create_candidates", dtd, "create_candidates"),
        ("dtd.eval_candidates", dtd, "eval_candidates"),
        ("harness.run_experiment", harness, "run_experiment"),
        ("harness.run_single", harness, "run_single"),
        ("harness.baseline_trace", harness, "baseline_trace"),
        ("harness.dtd_trace", harness, "dtd_trace"),
        ("harness.trace_append", harness.RunTrace, "append"),
        ("harness.write_result", harness, "write_result"),
        ("harness.summarize", harness, "summarize"),
        ("harness.summarize_stored", harness, "summarize_stored"),
        ("harness.load_config_dir", harness, "load_config_dir"),
        ("harness.render_table", harness, "render_table"),
        ("harness.run_suite", harness, "run_suite"),
        ("cli.main", dt.cli, "main"),
    ]


class Tracer:
    """Span recorder. Use as a context manager: patches on enter, restores on exit."""

    def __init__(self, dt, probes=None):
        """``probes`` maps a span name to a decorator applied outside its
        span wrapper, for counting things the span itself does not record."""
        self.dt = dt
        self.probes = probes or {}
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, tag]
        self.stack: list[int] = []
        self.tag = ""
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, tracer.tag])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def __enter__(self):
        # forked pool workers drop the wrappers: their spans could not be
        # collected, so tracing there would only add overhead
        os.register_at_fork(after_in_child=self._unpatch)
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "drifttune" or key.startswith("drifttune."))]
        for name, owner, attr in entry_points(self.dt):
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name)
            if name in self.probes:
                wrapped = self.probes[name](wrapped)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapped)
        return self

    def __exit__(self, *exc):
        self._unpatch()
        return False

    def _unpatch(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def self_times_ns(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write_csv(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,tag\n")
            for name, start, end, parent, tag in self.spans:
                fh.write(f"{name},{start},{end},{parent},{tag}\n")


def totals(tracer: Tracer, tag: str | None = None) -> tuple[dict, dict, int]:
    """Self time (ns) and calls per span name, plus the time inside any
    top-level span; restricted to spans carrying ``tag`` when one is given."""
    own = tracer.self_times_ns()
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    covered = 0
    for (name, start, end, parent, span_tag), t in zip(tracer.spans, own):
        if tag is not None and span_tag != tag:
            continue
        self_ns[name] += t
        calls[name] += 1
        if parent < 0:
            covered += end - start
    return self_ns, calls, covered
