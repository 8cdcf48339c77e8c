"""Spans around didperm's public functions, recorded from outside the program.

The package has no timers of its own, so a traced run replaces the public
functions as they are bound in the modules that call them (for example
``didperm.cli.simulate_null`` and ``didperm.power.simulate_null``) with
wrappers that open a span, call through, and record counts read off the
return value.  Spans nest through a stack, stay in memory, and are written
out once at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import didperm.cli
import didperm.inference
import didperm.power


def _null_counts(tracer, dist, args, kwargs):
    tracer.count("null.retained", dist.iterations_retained)
    tracer.count("null.discarded", dist.degenerate_draws_discarded)


def _simulate_counts(tracer, dist, args, kwargs):
    _null_counts(tracer, dist, args, kwargs)
    tracer.count("inference.draws", dist.iterations_retained)
    tracer.count("inference.draws_discarded", dist.degenerate_draws_discarded)


def _enumerate_counts(tracer, dist, args, kwargs):
    _null_counts(tracer, dist, args, kwargs)
    tracer.count("inference.relabelings", dist.iterations_requested)
    tracer.count("inference.draws_discarded", dist.degenerate_draws_discarded)


def _load_counts(tracer, sample, args, kwargs):
    tracer.count("ingest.rows", sample.n)


def _report_counts(tracer, _result, args, kwargs):
    tracer.count("report.bytes", Path(args[1]).stat().st_size)


_COUNTERS = {
    "inference.simulate_null": _simulate_counts,
    "inference.enumerate_null": _enumerate_counts,
    "ingest.load_panel": _load_counts,
    "report.write_report": _report_counts,
}

# (module, attribute, span name): every binding through which a workload
# reaches a layer.  inference.enumerate_null is also the binding that
# exactness_audit calls, so the enumeration nests under the audit span.
BINDINGS = (
    (didperm.cli, "main", "cli.main"),
    (didperm.cli, "load_panel", "ingest.load_panel"),
    (didperm.cli, "simulate_null", "inference.simulate_null"),
    (didperm.cli, "enumerate_null", "inference.enumerate_null"),
    (didperm.cli, "test_significance", "inference.test_significance"),
    (didperm.cli, "make_histogram", "ingest.make_histogram"),
    (didperm.cli, "write_report", "report.write_report"),
    (didperm.cli, "did_value", "panel.did_value"),
    (didperm.cli, "space_stats", "spaces.space_stats"),
    (didperm.power, "run_power_study", "power.run_power_study"),
    (didperm.power, "simulate_null", "inference.simulate_null"),
    (didperm.power, "test_significance", "inference.test_significance"),
    (didperm.power, "did_value", "panel.did_value"),
    (didperm.inference, "enumerate_null", "inference.enumerate_null"),
    (didperm.inference, "exactness_audit", "inference.exactness_audit"),
    (didperm.inference, "test_significance", "inference.test_significance"),
)


class Tracer:
    """In-memory span and counter store; `installed()` swaps the wrappers in."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._originals = [(module, attr, getattr(module, attr)) for module, attr, _ in BINDINGS]
        self._wrapped = [
            self._wrap(name, original) for (_, _, name), (_, _, original) in zip(BINDINGS, self._originals)
        ]

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "op": self._op_id}
        )
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                counter(self, result, args, kwargs)
            return result

        return traced

    def run_op(self, op_id: int, fn):
        """Run one op under a root span named "op", with the wrappers installed."""
        for (module, attr, _), wrapped in zip(BINDINGS, self._wrapped):
            setattr(module, attr, wrapped)
        self._op_id = op_id
        index = self._open("op")
        try:
            return fn()
        finally:
            self._close(index)
            self._op_id = None
            for module, attr, original in self._originals:
                setattr(module, attr, original)

    def durations(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name; self time excludes direct children."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            total[span["name"]] = total.get(span["name"], 0.0) + duration
            if span["parent"] is not None:
                child[span["parent"]] = child.get(span["parent"], 0.0) + duration
        own: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            duration = span["end"] - span["start"] - child.get(index, 0.0)
            own[span["name"]] = own.get(span["name"], 0.0) + duration
        return total, own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n", encoding="utf-8")
