"""Spans around calls into the library's layers, recorded from outside it.

Nothing under ``src/`` is changed. ``harness`` resolves the functions below as
module attributes at call time, so a traced iteration swaps them for timing
wrappers and restores them afterwards; the engine is passed to
``harness.run_experiment`` through its ``engine`` parameter, and the scalar
learner's ``select``/``update`` are wrapped at the call site in the workload.

A span is ``[name, start_ns, end_ns, parent_index, iteration]``. Spans stay in
memory and are written out once, when the run ends. A span's self time is its
duration minus the durations of its children (one thread, so children never
overlap). Counts measured at the same boundaries are kept as notes
``(name, value, iteration)``.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np
from scalefree_bandit import environments, harness, reference

ROOT_SPAN = "iteration"


def engine_counts(_args, record, dur_ns):
    """Counts of one `harness.simulate_runs` call (its span is opened by the workload)."""
    runs, horizon = record.arms.shape
    arrays = (record.arms, record.losses, record.eta, record.psi, record.eps, record.final_probs)
    nonfinite = (np.isnan(record.eta).sum() + (~np.isfinite(record.losses)).sum()
                 + (~np.isfinite(record.psi)).sum() + (~np.isfinite(record.final_probs)).sum())
    return {
        "ns_per_run_round": dur_ns / (runs * horizon),
        "record_mb": sum(a.nbytes for a in arrays) / 1e6,
        "nonfinite": int(nonfinite),
    }


def _runs_csv_counts(args, _result, dur_ns):
    size = os.path.getsize(args[0])
    return {"bytes": size, "mb_per_s": size / 1e6 / (dur_ns / 1e9)}


def _dp_counts(args, _result, _dur_ns):
    stream, max_switches = args
    k = min(max_switches, stream.horizon - 1)
    return {"cells": stream.horizon * stream.n_arms * (k + 1)}


def _load_counts(_args, stream, _dur_ns):
    return {"rows": stream.horizon * stream.n_arms}


# (module, attribute, span name, counts taken from the call's arguments and result)
PATCHES = [
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness, "build_stream", "harness.build_stream", None),
    (harness, "competition_path", "harness.competition_path", None),
    (harness, "complexity", "competitions.complexity", None),
    (harness, "default_gamma", "competitions.default_gamma", None),
    (harness, "write_runs_csv", "harness.write_runs_csv", _runs_csv_counts),
    (harness, "write_summary_csv", "harness.write_summary_csv", None),
    (environments, "load_csv", "environments.load_csv", _load_counts),
    (environments, "piecewise_stationary", "environments.piecewise_stationary", None),
    (reference, "best_switching_sequence", "reference.best_switching_sequence", _dp_counts),
]

# Per-layer metrics: (name, unit, how it is read off the spans and notes, span or note name).
#   total: median over iterations of the time spent in the span per iteration
#   self:  the same for self time
#   call_p50: median duration of one call, over all calls
#   note / note_max: median / largest recorded count
LAYER_METRICS = [
    ("harness.simulate_runs.s", "s", "total", "harness.simulate_runs"),
    ("harness.simulate_runs.ns_per_run_round", "ns", "note", "harness.simulate_runs.ns_per_run_round"),
    ("harness.simulate_runs.record_mb", "MB", "note", "harness.simulate_runs.record_mb"),
    ("harness.simulate_runs.nonfinite", "count", "note", "harness.simulate_runs.nonfinite"),
    ("harness.run_experiment.self_s", "s", "self", "harness.run_experiment"),
    ("harness.write_runs_csv.s", "s", "total", "harness.write_runs_csv"),
    ("harness.write_runs_csv.bytes", "bytes", "note", "harness.write_runs_csv.bytes"),
    ("harness.write_runs_csv.mb_per_s", "MB/s", "note", "harness.write_runs_csv.mb_per_s"),
    ("harness.write_summary_csv.s", "s", "total", "harness.write_summary_csv"),
    ("reference.best_switching_sequence.s", "s", "total", "reference.best_switching_sequence"),
    ("reference.best_switching_sequence.cells", "count", "note", "reference.best_switching_sequence.cells"),
    ("environments.load_csv.s", "s", "total", "environments.load_csv"),
    ("environments.load_csv.rows", "count", "note", "environments.load_csv.rows"),
    ("competitions.complexity.s", "s", "total", "competitions.complexity"),
    ("competitions.default_gamma.s", "s", "total", "competitions.default_gamma"),
    ("core.select.us_p50", "us", "call_p50", "core.select"),
    ("core.update.us_p50", "us", "call_p50", "core.update"),
    ("core.conservation_drift_max", "fraction", "note_max", "core.conservation_drift_max"),
    ("rng.run_generator.s", "s", "note", "rng.run_generator.s"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.notes: list[tuple] = []
        self.iteration = None
        self._open: list[int] = []

    def wrap(self, name, fn, counts=None):
        """`fn` recorded as a span; `counts(args, result, dur_ns)` becomes notes."""

        def traced(*args, **kwargs):
            span = [name, 0, 0, self._open[-1] if self._open else None, self.iteration]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self._open.pop()
            if counts is not None:
                for key, value in counts(args, result, span[2] - span[1]).items():
                    self.note(f"{name}.{key}", value)
            return result

        return traced

    def note(self, name, value, iteration=None):
        self.notes.append((name, value, self.iteration if iteration is None else iteration))

    @contextmanager
    def patched(self):
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in PATCHES]
        try:
            for module, attr, name, counts in PATCHES:
                setattr(module, attr, self.wrap(name, getattr(module, attr), counts))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def run(self, iteration, fn):
        """Call `fn(self)` as one traced iteration under the root span."""
        self.iteration = iteration
        try:
            with self.patched():
                return self.wrap(ROOT_SPAN, fn)(self)
        finally:
            self.iteration = None

    # -- analysis ------------------------------------------------------------

    def durations(self, iterations):
        """{name: {iteration: (total_ns, self_ns)}} plus per-call durations."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        per_iter = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        calls = defaultdict(list)
        for index, (name, start, end, _, it) in enumerate(self.spans):
            if it in iterations:
                acc = per_iter[name][it]
                acc[0] += end - start
                acc[1] += end - start - child_ns[index]
                calls[name].append(end - start)
        return per_iter, calls

    def self_time_table(self, iterations):
        """[(span name, mean self seconds per iteration)], largest first."""
        per_iter, _ = self.durations(iterations)
        rows = [(name, sum(v[1] for v in by_it.values()) / len(iterations) / 1e9)
                for name, by_it in per_iter.items()]
        return sorted(rows, key=lambda row: -row[1])

    def layer_metrics(self, iterations, fallback):
        """Per-layer metrics from the traced `iterations`; a span or note that
        they never reach is read from the `fallback` iteration instead.

        Returns {name: (value, unit, sample count, source)}.
        """
        views = [(source, its, self.durations(its))
                 for source, its in (("iteration", set(iterations)), ("probe", {fallback}))]
        out = {}
        for metric, unit, kind, key in LAYER_METRICS:
            for source, its, durations in views:
                value = _read(self.notes, its, durations, kind, key)
                if value is not None:
                    out[metric] = (value[0], unit, value[1], source)
                    break
            else:
                raise RuntimeError(f"no span or note feeds per-layer metric {metric}")
        return out

    def write(self, path, header):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "notes": self.notes, "spans": self.spans}, fh)


def _read(notes, iterations, durations, kind, key):
    """(value, sample count) of one metric over `iterations`, or None if absent."""
    if kind.startswith("note"):
        values = [v for name, v, it in notes if name == key and it in iterations]
        if not values:
            return None
        return (max(values) if kind == "note_max" else statistics.median(values)), len(values)
    per_iter, calls = durations
    if key not in per_iter:
        return None
    if kind == "call_p50":
        return statistics.median(calls[key]) / 1e3, len(calls[key])
    column = 0 if kind == "total" else 1
    values = [acc[column] / 1e9 for acc in per_iter[key].values()]
    return statistics.median(values), len(values)
