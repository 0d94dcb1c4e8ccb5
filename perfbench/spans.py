"""Spans around the calls into each dualce module, recorded from outside.

The tracer replaces a function by a timing wrapper at the place where its
caller looks the name up: ``pipeline`` from-imports ``fit_dtpm``,
``ky_fan_pk_norm``, ``delta_gamma``, ``cdsvd`` and ``simulate``; ``fit_dtpm``
reaches ``fit_standard`` and ``fit_infinitesimal`` through the ``fitting``
module globals; every module calls ``np.linalg.svd/eigh/eigvalsh`` by
attribute.  No file of the package is edited, and ``uninstall`` puts every
original back.

A span is (name, start, end, parent, analysis id); the analysis id is
(workload, seed, repeat).  Spans stay in memory until the run ends.  Calls
made while no analysis is open (the benchmark's own checks) are not
recorded.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict


def _fit_counters(stage: str):
    def record(tracer, result):
        tracer.count(f"fitting.{stage}.iters", result.iterations)
        tracer.count("fitting.stages", 1)
        tracer.count("fitting.stages_converged", int(result.converged))

    return record


def trace_points(dualce):
    """(module, attribute, span name, result hook) for every wrapped call.

    One span name may appear under several modules: the same function is
    wrapped wherever a caller looks it up.
    """
    import numpy as np

    fitting, markov, pipeline = dualce.fitting, dualce.markov, dualce.pipeline
    return [
        (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
        (pipeline, "analyze", "pipeline.analyze", None),
        (pipeline, "dumbbell_tpm", "markov.dumbbell_tpm", None),
        (markov, "dumbbell_tpm", "markov.dumbbell_tpm", None),
        (pipeline, "simulate", "markov.simulate", None),
        (markov, "simulate", "markov.simulate", None),
        (pipeline, "fit_dtpm", "fitting.fit_dtpm", None),
        (fitting, "fit_dtpm", "fitting.fit_dtpm", None),
        (fitting, "fit_standard", "fitting.fit_standard", _fit_counters("fit_standard")),
        (fitting, "fit_infinitesimal", "fitting.fit_infinitesimal",
         _fit_counters("fit_infinitesimal")),
        (pipeline, "norm_sweep", "pipeline.norm_sweep", None),
        (pipeline, "ky_fan_pk_norm", "matrix_norms.ky_fan_pk_norm", None),
        (pipeline, "delta_gamma", "markov.delta_gamma", None),
        (pipeline, "detect_k", "pipeline.detect_k", None),
        (pipeline, "coarse_grain", "pipeline.coarse_grain", None),
        (pipeline, "cdsvd", "svd.cdsvd", None),
        (pipeline, "kmeans", "pipeline.kmeans", None),
        (pipeline, "effective_information", "markov.effective_information", None),
        (markov, "effective_information", "markov.effective_information", None),
        (np.linalg, "svd", "linalg.svd", None),
        (np.linalg, "eigh", "linalg.eigh", None),
        (np.linalg, "eigvalsh", "linalg.eigvalsh", None),
    ]


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, analysis id]
        self.counters = defaultdict(float)  # (analysis id, name) -> value
        self.analysis = None
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.analysis is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.analysis]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self, points):
        wrappers = {}
        for module, attr, name, hook in points:
            original = getattr(module, attr)
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = self.wrap(name, original, hook)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[key])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def count(self, name, value, analysis_id=None):
        """Add to a counter of the open analysis, or of analysis_id."""
        aid = self.analysis if analysis_id is None else analysis_id
        if aid is not None:
            self.counters[(aid, name)] += value

    def open(self, analysis_id):
        self.analysis = analysis_id

    def close(self):
        self.analysis = None

    def layer_totals(self):
        """Per analysis id: name -> {calls, s, self_s}; self time excludes
        the part of a span its direct children cover."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}))
        for idx, (name, start, end, _, aid) in enumerate(self.spans):
            entry = totals[aid][name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
        return totals

    def span_records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p,
             "analysis": {"workload": a[0], "seed": a[1], "repeat": a[2]}}
            for n, s, e, p, a in self.spans
        ]


def layer_metrics(tracer, analysis_ids, overhead_ratio):
    """Per-layer metrics: each is a per-analysis value averaged over the
    traced analyses, so times add up across parent and child spans."""
    totals = tracer.layer_totals()
    ids = list(analysis_ids)

    def mean(fn):
        return statistics.fmean(fn(aid) for aid in ids) if ids else 0.0

    def layer(name, key):
        return mean(lambda aid: totals[aid][name][key] if name in totals[aid] else 0.0)

    def counter(name):
        return mean(lambda aid: tracer.counters.get((aid, name), 0.0))

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for stage in ("fit_standard", "fit_infinitesimal"):
        span = f"fitting.{stage}"
        s, iters = layer(span, "s"), counter(f"{span}.iters")
        put(f"{span}.s", s, "s")
        put(f"{span}.iters", iters, "count")
        put(f"{span}.ms_per_iter", 1000.0 * s / iters if iters else 0.0, "ms")
    put("fitting.fit_dtpm.self_s", layer("fitting.fit_dtpm", "self_s"), "s")
    stages = sum(tracer.counters.get((aid, "fitting.stages"), 0.0) for aid in ids)
    converged = sum(tracer.counters.get((aid, "fitting.stages_converged"), 0.0) for aid in ids)
    put("fitting.converged_ratio", converged / stages if stages else 0.0, "ratio")

    for name in ("matrix_norms.ky_fan_pk_norm", "markov.delta_gamma", "linalg.svd",
                 "svd.cdsvd", "pipeline.kmeans"):
        put(f"{name}.calls", layer(name, "calls"), "count")
        put(f"{name}.s", layer(name, "s"), "s")
    put("pipeline.norm_sweep.s", layer("pipeline.norm_sweep", "s"), "s")
    put("pipeline.norm_sweep.self_s", layer("pipeline.norm_sweep", "self_s"), "s")
    put("linalg.eig.calls", layer("linalg.eigh", "calls") + layer("linalg.eigvalsh", "calls"),
        "count")
    put("pipeline.coarse_grain.s", layer("pipeline.coarse_grain", "s"), "s")
    kmeans_calls = sum(totals[aid]["pipeline.kmeans"]["calls"] for aid in ids)
    cg_calls = sum(totals[aid]["pipeline.coarse_grain"]["calls"] for aid in ids)
    put("pipeline.kmeans.useful_ratio", cg_calls / kmeans_calls if kmeans_calls else 0.0,
        "ratio")

    put("pipeline.write.s",
        layer("pipeline.run_pipeline", "s") - layer("pipeline.analyze", "s")
        if any("pipeline.run_pipeline" in totals[aid] for aid in ids) else 0.0, "s")
    put("pipeline.artifact_bytes", counter("pipeline.artifact_bytes"), "bytes")
    for name in ("markov.simulate", "markov.effective_information", "pipeline.detect_k"):
        put(f"{name}.s", layer(name, "s"), "s")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out
