"""Spans around the solver's layers, recorded from outside the library.

Each layer function is wrapped where its caller looks it up: ``evolve``
calls ``spatial_operator`` through ``irpdg.time_integration``, so patching
``irpdg.dg_space.spatial_operator`` alone would miss those calls.  Spans are
kept in memory as ``[name, start_ns, end_ns, parent_index]`` and written
out as JSON lines when the benchmark ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

import irpdg.dg_space
import irpdg.harness
import irpdg.time_integration

EVOLVE = "time_integration.evolve"
LIMIT_FIELD = "irp_limiter.limit_field"

# (module holding the lookup, attribute, span name)
TARGETS = (
    (irpdg.harness, "build_region", "harness.build_region"),
    (irpdg.harness, "l2_project", "dg_space.l2_project"),
    (irpdg.harness, "evolve", EVOLVE),
    (irpdg.time_integration, "compute_dt", "time_integration.compute_dt"),
    (irpdg.time_integration, "global_max_signal_speed",
     "dg_space.global_max_signal_speed"),
    (irpdg.time_integration, "spatial_operator", "dg_space.spatial_operator"),
    (irpdg.dg_space, "physical_flux", "euler_core.physical_flux"),
    (irpdg.time_integration, "limit_field", LIMIT_FIELD),
    (irpdg.time_integration, "_diagnostics", "time_integration.diagnostics"),
)


class Tracer:
    """Span recorder for one solve, plus the limiter's report counts."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.limited_cells = 0
        self.limited_evaluations = 0
        self.fallback_cells = 0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self._open.pop()
            if name == LIMIT_FIELD:
                report = result[1]
                self.limited_cells += report.n_activated
                self.limited_evaluations += report.theta.size
                self.fallback_cells += report.fallback_count
            return result
        return traced

    def totals(self) -> dict[str, list[int]]:
        """Per span name: [calls, inclusive ns, self ns]."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out


@contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers at every lookup site; always restores.

    A target the library no longer defines is skipped and reported, so its
    layer metrics read zero instead of the run failing.
    """
    saved = []
    try:
        for module, attr, name in TARGETS:
            if not hasattr(module, attr):
                print(f"trace: {module.__name__}.{attr} not found; "
                      f"{name} reads zero")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def write_spans(path: str, tracers: list[Tracer]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for solve, tracer in enumerate(tracers):
            for i, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(json.dumps({"solve": solve, "id": i, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")


def layer_metrics(tracers: list[Tracer], traced: list[dict],
                  plain: list[dict]) -> dict:
    """Per-layer metrics from the traced solves; calls are per solve."""
    totals: dict[str, list[int]] = {}
    for tracer in tracers:
        for name, row in tracer.totals().items():
            acc = totals.setdefault(name, [0, 0, 0])
            for i, v in enumerate(row):
                acc[i] += v
    n = len(traced)
    steps = sum(s["steps"] for s in traced)
    evolve_ns = totals.get(EVOLVE, [0, 0, 0])

    def calls(name):
        return totals.get(name, [0, 0, 0])[0] / n

    def ms_per_call(name):
        c, ns, _ = totals.get(name, [0, 0, 0])
        return ns / c / 1e6 if c else 0.0

    def share(name):
        ns = totals.get(name, [0, 0, 0])[1]
        return ns / evolve_ns[1] if evolve_ns[1] else 0.0

    out = {}
    for layer in ("dg_space.spatial_operator",
                  "dg_space.global_max_signal_speed",
                  "irp_limiter.limit_field", "time_integration.diagnostics"):
        out[f"{layer}.calls"] = (calls(layer), "count")
        out[f"{layer}.ms_per_call"] = (ms_per_call(layer), "ms")
        out[f"{layer}.share"] = (share(layer), "ratio")
    out["euler_core.physical_flux.calls"] = (
        calls("euler_core.physical_flux"), "count")
    out["euler_core.physical_flux.ms_per_call"] = (
        ms_per_call("euler_core.physical_flux"), "ms")
    evaluations = sum(t.limited_evaluations for t in tracers)
    out["irp_limiter.limited_cell_ratio"] = (
        sum(t.limited_cells for t in tracers) / evaluations
        if evaluations else 0.0, "ratio")
    out["irp_limiter.fallback_cells"] = (
        sum(t.fallback_cells for t in tracers) / n, "count")
    out["time_integration.steps"] = (steps / n, "count")
    out["time_integration.self_ms_per_step"] = (
        evolve_ns[2] / steps / 1e6 if steps else 0.0, "ms")
    out["time_integration.compute_dt.ms_per_call"] = (
        ms_per_call("time_integration.compute_dt"), "ms")
    out["time_integration.diagnostics_records"] = (
        sum(s["records"] for s in traced) / n, "count")
    out["harness.build_region.ms"] = (ms_per_call("harness.build_region"), "ms")
    out["dg_space.l2_project.ms"] = (ms_per_call("dg_space.l2_project"), "ms")
    checked = [s for s in plain + traced if s["l1"] is not None]
    out["riemann_exact.reference_ms"] = (statistics.median(
        s["reference_ms"] for s in checked) if checked else 0.0, "ms")
    out["accuracy.density_l1"] = (checked[0]["l1"] if checked else 0.0, "1")
    # Each traced solve runs right after an untraced one; the median of
    # the adjacent ratios cancels the drift of the host's speed.
    out["trace_overhead_ratio"] = (statistics.median(
        t["wall"] / p["wall"] for p, t in zip(plain, traced)), "ratio")
    return out
