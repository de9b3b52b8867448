"""Layer spans recorded from outside the program.

Each span wraps a public function at the name its callers actually resolve
(``runner`` and ``cluster`` import ``load_oriented`` by name; ``run_one``
imports ``work_efficiency`` lazily from its module, so the module
attribute is what gets patched).  A span counts calls and wall seconds in
memory; nothing is written until the unit reports.
"""

from __future__ import annotations

import functools
import time

#: spans each unit kind must exercise; a zero-call span fails the run so
#: that no per-layer metric silently reads 0.  Within a kind they are
#: disjoint (cluster's profile calls run inside its fan-out).
DECLARED = {
    "figure": ("graph", "profile", "work"),
    "cluster": ("graph", "plan", "fanout"),
}
ENGINE_STAGES = ("record_s", "replay_s", "trace_load_s", "counter_aggregation_s")


def _starmap_workers(args, kwargs) -> int:
    """Processes a ``parallel_starmap(fn, argtuples, jobs=...)`` call uses."""
    jobs = kwargs.get("jobs") or 1
    return max(1, min(jobs, len(args[1])))


class Spans:
    """Call counts and wall seconds per layer span.  ``engine`` holds the
    engine time (from the metrics registry, which also folds in worker
    processes' time) that ran inside the ``profile`` and ``fanout`` spans,
    divided over the processes that ran it in parallel."""

    def __init__(self, registry) -> None:
        self.registry = registry
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.engine: dict[str, float] = {}
        #: graph-span seconds spent in the unit's set-up (replicas opened).
        self.setup_graph_s = 0.0

    def engine_s(self) -> float:
        return sum(self.registry.get("engine_" + stage) for stage in ENGINE_STAGES)

    def _wrap(self, name: str, fn, workers=None):
        self.calls[name] = 0
        self.seconds[name] = 0.0
        self.engine[name] = 0.0

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t0, e0 = time.perf_counter(), self.engine_s()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls[name] += 1
                self.seconds[name] += time.perf_counter() - t0
                share = workers(args, kwargs) if workers else 1
                self.engine[name] += (self.engine_s() - e0) / share

        return span

    def install(self) -> "Spans":
        from repro.algorithms import base
        from repro.analysis import work
        from repro.framework import cluster, runner
        from repro.graph import datasets

        load = self._wrap("graph", datasets.load_oriented)
        for module in (datasets, runner, cluster):
            module.load_oriented = load
        base.TCAlgorithm.profile = self._wrap("profile", base.TCAlgorithm.profile)
        work.work_efficiency = self._wrap("work", work.work_efficiency)
        cluster.build_plan = self._wrap("plan", cluster.build_plan)
        cluster.parallel_starmap = self._wrap("fanout", cluster.parallel_starmap, _starmap_workers)
        return self

    def uncovered(self, kind: str) -> list[str]:
        return [name for name in DECLARED[kind] if not self.calls[name]]


def engine_layers(delta: dict) -> dict:
    """Engine, trace-store and cluster counts from a metrics-registry delta."""
    c = delta.get("counters", {})
    record_s = c.get("engine_record_s", 0.0)
    warps = c.get("sim_warps_launched", 0.0)
    hits, misses = c.get("tracestore_hits", 0.0), c.get("tracestore_misses", 0.0)
    return {
        "engine.record_s": record_s,
        "engine.record_us_per_warp": record_s * 1e6 / warps if warps else 0.0,
        "engine.replay_s": c.get("engine_replay_s", 0.0),
        "engine.trace_load_s": c.get("engine_trace_load_s", 0.0),
        "engine.aggregate_s": c.get("engine_counter_aggregation_s", 0.0),
        "engine.launches": c.get("sim_launches", 0.0),
        "engine.warps": warps,
        "tracestore.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "tracestore.misses": misses,
        "tracestore.written_mb": c.get("tracestore_bytes_written", 0.0) / 1e6,
        "tracestore.mapped_mb": c.get("tracestore_bytes_mapped", 0.0) / 1e6,
        "cluster.partitions": c.get("cluster_partitions", 0.0),
    }
