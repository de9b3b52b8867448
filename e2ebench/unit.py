"""One benchmark unit in a fresh process: a serial figure matrix or one
cluster scale-out sweep.

Usage: ``python3 e2ebench/unit.py '<json spec>'`` with ``PYTHONPATH`` and
``REPRO_CACHE_DIR`` set by ``run.py``.  The process imports the program,
opens the unit's replicas (its set-up, which ends at ``ready``), runs the
unit, then checks every output and prints one JSON line.  With
``"traced": true`` the layer spans of ``layers.py`` are installed and the
metrics registry is enabled; untraced units run the program as a user
would, with both off.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time


def _rusage_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _figure(order: dict, cells_ms: list) -> list[dict]:
    from repro.framework import run_matrix

    last = [time.perf_counter()]

    def tick(rec, done, total):
        now = time.perf_counter()
        cells_ms.append((now - last[0]) * 1e3)
        last[0] = now

    matrix = run_matrix(order["algorithms"], order["rows"], progress_callback=tick)
    return [dataclasses.asdict(rec) for rec in matrix.records]


def _mark_expected_failures(records: list[dict], datasets) -> None:
    """A failed cell is expected only when it is the paper-scale capacity
    failure that ``paper_scale_footprint`` predicts (the paper's red crosses)."""
    from repro.algorithms.base import get_algorithm
    from repro.framework import paper_scale_footprint
    from repro.gpu.device import TESLA_V100

    for rec in records:
        if rec["status"] != "ok":
            csr = datasets.load_oriented(rec["dataset"])
            footprint = paper_scale_footprint(
                get_algorithm(rec["algorithm"]), rec["dataset"], csr, TESLA_V100)
            rec["expected_failure"] = footprint > TESLA_V100.global_mem_bytes


def _cluster(order: dict) -> list[dict]:
    from repro.framework import scaleout_curve

    points = []
    for alg, row in order["pairs"]:
        for pt in scaleout_curve(alg, row, device_counts=tuple(order["devices"]), jobs=order["jobs"]):
            rec = pt.record
            points.append({
                "algorithm": rec.algorithm,
                "dataset": rec.dataset,
                "devices": rec.devices,
                "status": rec.status,
                "triangles": rec.triangles,
                "partition_triangles": [p.triangles for p in rec.partitions],
                "exchange_bytes": rec.total_exchange_bytes,
                "sim_time_s": rec.cluster_time_s,
                **{k: rec.counters.get(k) for k in (
                    "warp_execution_efficiency", "gld_transactions_per_request",
                    "global_load_requests")},
            })
    return points


def main(spec: dict) -> dict:
    from repro.algorithms.cpu_reference import count_triangles_matrix
    from repro.graph import datasets

    from checks import (
        check_cell, check_sweep, load_reference, sample_error_pct, sim_digest,
        unexpected_failures,
    )
    from layers import Spans

    kind, order, traced = spec["kind"], spec["order"], spec["traced"]
    spans = None
    if traced:
        from repro.obs.metrics import configure_metrics

        registry = configure_metrics(True)
        spans = Spans(registry).install()
    rows = order["rows"] if kind == "figure" else [row for _, row in order["pairs"]]
    for row in rows:
        datasets.load_oriented(row)
    ready = time.monotonic()
    if traced:
        spans.setup_graph_s = spans.seconds["graph"]
        base_snap = registry.snapshot()

    cells_ms: list[float] = []
    cpu0, t0 = _rusage_cpu(), time.perf_counter()
    records = _figure(order, cells_ms) if kind == "figure" else _cluster(order)
    unit_s = time.perf_counter() - t0
    cpu_s = _rusage_cpu() - cpu0
    layers = _layers(kind, spans, registry.snapshot(), base_snap, unit_s, records) if traced else None

    if spec.get("inject") == "triangles":
        records[0]["triangles"] = (records[0]["triangles"] or 0) + 1
    reference = load_reference()
    want = {row: count_triangles_matrix(datasets.load_edges(row)) for row in set(rows)}
    errors = [f"layer span {name!r} recorded no calls" for name in spans.uncovered(kind)] if traced else []
    if kind == "figure":
        _mark_expected_failures(records, datasets)
        for rec in records:
            errors += check_cell(rec, want, reference)
        failed = unexpected_failures(records)
    else:
        for alg, row in order["pairs"]:
            errors += check_sweep([p for p in records if p["algorithm"] == alg], want[row])
        failed = sum(1 for p in records if p["status"] != "ok")
    single = [r for r in records if r.get("devices", 1) == 1]
    return {
        "ready": ready,
        "unit_s": unit_s,
        "cpu_s": cpu_s,
        "rss_mb": _peak_rss_mb(),
        "attempted": len(records),
        "failed": failed,
        "errors": errors,
        "digest": sim_digest(records),
        "cells_ms": cells_ms,
        "sample_err_pct": sample_error_pct(single, reference["fullgrid"]),
        "layers": layers,
    }


def _layers(kind: str, spans, snap: dict, base_snap: dict, unit_s: float, records: list) -> dict:
    from repro.obs.metrics import delta_snapshots

    from layers import DECLARED, engine_layers

    layers = engine_layers(delta_snapshots(snap, base_snap))
    s = spans.seconds
    # The declared spans of a unit kind are disjoint (cluster's profile
    # calls run inside its fan-out), so their sum is the attributed time.
    named = sum(s[name] for name in DECLARED[kind]) - spans.setup_graph_s
    layers.update({
        "graph.load_s": s["graph"],
        "algorithms.profile_self_s": s["profile"] - spans.engine["profile"],
        "work.model_s": s["work"],
        "work.share": s["work"] / unit_s,
        "runner.unattributed_s": unit_s - named,
        "cluster.plan_s": s["plan"],
        "cluster.fanout_s": s["fanout"] - spans.engine["fanout"],
        "cluster.exchange_mb": sum(p.get("exchange_bytes", 0) for p in records) / 1e6,
    })
    return layers


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
