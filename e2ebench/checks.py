"""Correctness gate and simulated-statistics digest (pure functions).

Every check returns a list of human-readable violations; the benchmark
exits non-zero, without printing a result, when any list is non-empty.
"""

from __future__ import annotations

import hashlib
import math
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "data" / "reference.json"

#: the paper's simulated outputs: simulated time and three nvprof counters.
STAT_KEYS = (
    "sim_time_s",
    "warp_execution_efficiency",
    "gld_transactions_per_request",
    "global_load_requests",
)
#: fields a serve result must share with the in-process run of its cell.
RECORD_KEYS = ("status", "triangles", *STAT_KEYS, "comparisons", "work_ratio")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def cell_key(algorithm: str, dataset: str) -> str:
    return f"{algorithm}/{dataset}"


def check_cell(rec: dict, triangles: dict, reference: dict) -> list[str]:
    """One figure cell: exact count against the CPU reference count of its
    row, and the work model against the checked-in table.

    ``triangles`` maps each row to its count from ``cpu_reference``."""
    key = cell_key(rec["algorithm"], rec["dataset"])
    if rec["status"] != "ok":
        return []  # counted by unexpected_failures(), not a wrong answer
    errors = []
    want = triangles[rec["dataset"]]
    if rec["triangles"] != want:
        errors.append(f"{key}: triangles {rec['triangles']} != cpu_reference {want}")
    work = reference["work"].get(key)
    if work is None:
        errors.append(f"{key}: no checked-in work entry")
    else:
        comparisons, ratio = work
        if rec["comparisons"] != comparisons:
            errors.append(f"{key}: comparisons {rec['comparisons']} != table {comparisons}")
        if rec["work_ratio"] is None or abs(rec["work_ratio"] - ratio) > 1e-9 * abs(ratio):
            errors.append(f"{key}: work_ratio {rec['work_ratio']} != table {ratio}")
    return errors


def unexpected_failures(records: list[dict]) -> int:
    return sum(1 for r in records if r["status"] != "ok" and not r.get("expected_failure"))


def check_serve_result(served: dict, local: dict) -> list[str]:
    """A serve result must equal the in-process ``run_one`` of its cell."""
    key = cell_key(local["algorithm"], local["dataset"])
    return [
        f"{key}: serve {name}={served.get(name)!r} != in-process {local.get(name)!r}"
        for name in RECORD_KEYS
        if served.get(name) != local.get(name)
    ]


def check_sweep(points: list[dict], want: int) -> list[str]:
    """Each device count of a sweep: partition counts sum to the
    single-device count, which equals the CPU reference count."""
    errors = []
    for p in points:
        label = f"{p['algorithm']}/{p['dataset']}@{p['devices']}"
        if p["status"] != "ok":
            continue
        total = sum(p["partition_triangles"])
        if total != want or p["triangles"] != want:
            errors.append(
                f"{label}: partitions sum {total}, record {p['triangles']}, "
                f"cpu_reference {want}"
            )
    return errors


def sample_error_pct(records: list[dict], fullgrid: dict) -> float:
    """Mean |sampled - full grid| / |full grid| over the simulated outputs
    of ``records`` (percent), against the full-grid reference."""
    errs = []
    for rec in records:
        if rec["status"] != "ok":
            continue
        ref = fullgrid[cell_key(rec["algorithm"], rec["dataset"])]
        for k in STAT_KEYS:
            if ref[k]:
                errs.append(abs(rec[k] - ref[k]) / abs(ref[k]))
    return 100.0 * math.fsum(errs) / len(errs) if errs else 0.0


def sim_digest(records: list[dict]) -> str:
    """Order-independent digest of every simulated statistic.  A change that
    only speeds the program up must leave it unchanged."""
    rows = sorted(
        json.dumps([r["algorithm"], r["dataset"], r.get("devices", 1), r["status"],
                    r.get("triangles"), *[repr(r.get(k)) for k in STAT_KEYS]])
        for r in records
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
