"""Regenerate ``e2ebench/data/reference.json``.

Usage (from the repository root)::

    python3 e2ebench/make_reference.py

The file holds three tables the benchmark checks against:

* ``triangles`` — exact counts per row from ``cpu_reference`` (informational;
  the benchmark recounts live);
* ``work`` — ``[comparisons, work_ratio]`` per cell from
  ``repro.analysis.work`` for every cell any workload runs;
* ``fullgrid`` — the four simulated outputs of every single-device cell a
  workload simulates, with every block simulated
  (``max_blocks_simulated=None``).  This is the more
  detailed model that ``sample_err_pct`` measures block sampling against;
  it is the simulator's own full run, not a measurement on a real GPU.

Regenerate it only when the program's model changes on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> None:
    cache = ROOT / ".bench_work" / "reference-cache"
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    sys.path.insert(0, str(ROOT / "src"))
    import plan
    from checks import REFERENCE_PATH, STAT_KEYS, cell_key
    from repro.algorithms.cpu_reference import count_triangles_matrix
    from repro.analysis.work import work_efficiency
    from repro.framework import run_one
    from repro.graph.datasets import load_edges, load_oriented

    work_rows = dict.fromkeys(
        plan.COLD_ROWS + plan.WARM_ROWS + plan.SERVE_ROWS + plan.SMOKE["rows"]
        + tuple(row for _, row in plan.CLUSTER_PAIRS)
    )
    out: dict = {"triangles": {}, "work": {}, "fullgrid": {}}
    for row in work_rows:
        out["triangles"][row] = count_triangles_matrix(load_edges(row))
        for alg in plan.ALGORITHMS:
            we = work_efficiency(load_oriented(row), alg)
            out["work"][cell_key(alg, row)] = [float(we.comparisons), we.work_ratio]
    grid_cells = [(alg, row) for row in plan.COLD_ROWS + plan.WARM_ROWS for alg in plan.ALGORITHMS]
    grid_cells += list(plan.CLUSTER_PAIRS) + list(plan.SMOKE["cluster_pairs"])
    for alg, row in dict.fromkeys(grid_cells):
        rec = run_one(alg, row, max_blocks_simulated=None)
        if not rec.ok:
            raise SystemExit(f"full-grid run of {alg}/{row} failed: {rec.error}")
        out["fullgrid"][cell_key(alg, row)] = {k: getattr(rec, k) for k in STAT_KEYS}
        print(f"fullgrid {alg}/{row} done", file=sys.stderr, flush=True)
    shutil.rmtree(cache)  # full-grid traces run to gigabytes
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
