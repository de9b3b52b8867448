"""Wall time of the nine work models on one mid-size replica.

``repro.analysis.work`` runs once per matrix cell and, on a warm trace
store, used to be the largest share of regenerating a figure.  This
benchmark times all nine models on Wiki-Talk from a fresh copy of the
CSR, so every sample pays the shared rank index build exactly as the
first cell of a graph does, and splits the time into the index build and
each model.

The comparison counts are checked against the checked-in
``BENCH_work.json`` before any time is written, so a fast-but-wrong model
can never post a number (a deliberate change to a counting rule must
refresh the file).  CI's perf-smoke job gates ``work_models_s`` at 1.5x
the checked-in baseline.

Run with ``pytest benchmarks/bench_work_model.py --benchmark-only -s``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis.work import _RankIndex, work_efficiency
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_oriented

OUT = Path(__file__).resolve().parent.parent / "BENCH_work.json"

DATASET = "Wiki-Talk"
ALGORITHMS = ("Polak", "Green", "TriCore", "Fox", "GroupTC", "Hu", "H-INDEX", "TRUST", "Bisson")
#: samples per measurement; min-of-ROUNDS suppresses scheduler noise
ROUNDS = 7


def _fresh(csr: CSRGraph) -> CSRGraph:
    """The same graph without its cached index."""
    return CSRGraph(row_ptr=csr.row_ptr, col=csr.col)


def _sample(csr: CSRGraph) -> tuple[float, dict[str, float], dict[str, int]]:
    graph = _fresh(csr)
    t0 = time.perf_counter()
    index = _RankIndex.of(graph)
    _ = index.a, index.b  # build both rank sides inside the split
    split = {"index_build": time.perf_counter() - t0}
    counts = {}
    for algorithm in ALGORITHMS:
        t1 = time.perf_counter()
        counts[algorithm] = work_efficiency(graph, algorithm).comparisons
        split[algorithm] = time.perf_counter() - t1
    return time.perf_counter() - t0, split, counts


def test_work_model(benchmark):
    csr = load_oriented(DATASET)
    samples = []

    def run():
        samples.extend(_sample(csr) for _ in range(ROUNDS))

    benchmark.pedantic(run, rounds=1, iterations=1)

    counts = samples[0][2]
    assert all(sample[2] == counts for sample in samples)
    if OUT.exists():
        expected = json.loads(OUT.read_text())["comparisons"]
        assert counts == expected, f"work model counts moved: {counts} != {expected}"

    best = min(samples, key=lambda sample: sample[0])
    payload = {
        "dataset": DATASET,
        "edges": csr.m,
        "rounds": ROUNDS,
        "work_models_s": round(best[0], 4),
        "split_s": {name: round(seconds, 4) for name, seconds in best[1].items()},
        "comparisons": counts,
    }
    OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwork model timings -> {OUT}")
    for key, value in sorted(payload.items()):
        print(f"  {key}: {value}")
