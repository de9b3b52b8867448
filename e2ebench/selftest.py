"""Minimum-size self-test of the benchmark itself.

Usage (from the repository root)::

    python3 e2ebench/selftest.py

Checks, in about a minute:

* the same seed gives the same draw, and two seeds give the same multiset
  of cells, sweep pairs and serve jobs;
* each correctness check rejects a wrong answer;
* every workload, at self-test size, prints every end-to-end metric of
  ``BENCHMARK.json`` (and with ``--trace 1`` every per-layer metric) with
  its unit;
* an injected wrong triangle count makes ``run.py`` exit non-zero without
  printing a result.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import checks
import plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _multiset(workload: str, seed: int) -> Counter:
    if workload == "serve-closed":
        return Counter(job for k in range(plan.SERVE_CONNECTIONS) for r in range(3)
                       for job in plan.serve_round(seed, k, r))
    units = [plan.unit_order(workload, seed, u) for u in range(4)]
    if workload == "cluster-sweep":
        return Counter(tuple(p) for u in units for p in u["pairs"])
    return Counter((a, r) for u in units for r in u["rows"] for a in u["algorithms"])


def test_draws() -> None:
    for w in plan.WORKLOADS:
        if w == "serve-closed":
            assert plan.serve_round(7, 0, 1) == plan.serve_round(7, 0, 1), w
            assert plan.serve_round(7, 0, 1) != plan.serve_round(8, 0, 1), w
        else:
            assert plan.unit_order(w, 7, 2) == plan.unit_order(w, 7, 2), w
        assert _multiset(w, 1) == _multiset(w, 2), w


def test_checks() -> None:
    rec = {"algorithm": "Polak", "dataset": "As-Caida", "status": "ok"}
    ref = checks.load_reference()
    comparisons, ratio = ref["work"]["Polak/As-Caida"]
    want = {"As-Caida": ref["triangles"]["As-Caida"]}
    good = {**rec, "triangles": want["As-Caida"], "comparisons": comparisons, "work_ratio": ratio}
    assert checks.check_cell(good, want, ref) == []
    assert checks.check_cell({**good, "triangles": good["triangles"] + 1}, want, ref)
    assert checks.check_cell({**good, "comparisons": comparisons + 1}, want, ref)
    served = {k: good.get(k) for k in ("algorithm", "dataset", *checks.RECORD_KEYS)}
    assert checks.check_serve_result(served, served) == []
    assert checks.check_serve_result({**served, "sim_time_s": 1.0}, served)
    point = {"algorithm": "TRUST", "dataset": "As-Caida", "devices": 2, "status": "ok",
             "triangles": 10, "partition_triangles": [4, 6]}
    assert checks.check_sweep([point], 10) == []
    assert checks.check_sweep([{**point, "partition_triangles": [4, 5]}], 10)


def _run(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_metrics() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[section]}
        for w in plan.WORKLOADS:
            proc = _run(w, trace)
            assert proc.returncode == 0, f"{w} trace={trace}: {proc.stderr[-2000:]}"
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
            assert out["correct"] is True and out["attempted"] >= 1 and out["failed"] == 0
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == want, f"{w} trace={trace}: {sorted(set(got) ^ set(want))}"
            for name, m in out["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            print(f"ok  {w:14s} trace={trace}  {len(got)} metrics", flush=True)


def test_gate() -> None:
    proc = _run("figure-cold", 0, "--inject", "triangles")
    assert proc.returncode != 0, "an injected wrong count passed the gate"
    assert '"metrics"' not in proc.stdout, "a failed gate printed a result"
    assert "cpu_reference" in proc.stderr, proc.stderr[-2000:]


def main() -> None:
    for test in (test_draws, test_checks, test_gate, test_metrics):
        test()
        print(f"ok  {test.__name__}", flush=True)


if __name__ == "__main__":
    main()
