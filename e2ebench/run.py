"""End-to-end benchmark of the triangle-counting reproduction.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload figure-cold --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``figure-cold`` / ``figure-warm`` / ``cluster-sweep`` repeat *units* for
  ``--seconds``: each unit is a fresh process (``unit.py``) that imports the
  program, opens its replicas and runs one serial figure matrix or one
  scale-out sweep.  figure-cold empties the trace store before every unit;
  figure-warm and cluster-sweep read a store that earlier units filled.
* ``serve-closed`` boots a ``repro serve`` daemon three times (spawn ->
  ready -> warm pass), then drives the last one with closed-loop
  connections from this process for ``--seconds``.

Set-up, unit and CPU seconds are reported at a reference host speed
measured beside the run (``calib.py``), because a shared host's speed
drifts by tens of percent.  Every output is checked (``checks.py``); any
violation exits non-zero before a result is printed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics plus ``trace_overhead``
with ``--trace 1``.  All state lives under ``.bench_work/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import plan
from calib import Sampler
from checks import RECORD_KEYS, check_serve_result, load_reference, sample_error_pct, sim_digest
from layers import engine_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: a run must end within 180 s; units and daemons get what is left of this.
DEADLINE_S = 170.0
#: medians need at least three units; a traced run alternates traced and
#: untraced units, so three gives two traced and one untraced.
MIN_UNITS = 3
#: a percentile is reported only with at least 10 samples beyond it.
MIN_SERVE_JOBS = 100

#: every workload reports all of these; a "unit" is one serial figure
#: matrix, one scale-out sweep, or one serve job (submit -> result).
END_TO_END_UNITS = {
    "setup_s": "s", "unit_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "cache_disk_mb": "MB", "sample_err_pct": "%", "ok_frac": "1",
}
PER_LAYER_UNITS = {
    "graph.load_s": "s",
    "algorithms.profile_self_s": "s",
    "engine.record_s": "s",
    "engine.record_us_per_warp": "us",
    "engine.replay_s": "s",
    "engine.trace_load_s": "s",
    "engine.aggregate_s": "s",
    "engine.launches": "count",
    "engine.warps": "count",
    "tracestore.hit_ratio": "1",
    "tracestore.misses": "count",
    "tracestore.written_mb": "MB",
    "tracestore.mapped_mb": "MB",
    "work.model_s": "s",
    "work.share": "1",
    "runner.cell_p50_ms": "ms",
    "runner.cell_mean_ms": "ms",
    "runner.unattributed_s": "s",
    "executor.cell_ratio": "1",
    "scheduler.queue_wait_p50_ms": "ms",
    "scheduler.worker_restarts": "count",
    "serve.decision_p50_ms": "ms",
    "serve.exec_p50_ms": "ms",
    "serve.journal_fsync_p50_ms": "ms",
    "serve.rejected": "count",
    "cluster.plan_s": "s",
    "cluster.fanout_s": "s",
    "cluster.partitions": "count",
    "cluster.exchange_mb": "MB",
    "trace_overhead": "1",
}


class GateFailure(Exception):
    """An output failed a correctness check; the run prints no result."""


def _quantile(xs, q: float) -> float:
    """Nearest-rank quantile; ``inf`` entries (failed jobs) sort last."""
    ordered = sorted(xs)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _dir_mb(path: Path) -> float:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except FileNotFoundError:
                pass
    return total / 1e6


def _store_state(traces: Path) -> tuple:
    if not traces.is_dir():
        return ()
    return tuple(sorted(p.name for p in traces.iterdir()))


def _env(cache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn_unit(spec: dict, env: dict, budget_s: float, sampler: Sampler) -> tuple[float, dict]:
    """Run one unit process; returns its set-up seconds and its report, with
    ``factor`` the host-speed factor over the process's life."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "unit.py"), json.dumps(spec)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(budget_s, 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise GateFailure(f"unit process exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["errors"]:
        raise GateFailure("; ".join(out["errors"][:10]))
    out["factor"] = sampler.factor(t_spawn, time.monotonic())
    return out["ready"] - t_spawn, out


def run_units(args, work: Path, t_start: float, sampler: Sampler) -> dict:
    kind = "cluster" if args.workload == "cluster-sweep" else "figure"
    cache = work / "cache"
    traces = cache / "traces"
    env = _env(cache)
    cold = args.workload == "figure-cold"
    units, setups, disk = [], [], []
    digests = set()
    n = 0
    primed = False
    window = time.monotonic()
    while True:
        if cold:
            shutil.rmtree(traces, ignore_errors=True)
        before = _store_state(traces)
        spec = {
            "kind": kind,
            "order": plan.unit_order(args.workload, args.seed, n, args.smoke),
            "traced": bool(args.trace) and n % 2 == 0,
            "inject": args.inject,
        }
        setup_s, out = _spawn_unit(spec, env, DEADLINE_S - (time.monotonic() - t_start), sampler)
        n += 1
        # A warm workload's first unit in a fresh checkout fills the store;
        # it is set-up of the checkout, not a measured unit.
        if not cold and not primed and not units and _store_state(traces) != before:
            primed = True
            window = time.monotonic()
            continue
        out["traced"] = spec["traced"]
        units.append(out)
        setups.append(setup_s * out["factor"])
        disk.append(_dir_mb(cache))
        digests.add(out["digest"])
        if len(units) >= MIN_UNITS and time.monotonic() - window >= args.seconds:
            break
    if len(digests) != 1:
        raise GateFailure(f"simulated statistics differ between units: {sorted(digests)}")
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    result = {"attempted": attempted, "failed": failed, "digest": digests.pop(), "samples": {}}
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "unit_s": statistics.median([u["unit_s"] * u["factor"] for u in plain]),
            "cpu_s": statistics.median([u["cpu_s"] * u["factor"] for u in plain]),
            "peak_rss_mb": statistics.median([u["rss_mb"] for u in plain]),
            "cache_disk_mb": statistics.median(disk),
            "sample_err_pct": statistics.median([u["sample_err_pct"] for u in plain]),
            "ok_frac": 1.0 - failed / attempted,
        }
        result["samples"] = {
            "units": len(plain), "setups": len(setups),
            "unit_s_raw": [round(u["unit_s"], 4) for u in plain],
            "factor": [round(u["factor"], 4) for u in plain],
        }
    else:
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        for k in traced[0]["layers"]:
            metrics[k] = statistics.median([u["layers"][k] for u in traced])
        cells = [c for u in traced for c in u["cells_ms"]]
        metrics["runner.cell_p50_ms"] = _quantile(cells, 0.5) if cells else 0.0
        metrics["runner.cell_mean_ms"] = statistics.fmean(cells) if cells else 0.0
        metrics["trace_overhead"] = (
            statistics.median([u["unit_s"] * u["factor"] for u in traced])
            / statistics.median([u["unit_s"] * u["factor"] for u in plain])
        )
        result["samples"] = {"units_traced": len(traced), "cells": len(cells)}
    result["metrics"] = metrics
    return result


# -- serve-closed -----------------------------------------------------------


def _read_ready(proc: subprocess.Popen, timeout: float) -> None:
    line: list[str] = []
    reader = threading.Thread(target=lambda: line.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    if not line or not line[0].startswith("serve: listening"):
        raise GateFailure(f"serve daemon not ready: {line!r}")


def _proc_cpu_s(pid: int) -> float:
    """utime + stime + cutime + cstime of a child process, in seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return sum(int(x) for x in fields[11:15]) / os.sysconf("SC_CLK_TCK")


class Daemon:
    """One ``repro serve`` process on a socket under the workload dir."""

    def __init__(self, work: Path, env: dict) -> None:
        from repro.serve.client import ServeClient

        sock = work / "serve.sock"
        sock.unlink(missing_ok=True)
        self.sock = os.path.relpath(sock, ROOT)  # AF_UNIX paths are length-capped
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.sock,
             "--workers", str(plan.SERVE_WORKERS), "--quota-rate", "1e9",
             "--quota-burst", "1e9", "--max-queue-depth", "1000000",
             "--soft-queue-depth", "1000000"],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.client_cls = ServeClient
        try:
            _read_ready(self.proc, 60.0)
        except GateFailure:
            self.stop()
            raise

    def client(self, name: str):
        return self.client_cls(socket_path=self.sock, client_id=name, timeout=60.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.client("stop") as c:
                    c.shutdown()
                self.proc.wait(30)
            except Exception:
                self.proc.kill()
                self.proc.wait(10)
        self.proc.stdout.close()


def _job(client, alg: str, ds: str) -> dict:
    t0 = time.monotonic()
    receipt = client.submit(alg, ds)
    job = {"cell": (alg, ds), "decision_ms": receipt.decision_ms, "accepted": receipt.accepted}
    if receipt.accepted:
        terminal = receipt.result(timeout=60.0)
        job["record"] = terminal.get("record") or {}
        job["status"] = job["record"].get("status", "lost")
        for ev in receipt.events:
            if ev.get("name") == "job_started":
                job["queue_wait_s"] = ev.get("queue_wait_s")
            elif ev.get("name") == "job_done":
                job["exec_s"] = ev.get("duration_s")
    else:
        job["status"] = "rejected"
    job["latency_s"] = time.monotonic() - t0 if job["status"] == "ok" else math.inf
    job["done_at"] = time.monotonic()
    return job


def _check_jobs(jobs: list[dict], local: dict) -> None:
    errors = []
    for job in jobs:
        if job["status"] == "ok":
            errors += check_serve_result(job["record"], local[job["cell"]])
    if errors:
        raise GateFailure("; ".join(errors[:10]))


def _drive(args, daemon: Daemon, t_start: float) -> dict:
    """Closed-loop window on a booted daemon; the second half of a traced
    window also reads the daemon's metrics registry continuously."""
    from repro.obs.metrics import delta_snapshots

    jobs: list[dict] = []
    lock = threading.Lock()
    stop_at = [time.monotonic() + args.seconds]
    traced_from = time.monotonic() + args.seconds / 2 if args.trace else math.inf
    errors: list[BaseException] = []

    def connection(k: int) -> None:
        try:
            with daemon.client(f"conn{k}") as c:
                rnd = 0
                while True:
                    for alg, ds in plan.serve_round(args.seed, k, rnd, args.smoke):
                        if time.monotonic() >= stop_at[0]:
                            return
                        job = _job(c, alg, ds)
                        with lock:
                            jobs.append(job)
                            if len(jobs) < MIN_SERVE_JOBS and not args.smoke:
                                stop_at[0] = max(stop_at[0], time.monotonic() + 0.5)
                    rnd += 1
        except BaseException as exc:  # surfaced below; the run must not hang
            errors.append(exc)

    with daemon.client("stats") as stats:
        snap0 = stats.stats()["metrics"]
        cpu0 = _proc_cpu_s(daemon.proc.pid)
        w0 = time.monotonic()
        threads = [threading.Thread(target=connection, args=(k,))
                   for k in range(plan.SERVE_CONNECTIONS)]
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads) and time.monotonic() - t_start < DEADLINE_S:
            if time.monotonic() >= traced_from:
                stats.stats()
            time.sleep(0.25 if time.monotonic() >= traced_from else 0.05)
        for t in threads:
            t.join(timeout=5.0)
        cpu1 = _proc_cpu_s(daemon.proc.pid)
        snap1 = stats.stats()["metrics"]
    if errors:
        raise GateFailure(f"serve connection failed: {errors[0]!r}")
    if any(t.is_alive() for t in threads):
        raise GateFailure("serve connections did not finish")
    return {
        "jobs": jobs, "cpu_s": cpu1 - cpu0, "delta": delta_snapshots(snap1, snap0),
        "start": w0, "end": max(j["done_at"] for j in jobs), "traced_from": traced_from,
    }


def run_serve(args, work: Path, t_start: float, sampler: Sampler) -> dict:
    cache = work / "cache"
    env = _env(cache)
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    from repro.framework import run_one
    from repro.obs.metrics import hist_quantile

    cells = plan.serve_cells(args.smoke)
    setups = []
    daemon = None
    try:
        for i in range(3):
            if daemon is not None:
                daemon.stop()
            t0 = time.monotonic()
            daemon = Daemon(work, env)
            with daemon.client("warm") as c:
                warm = [_job(c, alg, ds) for alg, ds in plan.serve_round(args.seed, -1, i, args.smoke)]
            t1 = time.monotonic()
            setups.append((t1 - t0) * sampler.factor(t0, t1))
        local = {}
        for alg, ds in cells:
            rec = dataclasses.asdict(run_one(alg, ds))
            local[(alg, ds)] = {k: rec[k] for k in ("algorithm", "dataset", *RECORD_KEYS)}
        _check_jobs(warm, local)
        window = _drive(args, daemon, t_start)
    finally:
        if daemon is not None:
            daemon.stop()
    jobs = window["jobs"]
    _check_jobs(jobs, local)

    done = [j for j in jobs if j["status"] == "ok"]
    lat = [j["latency_s"] for j in jobs]
    factor = sampler.factor(window["start"], window["end"])
    result = {
        "attempted": len(jobs),
        "failed": len(jobs) - len(done),
        "digest": sim_digest([local[cell] for cell in cells]),
        "samples": {
            "jobs": len(jobs), "setups": len(setups),
            # Serve-only figures, reported but not gated: every workload
            # must print the same end-to-end metric set.
            "job_p90_ms": round(_quantile(lat, 0.9) * factor * 1e3, 3),
            "jobs_per_s": round(len(done) / (window["end"] - window["start"]), 3),
            "unit_s_raw": round(_quantile(lat, 0.5), 5),
            "factor": round(factor, 4),
        },
    }
    if not args.trace:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "unit_s": _quantile(lat, 0.5) * factor,
            "cpu_s": window["cpu_s"] * factor / max(len(done), 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "cache_disk_mb": _dir_mb(cache) - _dir_mb(cache / "serve"),
            "sample_err_pct": sample_error_pct(list(local.values()), load_reference()["fullgrid"]),
            "ok_frac": len(done) / len(jobs),
        }
        return result

    delta = window["delta"]
    fsync = delta.get("hists", {}).get("serve_journal_fsync_s", {})
    exec_s = [j["exec_s"] for j in done if j.get("exec_s") is not None]
    decisions = [j["decision_ms"] for j in jobs if j["decision_ms"] is not None]
    coverage = {
        "job events": len(exec_s), "admission decisions": len(decisions),
        "journal fsyncs": fsync.get("count", 0),
        "engine launches": delta.get("counters", {}).get("sim_launches", 0),
    }
    missing = [name for name, count in coverage.items() if not count]
    if missing:
        raise GateFailure(f"serve layers recorded nothing: {missing}")
    # executor.cell_ratio: serve exec time per job over a memory-warm
    # in-process run_one of the same cells (the pass above warmed them).
    t0 = time.perf_counter()
    for alg, ds in cells:
        run_one(alg, ds)
    inproc_s = (time.perf_counter() - t0) / len(cells)
    early = [j["latency_s"] for j in jobs if j["done_at"] < window["traced_from"]]
    late = [j["latency_s"] for j in jobs if j["done_at"] >= window["traced_from"]]
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics.update(engine_layers(delta))
    metrics.update({
        "executor.cell_ratio": statistics.fmean(exec_s) / inproc_s,
        "scheduler.queue_wait_p50_ms": _quantile([j["queue_wait_s"] for j in done], 0.5) * 1e3,
        "scheduler.worker_restarts": delta.get("counters", {}).get("serve_worker_restarts", 0.0),
        "serve.decision_p50_ms": _quantile(decisions, 0.5),
        "serve.exec_p50_ms": _quantile(exec_s, 0.5) * 1e3,
        "serve.journal_fsync_p50_ms": hist_quantile(fsync, 0.5) * 1e3,
        "serve.rejected": delta.get("counters", {}).get("serve_rejected", 0.0),
        "trace_overhead": (
            _quantile(late, 0.5) * sampler.factor(window["traced_from"], window["end"])
            / (_quantile(early, 0.5) * sampler.factor(window["start"], window["traced_from"]))
        ),
    })
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test size: one row, two algorithms, short window")
    ap.add_argument("--inject", choices=("triangles",), default=None,
                    help="self-test: corrupt one triangle count to prove the gate trips")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"e2ebench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_start = time.monotonic()
    work = ROOT / ".bench_work" / (("smoke-" if args.smoke else "") + args.workload)
    work.mkdir(parents=True, exist_ok=True)
    sampler = Sampler()
    try:
        if args.workload == "serve-closed":
            if args.inject:
                raise GateFailure("--inject applies to unit workloads")
            result = run_serve(args, work, t_start, sampler)
        else:
            result = run_units(args, work, t_start, sampler)
    except GateFailure as exc:
        print(f"e2ebench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        sampler.close()
        shutil.rmtree(work / "cache" / "serve", ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in sorted(result["metrics"].items())
    }
    print(f"sim_digest {args.workload} {result['digest']}")
    print(f"samples {args.workload} {json.dumps(result['samples'], sort_keys=True)}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
