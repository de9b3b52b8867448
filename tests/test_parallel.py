"""Parallel comparison-matrix executor and its supervised worker pool
(repro.framework.pool)."""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.framework import (
    CellJob,
    JobScheduler,
    RetryPolicy,
    SupervisionPolicy,
    default_jobs,
    parallel_starmap,
    run_cells,
    run_matrix,
    run_one,
)
from repro.framework.pool import Worker
from repro.framework.resilience import CHAOS_ENV, HANG_SECONDS_ENV
from repro.framework.resilience import LEGACY_CRASH_ENV as CRASH_ENV
from repro.gpu.trace import get_trace_cache
from repro.obs.tracer import BufferSink, Tracer, set_tracer

ALGS = ("Polak", "TRUST", "GroupTC")
SMALL = ("As-Caida", "P2p-Gnutella31", "Email-EuAll", "Soc-Slashdot0922")


class TestEquivalence:
    def test_parallel_equals_serial(self):
        """jobs=N must be an implementation detail: identical records, same order."""
        serial = run_matrix(ALGS, SMALL, max_blocks_simulated=4, jobs=1)
        parallel = run_matrix(ALGS, SMALL, max_blocks_simulated=4, jobs=2)
        assert parallel.records == serial.records
        assert parallel.algorithms == serial.algorithms
        assert parallel.datasets == serial.datasets

    def test_record_order_is_dataset_major(self):
        m = run_matrix(ALGS, SMALL[:2], max_blocks_simulated=4, jobs=2)
        expected = [(alg, ds) for ds in SMALL[:2] for alg in ALGS]
        assert [(r.algorithm, r.dataset) for r in m.records] == expected

    def test_jobs_zero_means_auto(self):
        m = run_matrix(ALGS[:2], SMALL[:2], max_blocks_simulated=4, jobs=0)
        assert len(m.records) == 4
        assert all(r.ok for r in m.records)


class TestRunCells:
    def test_empty(self):
        assert run_cells([]) == []

    def test_serial_fallback_single_cell(self):
        records = run_cells([("Polak", "As-Caida")], jobs=8, max_blocks_simulated=4)
        assert len(records) == 1
        assert records[0].ok

    def test_duplicate_cells_keep_positions(self):
        cells = [("Polak", "As-Caida"), ("Polak", "As-Caida")]
        records = run_cells(cells, jobs=2, max_blocks_simulated=4)
        assert len(records) == 2
        assert records[0] == records[1]

    def test_unknown_dataset_is_failed_cell(self):
        records = run_cells(
            [("Polak", "No-Such-Graph"), ("Polak", "As-Caida")],
            jobs=2,
            max_blocks_simulated=4,
        )
        assert records[0].status == "failed"
        assert "No-Such-Graph" in records[0].error or "unknown" in records[0].error
        assert records[1].ok


class TestProgress:
    def test_callback_sees_every_cell(self):
        seen = []
        run_cells(
            [(alg, ds) for ds in SMALL[:2] for alg in ALGS],
            jobs=2,
            max_blocks_simulated=4,
            progress_callback=lambda rec, done, total: seen.append((rec, done, total)),
        )
        assert len(seen) == 6
        assert [done for _, done, _ in seen] == list(range(1, 7))
        assert all(total == 6 for _, _, total in seen)

    def test_run_matrix_threads_callback(self):
        counts = []
        run_matrix(
            ALGS[:2],
            SMALL[:2],
            max_blocks_simulated=4,
            jobs=2,
            progress_callback=lambda rec, done, total: counts.append(done),
        )
        assert counts == [1, 2, 3, 4]


class TestCrashCapture:
    def test_worker_exception_becomes_failed_record(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "TRUST/As-Caida")
        m = run_matrix(ALGS, SMALL[:2], max_blocks_simulated=4, jobs=2)
        bad = m.cell("TRUST", "As-Caida")
        assert bad.status == "failed"
        assert "injected crash" in bad.error
        others = [r for r in m.records if (r.algorithm, r.dataset) != ("TRUST", "As-Caida")]
        assert all(r.ok for r in others)

    def test_hard_worker_death_never_aborts_matrix(self, monkeypatch):
        """A worker process dying outright fails only its own cell: the
        scheduler re-forks the worker until the cell's circuit opens, the
        other cells run on, and the matrix completes with full shape."""
        monkeypatch.setenv(CRASH_ENV, "exit:TRUST/As-Caida")
        m = run_matrix(ALGS, SMALL[:2], max_blocks_simulated=4, jobs=2)
        assert len(m.records) == 6
        bad = m.cell("TRUST", "As-Caida")
        assert bad.status == "failed"
        assert "worker process died" in bad.error
        assert bad.extra["circuit_open"]
        others = [r for r in m.records if (r.algorithm, r.dataset) != ("TRUST", "As-Caida")]
        assert all(r.ok for r in others)

    def test_serial_path_also_captures(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "Polak/As-Caida")
        records = run_cells([("Polak", "As-Caida")], jobs=1, max_blocks_simulated=4)
        assert records[0].status == "failed"


class TestHelpers:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_parallel_starmap_preserves_order(self):
        args = [(i, i + 1) for i in range(10)]
        assert parallel_starmap(_add, args, jobs=3) == [i + i + 1 for i in range(10)]

    def test_parallel_starmap_serial_equals_parallel(self):
        args = [(i, 2) for i in range(5)]
        assert parallel_starmap(_add, args, jobs=1) == parallel_starmap(_add, args, jobs=2)


class TestPool:
    """One persistent worker per scheduler thread, replaced only on loss."""

    DS = "As-Caida"

    def test_thread_runs_sequential_jobs_in_one_worker(self):
        buf = BufferSink()
        old = set_tracer(Tracer([buf]))
        sched = JobScheduler(workers=1, max_blocks_simulated=4)
        try:
            for alg in ALGS:
                assert sched.submit(CellJob(alg, self.DS)).result(60.0).ok
        finally:
            sched.shutdown()
            set_tracer(old)
        cells = [e for e in buf.events if e.get("event") == "span_end" and e["name"] == "cell"]
        assert len(cells) == len(ALGS)
        assert len({e["pid"] for e in cells}) == 1 and cells[0]["pid"] != os.getpid()

    def test_worker_drops_traces_between_calls(self):
        """Each call starts with an empty in-memory trace layer, as a fresh
        fork would, so a worker's memory stays at one cell's peak."""
        worker = Worker()
        try:
            assert worker.call(_cell_then_trace_count, ("Polak", self.DS)) > 0
            assert worker.call(_trace_count) == 0
        finally:
            worker.close()

    def test_exit_death_forks_a_replacement(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"exit:TRUST/{self.DS}")
        sched = JobScheduler(
            workers=1, max_blocks_simulated=4,
            supervision=SupervisionPolicy(max_worker_deaths=1),
        )
        try:
            assert sched.submit(CellJob("Polak", self.DS)).result(60.0).ok
            pid = sched._workers[0].pid
            dead = sched.submit(CellJob("TRUST", self.DS)).result(60.0)
            assert "worker process died with exit code 17" in dead.error
            assert sched.submit(CellJob("Polak", self.DS)).result(60.0).status == "ok"
            assert sched._workers[0].pid not in (None, pid)
        finally:
            sched.shutdown()

    def test_hang_killed_at_timeout_other_worker_untouched(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"hang:TRUST/{self.DS}")
        monkeypatch.setenv(HANG_SECONDS_ENV, "60")
        sched = JobScheduler(
            workers=2, max_blocks_simulated=4,
            policy=RetryPolicy(cell_timeout_s=2.0, max_attempts=1),
        )
        try:
            hang = sched.submit(CellJob("TRUST", self.DS))
            assert sched.submit(CellJob("Polak", self.DS)).result(60.0).ok
            before = [w.pid for w in sched._workers]
            assert None not in before
            assert "timed out on all 1 attempts" in hang.result(30.0).error
            after = [w.pid for w in sched._workers]
            assert after.count(None) == 1
            with pytest.raises(ChildProcessError):  # the hung worker was killed and reaped
                os.waitpid(before[after.index(None)], os.WNOHANG)
            (i,) = [k for k, pid in enumerate(after) if pid is not None]
            assert after[i] == before[i]  # the other kept its process
            os.kill(after[i], 0)
        finally:
            sched.shutdown()

    def test_shutdown_leaves_no_live_or_zombie_child(self):
        sched = JobScheduler(workers=2, max_blocks_simulated=4)
        try:
            handles = [sched.submit(CellJob(alg, self.DS)) for alg in ALGS]
            assert all(h.result(60.0).ok for h in handles)
            pids = [w.pid for w in sched._workers if w.pid is not None]
        finally:
            sched.shutdown()
        assert pids
        for pid in pids:
            with pytest.raises(ChildProcessError):  # already reaped
                os.waitpid(pid, os.WNOHANG)
        assert not set(pids) & {p.pid for p in mp.active_children()}

    def test_workers_exit_when_parent_is_sigkilled(self):
        """Orphaned workers must not outlive a kill -9'd daemon: each sees
        EOF on its pipe once no live process holds the parent's end."""
        code = (
            "import os, time\n"
            "from repro.framework.pool import Worker\n"
            "a, b = Worker(), Worker()\n"
            "print(a.call(os.getpid), b.call(os.getpid), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                  text=True, env=env)
        pids = [int(p) for p in parent.stdout.readline().split()]
        parent.send_signal(signal.SIGKILL)
        parent.wait(10.0)
        parent.stdout.close()

        def running(pid):  # an exited orphan may linger as a zombie
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        deadline = time.monotonic() + 10.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(pids) == 2 and not any(map(running, pids))

    def test_starmap_leaves_no_child(self):
        before = {p.pid for p in mp.active_children()}
        assert os.getpid() not in parallel_starmap(os.getpid, [()] * 4, jobs=2)
        assert {p.pid for p in mp.active_children()} <= before

    def test_starmap_stress_fills_every_slot_once(self):
        """More dispatch threads than cores, switching as often as possible:
        every item lands in its own slot, in argument order."""
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = parallel_starmap(_add, [(i, i) for i in range(300)],
                                   jobs=min(os.cpu_count() or 1, 8) + 1)
        finally:
            sys.setswitchinterval(old)
        assert out == [2 * i for i in range(300)]

    def test_starmap_raises_first_worker_error(self):
        with pytest.raises(ZeroDivisionError):
            parallel_starmap(_div, [(1, 1), (1, 0), (2, 1)], jobs=2)


def _add(a, b):
    return a + b


def _div(a, b):
    return a / b


def _trace_count():
    return len(get_trace_cache())


def _cell_then_trace_count(algorithm, dataset):
    assert run_one(algorithm, dataset, max_blocks_simulated=4, engine="vectorized").ok
    return _trace_count()
