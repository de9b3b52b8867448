"""Supervised persistent worker processes: the one executor behind the
matrix, the ``repro serve`` scheduler, cluster fan-out and sweeps.

The paper's 9x19 matrix (Figures 11-13, 15) is a set of independent
cells, and TRUST-style multi-GPU fan-out is a set of independent
partitions; both run here.  A :class:`Worker` is one process, forked
lazily on its first call (so environment set before the first call, e.g.
``REPRO_CHAOS`` or ``REPRO_CACHE_DIR``, reaches it), that loops::

    recv (fn, args, kwargs) -> run, buffering events -> send reply

The reply ``(ok, value, events, metrics_delta)`` is the only path by
which worker telemetry reaches the parent: :meth:`Worker.call` re-emits
the events into the parent's tracer and merges the call's metrics delta
into its registry before returning ``value`` (or raising it).

Supervision is the parent waiting on ``[conn, proc.sentinel]``:

* a call that outlives its ``timeout`` kills that worker and raises
  :class:`CellTimeout`;
* a worker that exits without replying is reaped and :class:`WorkerDied`
  is raised;
* either way the next call forks a replacement.

After every call the worker drops the in-memory trace layer, so each call
starts from the state a fresh fork would: warm replica and rank-index
caches and disk trace store, empty memory layer.  A worker's peak RSS is
then one call's peak, not the union of every trace it has mapped.

A worker is owned by one thread.  :class:`~repro.framework.scheduler.
JobScheduler` gives each of its threads one; :func:`parallel_starmap`
starts ``jobs`` dispatch threads with one each.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import signal
import threading
from collections.abc import Sequence
from multiprocessing.connection import wait

from ..gpu.trace import get_trace_cache
from ..obs.metrics import delta_snapshots, get_metrics
from ..obs.tracer import BufferSink, env_level, get_tracer

__all__ = [
    "CellTimeout",
    "Worker",
    "WorkerDied",
    "default_jobs",
    "parallel_starmap",
    "resolve_jobs",
]

#: ``fork`` lets workers inherit the parent's warm replica caches.
_CTX = mp.get_context("fork")

#: Held from pipe creation until the child ends are closed in the parent:
#: a sibling forked in between would inherit a child end and keep a dead
#: worker's pipe open.
_FORK_LOCK = threading.Lock()


class CellTimeout(Exception):
    """A call exceeded its wall-clock budget and its worker was killed."""


class WorkerDied(RuntimeError):
    """The worker process exited without replying."""


def default_jobs() -> int:
    """Worker count used when ``jobs`` is 0/None: one per CPU core."""
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: int | None, n_items: int) -> int:
    """Workers to use for ``n_items`` tasks (never more than the tasks)."""
    if not jobs:
        jobs = default_jobs()
    return max(1, min(int(jobs), n_items)) if n_items else 1


def _serve(conn, parent_end) -> None:
    """Worker body: answer calls until the parent says stop or goes away."""
    # Without its own copy of the parent's end, the pipe reads EOF once the
    # parent dies, even by SIGKILL.
    parent_end.close()
    # The parent stops its workers itself: Ctrl-C is for the parent, and a
    # daemon's inherited SIGTERM handler must not run here.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Events reach the parent's sinks only through the reply: each reply
    # empties this buffer (when the parent traces at all).
    level = env_level()
    buf = BufferSink("debug" if level == "off" else level)
    if level != "off" or get_tracer().sinks:
        get_tracer().add_sink(buf)
    registry = get_metrics()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        fn, args, kwargs = msg
        baseline = registry.snapshot() if registry.enabled else None
        try:
            ok, value = True, fn(*args, **kwargs)
        except Exception as exc:
            ok, value = False, exc
        # Only this call's observations: a full snapshot would double-count.
        delta = delta_snapshots(registry.snapshot(), baseline) if registry.enabled else None
        events, buf.events = buf.events, []
        get_trace_cache().clear()
        try:
            conn.send((ok, value, events, delta))
        except Exception as exc:  # the value or exception did not pickle
            conn.send((False, RuntimeError(f"unpicklable reply: {exc!r}"), events, delta))


def _absorb(events: list[dict], metrics_delta: dict | None) -> None:
    """Fold one call's worker telemetry into this process."""
    tracer = get_tracer()
    for event in events:
        event["forwarded"] = True
        tracer.emit_raw(event)
    registry = get_metrics()
    if registry.enabled:
        registry.merge(metrics_delta)


class Worker:
    """One persistent worker process, replaced after a timeout or death."""

    def __init__(self) -> None:
        self._proc = None
        self._conn = None
        self._closed = False

    @property
    def pid(self) -> int | None:
        """The live worker's pid (None before the first call or after a loss)."""
        return self._proc.pid if self._proc is not None else None

    def _start(self) -> None:
        with _FORK_LOCK:
            conn, child = _CTX.Pipe()
            proc = _CTX.Process(target=_serve, args=(child, conn), name="repro-worker",
                                daemon=True)
            proc.start()
            child.close()
        self._proc, self._conn = proc, conn

    def _reap(self, grace_s: float) -> int | None:
        """Forget the worker: wait ``grace_s`` for it to exit, then kill it."""
        proc, conn = self._proc, self._conn
        self._proc = self._conn = None
        conn.close()
        proc.join(grace_s)
        if proc.exitcode is None:
            proc.kill()
            proc.join()
        return proc.exitcode

    def call(self, fn, args: tuple = (), kwargs: dict | None = None, *,
             timeout: float | None = None):
        """``fn(*args, **kwargs)`` in the worker; its exception re-raises here.

        Raises :class:`CellTimeout` after killing a worker that outlives
        ``timeout`` seconds, and :class:`WorkerDied` after reaping one that
        exits without replying.
        """
        if self._closed:
            raise RuntimeError("worker is shut down")
        if self._proc is not None and not self._proc.is_alive():
            self._reap(0.0)  # died after its last reply
        if self._proc is None:
            self._start()
        try:
            self._conn.send((fn, args, kwargs or {}))
            ready = wait([self._conn, self._proc.sentinel], timeout)
            if not ready:
                self._reap(0.0)
                raise CellTimeout(f"call exceeded {timeout:.3g}s wall clock")
            if self._conn not in ready:
                raise EOFError
            ok, value, events, metrics_delta = self._conn.recv()
        except (EOFError, OSError):
            code = self._reap(5.0)
            raise WorkerDied(f"worker process died with exit code {code}") from None
        _absorb(events, metrics_delta)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Stop the worker and never fork another; idle workers exit cleanly."""
        self._closed = True
        if self._proc is not None:
            try:
                self._conn.send(None)
            except OSError:
                pass
            self._reap(5.0)


def parallel_starmap(fn, argtuples: Sequence[tuple], *, jobs: int | None = None) -> list:
    """Ordered ``[fn(*args) for args in argtuples]`` over ``jobs`` workers.

    ``fn`` must be a picklable module-level callable.  ``jobs=1`` (or a
    single item) runs in-process.  Worker exceptions propagate: once every
    item has run, the first failure in argument order is raised.
    """
    argtuples = list(argtuples)
    jobs = resolve_jobs(jobs, len(argtuples))
    if jobs == 1:
        return [fn(*args) for args in argtuples]
    todo: queue.SimpleQueue[int] = queue.SimpleQueue()
    for i in range(len(argtuples)):
        todo.put(i)
    results: list = [None] * len(argtuples)
    errors: dict[int, Exception] = {}

    def dispatch() -> None:
        worker = Worker()
        try:
            while True:
                try:
                    i = todo.get_nowait()
                except queue.Empty:
                    return
                try:
                    results[i] = worker.call(fn, argtuples[i])
                except Exception as exc:
                    errors[i] = exc
        finally:
            worker.close()

    threads = [threading.Thread(target=dispatch, name=f"repro-starmap-{k}") for k in range(jobs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]
    return results
