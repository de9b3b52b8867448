"""Host-speed sampler: normalises host timings for shared-host contention.

On a shared host this program's CPUs run 20-50% slower for tens of seconds
at a time, and process CPU time stretches with them, so neither wall nor
CPU seconds repeat from run to run.  A sampler process runs a fixed slice
of work (a pure-Python loop and a NumPy sort, the program's two kinds of
host work) every ``PERIOD_S``, pinned to each CPU in turn because the
slowdown differs between CPUs, and records the slice's thread CPU time,
which excludes time spent waiting to be scheduled.  A timing taken over an
interval is reported at reference speed: multiplied by
``REFERENCE_SLICE_S`` over the mean slice time measured in that interval.

Run as ``python3 e2ebench/calib.py`` it prints one ``start end cpu_s`` line
per slice until killed.
"""

from __future__ import annotations

import itertools
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: mean slice CPU time on the 2-vCPU host the benchmark was written on; it
#: only scales normalised timings to read close to that host's seconds.
REFERENCE_SLICE_S = 0.0065
PERIOD_S = 0.2
#: slices averaged at least, widening the interval when it holds fewer.
MIN_SLICES = 3


class Sampler:
    """The sampler process and the slices it has reported so far."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self._lock = threading.Lock()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            start, end, cpu = (float(x) for x in line.split())
            with self._lock:
                self.samples.append((start, end, cpu))

    def factor(self, start: float, end: float) -> float:
        """Reference-speed factor for a timing taken over [start, end]
        (``time.monotonic`` seconds, shared by every process)."""
        deadline = time.monotonic() + 5.0
        while True:
            with self._lock:
                samples = list(self.samples)
            if len(samples) >= MIN_SLICES or time.monotonic() > deadline:
                break
            time.sleep(PERIOD_S)
        if not samples:
            raise RuntimeError("host-speed sampler reported no slices")
        inside = [c for s, e, c in samples if s >= start and e <= end]
        if len(inside) < MIN_SLICES:
            mid = (start + end) / 2
            nearest = sorted(samples, key=lambda x: abs((x[0] + x[1]) / 2 - mid))
            inside = [c for _, _, c in nearest[:MIN_SLICES]]
        return REFERENCE_SLICE_S / statistics.fmean(inside)

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()


def main() -> None:
    import numpy as np

    values = np.random.default_rng(0).integers(0, 1 << 30, 20_000)
    cpus = sorted(os.sched_getaffinity(0))
    for k in itertools.count():
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        start, cpu0 = time.monotonic(), time.thread_time()
        s = 0
        for i in range(60_000):
            s += i * i % 7
        np.sort(values)
        cpu = time.thread_time() - cpu0
        print(f"{start:.6f} {time.monotonic():.6f} {cpu:.9f}", flush=True)
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()
