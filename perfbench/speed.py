"""How fast this process's CPU runs while the pipeline runs.

On a shared machine the speed of a core swings by up to 2x, in phases
of a few seconds and in drifts over minutes, with the neighbours' load.
A phase that outlasts a run cannot be averaged away inside the run, and
a job timed before and after a 10 s run samples too little of it.  So a
daemon thread samples the speed all through each timed run: every
``INTERVAL_S`` it runs a fixed probe and records the probe's thread CPU
time, which counts only the probe's own time on the core, not the time
it waits for the GIL or the CPU.  The benchmark pins itself to one
core first, so the probe samples the core the pipeline runs on.  The
probe mixes the pipeline's two kinds of work: a loop of small numpy
calls on rows picked at random from an 850 kB matrix, like SVM
training, which takes most of every workload's time, and a pass over
arrays as large as the core's 2 MB L2 cache, like the feature stack and
label propagation.
It imports nothing from ``sarchange``, so a change to the program
cannot change the probe's work.
"""

from __future__ import annotations

import threading
import time

import numpy as np

INTERVAL_S = 0.1
# Probe time on the machine the benchmark was written on (2 shared
# cores, OpenBLAS pinned to one thread).  Scaled times are expressed in
# seconds of that machine; the constant only sets the scale.
NOMINAL_S = 1.3e-3

_ROWS, _DIMS, _VISITS = 8192, 13, 500
_STREAM = 1 << 18  # float64 values: 2 MB per array


def probe(x: np.ndarray, w: np.ndarray, rows: np.ndarray, src: np.ndarray,
          dst: np.ndarray) -> float:
    total = 0.0
    for i in rows:
        total += float(x[i] @ w)
    np.multiply(src, 1.0001, out=dst)
    return total + float(dst[-1])


class SpeedProbe:
    """Context manager that samples probe times until it exits."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._args = (rng.normal(size=(_ROWS, _DIMS)), rng.normal(size=_DIMS),
                      rng.permutation(_ROWS)[:_VISITS], rng.normal(size=_STREAM),
                      np.empty(_STREAM))
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, probe CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.thread_time()
            probe(*self._args)
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def __enter__(self) -> SpeedProbe:
        probe(*self._args)  # warm-up
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_between(self, start: float, end: float) -> float | None:
        """Mean probe time over the samples taken in [start, end]."""
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        return sum(inside) / len(inside) if inside else None
