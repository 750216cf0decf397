"""A fixed reference kernel that measures how fast the machine runs right now.

On the shared machine the benchmark was defined on, single-threaded work
switches between a fast and a slow state (a 35 ms kernel reads 25 or 40 ms)
every few seconds, and the share of time spent slow differs from minute to
minute, so raw timings of the same work spread by about 20% between runs.
The kernel below runs the three kinds of work the workloads spend their time
in (LAPACK ``eigh``, a dense complex exponential matrix product, and
interpreted Python). It is timed between ops all through a run, on as many
cores at once as the ops keep busy. Each op's time multiplied by
``NOMINAL_S`` over the mean kernel time of the samples taken right before
and right after it is "seconds at reference speed": a factor local to the
op follows the fast and slow states, which a factor for the whole run
would leave in the op timings, where they make the median flip between
them. The mean, not the median, of the kernel times, because a mean weighs
the two states by the time spent in each, as op timings do.

The kernel does not call sinespikes, so no change to the program can move it.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

# Mean kernel time on the 2-vCPU Xeon machine the benchmark was defined on.
# A constant scale factor only: changing it rescales every adjusted metric.
NOMINAL_S = 0.034

# Reference samples are taken before the first op, after the last one, and
# between ops once this many seconds have passed since the previous sample.
SAMPLE_EVERY_S = 1.0
RUNS_PER_SAMPLE = 3


class _Kernel:
    def __init__(self):
        rng = np.random.default_rng(20040259)
        a = rng.standard_normal((106, 106)) + 1j * rng.standard_normal((106, 106))
        self.hermitian = a + a.conj().T
        self.phases = -2j * np.pi * np.outer(np.arange(1024) / 1024, np.arange(401))
        self.coeffs = rng.standard_normal((401, 3)) + 1j * rng.standard_normal((401, 3))

    @staticmethod
    def _interpreted(n: int = 60_000) -> int:
        table = {}
        acc = 0
        for i in range(n):
            table[i & 63] = acc
            acc += i * 3 % 7
        return acc

    def timed_runs(self, n: int) -> list[float]:
        out = []
        for _ in range(n):
            start = time.perf_counter()
            for _ in range(5):
                np.linalg.eigh(self.hermitian)
            np.exp(self.phases) @ self.coeffs
            self._interpreted()
            out.append(time.perf_counter() - start)
        return out


_worker_kernel = None


def _init_worker():
    global _worker_kernel
    _worker_kernel = _Kernel()


def _worker_runs(n: int) -> list[float]:
    return _worker_kernel.timed_runs(n)


class SpeedProbe:
    """Times the kernel on ``workers`` cores at once (one process per core
    when more than one), matching the number of cores the ops keep busy.

    The worker processes are forked: a spawn or forkserver pool would also
    start multiprocessing's resource-tracker process, which nobody waits for
    and which outlives the benchmark by a moment. ``close()`` waits until
    every worker has ended.
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        # kernel times of each sample, in the order they were taken
        self.groups: list[list[float]] = []
        # per op: how many samples were taken before it started
        self.marks: list[int] = []
        self._last = None
        self._kernel = _Kernel()
        self._pool = None
        if workers > 1:
            self._pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                                             initializer=_init_worker)
            for f in [self._pool.submit(_worker_runs, 1) for _ in range(workers)]:
                f.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def sample(self) -> None:
        """Time the kernel ``RUNS_PER_SAMPLE`` times on each of ``workers`` cores."""
        if self._pool is None:
            group = self._kernel.timed_runs(RUNS_PER_SAMPLE)
        else:
            futures = [self._pool.submit(_worker_runs, RUNS_PER_SAMPLE)
                       for _ in range(self.workers)]
            group = [t for f in futures for t in f.result()]
        self.groups.append(group)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if self._last is None or time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def mark(self) -> None:
        """Note that an op starts now."""
        self.marks.append(len(self.groups))

    def op_factors(self) -> list[float]:
        """Per marked op, multiply its seconds by this: ``NOMINAL_S`` over the
        mean kernel time of the last sample before it and the first after it."""
        return [_factor(self.groups[m - 1] + self.groups[m]) for m in self.marks]


def _factor(times: list[float]) -> float:
    return NOMINAL_S * len(times) / sum(times)


def single_core_factor() -> float:
    """Speed factor of one core right now, from one sample."""
    probe = SpeedProbe()
    probe.sample()
    return _factor(probe.groups[0])
