"""Machine-speed probe: a fixed piece of work timed next to every round.

On a shared virtual machine the CPU's own speed drifts by tens of percent
within a minute, so raw seconds of the same work differ from run to run.  The
benchmark therefore times this probe before and after every timed round and
reports each timing in *reference seconds*::

    reference_s = raw_s * P_REF / P_now

where ``P_now`` is the median probe time around the sample and ``P_REF`` is a
constant of the benchmark.  Rates are scaled the other way.

The probe is a single-thread BLAS GEMM plus an element-wise pass over an
array about the size of a d=192 weight matrix, the two kinds of work the
solvers do.  The element-wise pass stays in the CPU's caches on purpose: a
pass over a 32 MB array (main-memory bandwidth, which other tenants share)
tracked dense-fit time far worse than the GEMM did.  This module imports
nothing from ``repro``, so a change to the program cannot change the
yardstick.

A workload that computes in this process only pins itself to one CPU and
probes in-process (:class:`LocalProbe`).  A workload that runs a worker pool
gets one pinned probe process per CPU (:class:`CpuProbes`), probed one CPU at
a time while the program has no work in flight.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from multiprocessing import resource_tracker

import numpy as np

#: Probe seconds that count as one reference second's worth of machine speed:
#: roughly the probe's median on a 2-vCPU KVM guest (Intel Xeon, OpenBLAS,
#: one BLAS thread).  Changing it rescales every reported time.
P_REF = 0.015
#: Order of the square GEMM and how often it repeats in one probe.
GEMM_N = 128
GEMM_REPEATS = 128
#: Order of the square array of the element-wise pass and its repeats.
ELEMENTWISE_N = 192
ELEMENTWISE_REPEATS = 60
#: Probes per block; a block's value is their median.
PROBES_PER_BLOCK = 3


class ProbeWork:
    """Preallocated buffers; :meth:`run` times one probe in this process."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.a = rng.standard_normal((GEMM_N, GEMM_N))
        self.b = rng.standard_normal((GEMM_N, GEMM_N)) / GEMM_N
        self.out = np.empty((GEMM_N, GEMM_N))
        self.square = rng.random((ELEMENTWISE_N, ELEMENTWISE_N))
        self.square_out = np.empty_like(self.square)
        self.run()  # first touch of every page happens outside any timing

    def run(self) -> float:
        began = time.perf_counter()
        for _ in range(GEMM_REPEATS):
            np.matmul(self.a, self.b, out=self.out)
        for _ in range(ELEMENTWISE_REPEATS):
            np.multiply(self.square, self.square, out=self.square_out)
            np.sqrt(self.square_out, out=self.square_out)
            self.square_out.sum(axis=0)
            self.square_out.sum(axis=1)
        return time.perf_counter() - began

    def block(self) -> float:
        return statistics.median(self.run() for _ in range(PROBES_PER_BLOCK))


class LocalProbe:
    """Pins this process (and every child it forks later) to one CPU and
    probes in-process.  For workloads whose work runs one process at a time."""

    def __init__(self) -> None:
        os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])
        self.work = ProbeWork()

    def block(self) -> list[float]:
        """One block value per CPU in use (here exactly one)."""
        return [self.work.block()]

    def close(self) -> None:
        pass


def _probe_server(cpu: int, conn) -> None:
    os.sched_setaffinity(0, [cpu])
    work = ProbeWork()
    conn.send("ready")
    while conn.recv() == "probe":
        conn.send(work.block())
    conn.close()


class CpuProbes:
    """One probe process pinned to each CPU this process may run on.

    :meth:`block` runs a probe block on each CPU in turn, the others idle,
    and returns each CPU's value, so together they measure the speed of the
    machine a pooled workload spreads over.  One CPU at a time, because
    probing all at once tracked pooled serving rounds worse: over 33 rounds
    of a spool-daemon workload, the spread of 5-round medians of round time
    was 0.154 raw, 0.114 normalized by simultaneous blocks and 0.048 by
    blocks in turn (``STEADINESS.md``).  The probe processes are spawned, not
    forked, so they hold nothing of the program.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        context = multiprocessing.get_context("spawn")
        self._conns = []
        self._procs = []
        for cpu in self.cpus:
            ours, theirs = context.Pipe()
            process = context.Process(target=_probe_server, args=(cpu, theirs), daemon=True)
            process.start()
            theirs.close()
            self._conns.append(ours)
            self._procs.append(process)
        for conn in self._conns:
            if conn.recv() != "ready":
                raise RuntimeError("a probe process did not start")

    def block(self) -> list[float]:
        values = []
        for conn in self._conns:
            conn.send("probe")
            values.append(conn.recv())
        return values

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send("stop")
            except OSError:
                pass
            conn.close()
        for process in self._procs:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()
        self._conns, self._procs = [], []


def stop_children() -> None:
    """Stop and reap every process this one started through
    :mod:`multiprocessing`, the resource tracker included.

    Spawning a process starts multiprocessing's resource tracker, which
    otherwise outlives this process by a moment and is never waited for.
    """
    for process in multiprocessing.active_children():
        process.kill()
        process.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def speed(blocks: list[list[float]]) -> float:
    """``P_now`` of a sample from the probe blocks around it: the mean over
    CPUs of each CPU's median block value."""
    per_cpu = zip(*blocks)
    return statistics.fmean(statistics.median(values) for values in per_cpu)


def to_reference(raw_s: float, p_now: float) -> float:
    """Raw seconds measured at probe time ``p_now`` → reference seconds."""
    return raw_s * P_REF / p_now


def rate_to_reference(raw_per_s: float, p_now: float) -> float:
    """A rate measured at probe time ``p_now`` → per reference second."""
    return raw_per_s * p_now / P_REF


def steal_ticks() -> int:
    """The ``steal`` column of the ``cpu`` line of ``/proc/stat`` (0 where
    the file or the column does not exist)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else 0
