"""Host-speed calibration for the timed metrics.

A 2-vCPU virtual machine (Firecracker guest) that shares its host with
other tenants changes speed with their load; wall and CPU time move
together.  Over five minutes one fixed ``batch_population`` pass took
0.41 to 1.01 s (median 0.70 s), and the medians of 30-second windows
of those passes had an interquartile range of 22 % of their median: a
drift that outlasts a run, which no repetition inside the run removes.

So every timed unit of work (a set-up, a pass, a serve round) is
bracketed by a probe that belongs to the benchmark, not to the program,
and a timed metric is reported at the probe's reference speed:
durations are divided by the unit's *slowdown*, rates multiplied by it.

The probe is a fixed interpreter kernel; over the same 30-second
windows the calibrated median's interquartile range was 6 %.  It never
calls into ``repro``, so a change to the program moves a calibrated
metric by the same factor as the raw one.
"""

from __future__ import annotations

import os
import time

import numpy as np

REFERENCE_S = 0.030
"""The kernel's median time on the reference host (2-vCPU Firecracker VM,
Python 3 with NumPy), so calibrated figures read as seconds there."""

KERNEL_RUNS = 3
"""Kernel runs per mark; the median is kept."""


def kernel_s() -> float:
    """Run the CPU calibration kernel once; its wall time in seconds.

    A mix of the interpreter work the workloads do: float arithmetic,
    dict updates and builtin calls, then small NumPy array operations.
    """
    start = time.perf_counter()
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(30000):
        x = (i * 0.37) % 1.0
        table[i & 255] = table.get(i & 255, 0.0) + x * x
        acc += max(x, 0.5) - min(x, 0.25)
    vec = np.arange(64.0)
    for _ in range(1500):
        vec = vec * 1.0000001 + 0.5
        acc += float(vec.sum())
    elapsed = time.perf_counter() - start
    if acc != acc:  # keeps the arithmetic live
        raise ArithmeticError("calibration kernel produced NaN")
    return elapsed


def cpus() -> list[int]:
    """The CPUs this process may run on, lowest first."""
    return sorted(os.sched_getaffinity(0))


def pin(pid: int, cpu: int) -> None:
    """Restrict process (or, for 0, the calling thread) ``pid`` to ``cpu``.

    Threads started afterwards inherit the mask, so pinning a process
    right after it starts pins every thread it later creates.
    """
    os.sched_setaffinity(pid, {cpu})


class Calibrator:
    """Host-speed probes taken between units of work.

    Call :meth:`mark` before the first unit and after every unit; unit
    ``k`` then lies between marks ``k`` and ``k + 1``, and its slowdown
    is the mean of the two kernel times over :data:`REFERENCE_S`.

    Args:
        cpu: The CPU the measured work runs on; the kernel runs there
            too (the calling thread moves for the probe and back).
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.marks: list[float] = []

    def mark(self) -> None:
        """Time the kernel :data:`KERNEL_RUNS` times on :attr:`cpu`; keep
        the median."""
        home = os.sched_getaffinity(0)
        pin(0, self.cpu)
        try:
            times = sorted(kernel_s() for _ in range(KERNEL_RUNS))
            self.marks.append(times[len(times) // 2])
        finally:
            os.sched_setaffinity(0, home)

    def slowdown(self, unit: int) -> float:
        """Host slowdown during unit ``unit`` (1.0 = reference speed)."""
        return (self.marks[unit] + self.marks[unit + 1]) / 2.0 / REFERENCE_S
