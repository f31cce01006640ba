"""Timing scaled to a reference CPU speed.

A shared host can change the speed of a virtual CPU under its
neighbours' load: for seconds at a time a core may run pure-Python code
1.5x slower.  A raw median then says more about the neighbours than
about the program.  So every timed interval lies between two runs of a
fixed calibration workload on the same CPU, and is reported as the time
it would have taken on a CPU that runs the calibration in ``REFERENCE``
seconds.  The calibration mixes dict building, sorting and integer
arithmetic, which tracks the speed of the program's interpreter-bound
analysis closely (a bare counting loop tracks it less well).  Work that
is mostly process start-up is paired with a bare interpreter start
instead.

Every calibration runs while no program process can run: the live ones
are stopped (``SIGSTOP``) around it.  A program that gains background
work (a sampler thread, a busy-polling queue) therefore slows its
operations without slowing the calibration, and the scaled times show
it.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import subprocess
import sys
import time
from typing import Callable, Iterator, Sequence

_RNG = random.Random(0)
_KEYS = [_RNG.random() for _ in range(200)]
#: Seconds one calibration workload takes at the reference speed.
REFERENCE = 5e-5
#: Seconds a bare interpreter takes to start and exit at the reference
#: speed.
SPAWN_REFERENCE = 1e-2


def _work() -> int:
    index = {key: i for i, key in enumerate(_KEYS)}
    total = 0
    for i, key in enumerate(sorted(_KEYS)):
        total += index[key] * (i % 7) // 3
    return total


def calibration() -> float:
    """Seconds the calibration workload takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def spawn_calibration() -> float:
    """Seconds a bare interpreter takes to start and exit now (best of
    two): the calibration for work that is mostly process start-up, which
    tracks the kernel's speed as well as the interpreter's."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], env={}, check=True)
        best = min(best, time.perf_counter() - start)
    return best


@contextlib.contextmanager
def stopped(processes: Sequence[subprocess.Popen]) -> Iterator[None]:
    """Hold every one of *processes* (children of this process) stopped
    for the duration of the block."""
    for proc in processes:
        os.kill(proc.pid, signal.SIGSTOP)
    try:
        for proc in processes:
            _, status = os.waitpid(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                raise RuntimeError(f"program process {proc.pid} exited")
        yield
    finally:
        for proc in processes:
            os.kill(proc.pid, signal.SIGCONT)


class Timer:
    """Calibrates between consecutive timed intervals; the calibration
    closing one interval opens the next."""

    def __init__(
        self,
        calibrate: Callable[[], float] = calibration,
        reference: float = REFERENCE,
    ) -> None:
        self.calibrate = calibrate
        self.reference = reference
        self.calibration = calibrate()

    def lap(
        self, processes: Sequence[subprocess.Popen] = ()
    ) -> Callable[[float], float]:
        """Calibrate with *processes* stopped; returns the function that
        scales raw seconds measured since the previous calibration to
        the reference speed."""
        before = self.calibration
        with stopped(processes):
            self.calibration = after = self.calibrate()
        return lambda seconds: seconds * 2 * self.reference / (before + after)


def pin_cpu() -> None:
    """Keep this process and every process it starts on one CPU, so that
    the calibration runs where the timed work runs."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
