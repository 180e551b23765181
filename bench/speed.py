"""Machine-speed probes for normalising the benchmark's wall times.

On a shared 2-vCPU virtual machine the speed of the same work drifts by up
to 2x over periods of seconds to minutes, in wall and CPU time alike,
because other tenants share the physical cores.  That drift is far larger
than the regressions the benchmark has to detect, so every timed quantity
is interleaved with probes of the same kind of work and reported at
reference speed::

    reported = measured * reference / median(probes taken around it)

Two probes, both the benchmark's own code, so no change to the program can
alter them:

* ``compute()`` times a fixed loop of exact ``Fraction`` arithmetic and
  comparisons over a step function, the interpreter and big-integer work of
  the program's kernel.  It brackets in-process operations.
* ``spawn()`` times a fresh interpreter that imports the standard-library
  modules ``cakecut.cli`` imports.  It brackets CLI subprocesses and set-up,
  which are mostly interpreter start-up and imports and slow down less than
  arithmetic does under contention.

Each reference is the probe's time on an uncontended vCPU of the reference
machine (Python 3.11.7, 2 vCPUs at 2.0 GHz), so on a quiet machine reported
and measured times agree.  Raw wall times are printed next to the metrics.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

# Each probe's median time on an uncontended vCPU of the reference machine.
COMPUTE_REFERENCE_S = 0.0022
SPAWN_REFERENCE_S = 0.060

_rng = Random(1705)
_BOUNDS = (Fraction(0), *sorted({Fraction(_rng.randrange(1, 96), 96) for _ in range(12)}),
           Fraction(1))
_DENSITIES = tuple(Fraction(_rng.randrange(1, 9), 7) for _ in _BOUNDS[1:])
_QUERIES = tuple((Fraction(_rng.randrange(0, 50), 97), Fraction(_rng.randrange(50, 97), 97))
                 for _ in range(40))
_SPAWN_ARGV = (sys.executable, "-c",
               "import argparse, dataclasses, fractions, itertools, json, math, random, typing")


def _compute() -> float:
    """Seconds one fixed batch of interval valuations takes right now."""
    started = time.perf_counter()
    best = Fraction(0)
    for x, y in _QUERIES:
        total = Fraction(0)
        for a, b, d in zip(_BOUNDS, _BOUNDS[1:], _DENSITIES):
            lo, hi = max(a, x), min(b, y)
            if lo < hi:
                total += d * (hi - lo)
        best = max(best, total)
    return time.perf_counter() - started


def _spawn() -> float:
    """Seconds a fresh interpreter takes to start and import the CLI's stdlib."""
    started = time.perf_counter()
    code, _ = wait_exit(subprocess.Popen(_SPAWN_ARGV))
    elapsed = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"speed probe exited {code}")
    return elapsed


def wait_exit(proc: subprocess.Popen, timeout: float = 60) -> tuple[int, int]:
    """Wait for a child without polling; return (exit code, its max RSS in KiB).

    ``Popen.wait(timeout)`` polls with sleeps that grow to 50 ms, which
    would add up to 50 ms to every measured child.  A pidfd wakes the
    parent the moment the child exits, and ``wait4`` reports the child's
    own peak memory.
    """
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
        if not ready:
            raise TimeoutError(f"child {proc.pid} still running after {timeout} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Probe:
    """Scales wall times to reference speed by probes taken around them.

    ``every`` operations share one bracket (the spawn probe costs about as
    much as a CLI command).  A bracket is scaled by the median of the
    ``WINDOW`` probes nearest to it, which smooths the probes' own noise;
    the machine's speed changes over seconds, not within a window.
    """

    WINDOW = 6

    def __init__(self, measure, reference: float, every: int = 1):
        self.measure = measure
        self.reference = reference
        self.every = every
        self.readings = [measure()]
        self.groups: list[list[float]] = []
        self.pending: list[float] = []

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        if len(self.pending) >= self.every:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            self.groups.append(self.pending)
            self.pending = []
            self.readings.append(self.measure())

    @property
    def raw(self) -> list[float]:
        return [s for group in self.groups for s in group]

    @property
    def scaled(self) -> list[float]:
        out = []
        half = self.WINDOW // 2
        for g, group in enumerate(self.groups):
            lo = max(0, min(g + 1 - half, len(self.readings) - self.WINDOW))
            factor = self.reference / statistics.median(self.readings[lo:lo + self.WINDOW])
            out.extend(s * factor for s in group)
        return out


def compute() -> Probe:
    return Probe(_compute, COMPUTE_REFERENCE_S)


def spawn(every: int) -> Probe:
    return Probe(_spawn, SPAWN_REFERENCE_S, every)
