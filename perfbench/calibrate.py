"""Host-speed calibration for the benchmark's times.

On a shared host the speed of the same code moves by a third or more within
seconds to minutes, as other tenants load the cores, caches and memory bus.
A run's median time then tracks the host more than the program. So the
benchmark's parent process times a fixed calibration, which no fairrec code
touches, right before and right after every fairrec process, and divides that
process's times by the mean slowness of the two calibrations. A time is thus
reported as it would read at the reference host speed, where the calibration's
parts take their reference times. The raw times are reported next to it.

The calibration has two parts, weighted equally, because the host's load
slows different work by different amounts. The compute part mixes the kinds
of work fairrec does once it runs: text parsing and formatting in pure
Python, many numpy calls on small arrays, and gathers into freshly allocated
large arrays. The startup part starts a few short-lived Python processes that
import some of the standard library, as every fairrec process and CLI command
starts and imports.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# The calibration's parts at the reference host speed, in seconds: about what
# they take on an unloaded 2-vCPU x86-64 cloud host.
REFERENCE_COMPUTE_S = 0.1
REFERENCE_STARTUP_S = 0.16

STARTUP_COMMAND = (sys.executable, "-I", "-c", "import decimal, email.parser, json")
STARTUP_PROCESSES = 3


class Calibration:
    """Fixed inputs, built once; ``run`` times one calibration."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.lines = [f"{u}::{i}::{1 + (u * i) % 5}::97830{u % 10000:04d}\n"
                      for u, i in zip(range(40000), rng.integers(0, 1005, 40000).tolist())]
        self.small = rng.random(400)
        self.p = rng.random((3000, 12))
        self.q = rng.random((1005, 12))
        self.users = rng.integers(0, 3000, 400000)
        self.items = rng.integers(0, 1005, 400000)
        self.run()  # untimed: warms the caches and the allocator

    def _python(self) -> float:
        total = 0
        for line in self.lines:
            u, i, r, _ = line.split("::")
            total += int(u) + int(i) + int(r)
        text = "".join(f"{k} {k * 0.5:.6g}\n" for k in range(20000))
        return float(total + len(text))

    def _small_arrays(self) -> float:
        x = self.small
        acc = 0.0
        for _ in range(6000):
            y = x * 1.0001 + 0.5
            acc += float(np.dot(y, x)) + float((y - x).sum())
        return acc

    def _gathers(self) -> float:
        pred = np.einsum("ij,ij->i", self.p[self.users], self.q[self.items])
        grad = np.zeros_like(self.p)
        np.add.at(grad, self.users[:100000], self.q[self.items[:100000]])
        return float(pred.sum() + grad.sum())

    def run(self) -> tuple:
        """(slowness, compute seconds, startup seconds); slowness is 1 at the
        reference host speed and 2 where both parts take twice as long."""
        start = time.perf_counter()
        self._python()
        self._small_arrays()
        self._gathers()
        compute = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(STARTUP_PROCESSES):
            subprocess.run(STARTUP_COMMAND, check=True, stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL)
        startup = time.perf_counter() - start
        return ((compute / REFERENCE_COMPUTE_S + startup / REFERENCE_STARTUP_S) / 2,
                compute, startup)
