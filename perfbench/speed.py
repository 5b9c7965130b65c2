"""Host-speed calibration: the benchmark's times at one reference speed.

The machine the benchmark runs on is shared.  Its speed drifts between
states that last from seconds to minutes, by up to 1.8x, and CPU time
drifts with wall time, because the slowdown comes from neighbours
sharing the core and its caches rather than from waiting.  Two runs of
the same campaign a minute apart took 12 s and 20 s.

So while a campaign runs, a fixed calibration kernel -- the benchmark's
own code, independent of everything under ``src/`` -- is timed every
``INTERVAL_S`` from a ``SIGALRM`` handler, on the same core, in the same
process.  The kernel's typical duration during the campaign measures the
host's speed at that time, and the campaign's times are rescaled to the
speed at which one kernel call takes ``REFERENCE_KERNEL_S``::

    campaign_s = (wall - time spent in the kernel) * REFERENCE_KERNEL_S / kernel_s

A change to the program moves the campaign's wall time but not the
kernel's, so it moves the rescaled time by the same factor.

Example::

    with Sampler() as sampler:
        run_campaign()
    print(sampler.factor())      # REFERENCE_KERNEL_S / typical kernel time
"""

from __future__ import annotations

import gc
import signal
import time
from typing import List

#: Duration of one kernel call at the reference speed: about the
#: typical speed of the 2-vCPU VM the benchmark was tuned on.
REFERENCE_KERNEL_S = 0.0025

#: Seconds between two kernel calls during a campaign (about 3% of it).
INTERVAL_S = 0.1

#: Seconds between two kernel calls during set-up, which is short.
SETUP_INTERVAL_S = 0.04

#: A table larger than the per-core L2 cache, read in a scattered order
#: (multiplicative hashing; no imports, so set-up pays little for it),
#: so the kernel feels cache contention as well as the core's clock.
_TABLE = [(i * 2654435761) & 0x3FFFFFFF for i in range(1 << 16)]
_INDICES = [(i * 40503 + 12345) & 0xFFFF for i in range(2500)]


def kernel() -> int:
    """Fixed interpreter work of the program's kinds: dicts, tuples, lists."""
    counts = {}
    total = 0
    table = _TABLE
    for k, index in enumerate(_INDICES):
        value = table[index]
        key = (value & 255, k & 15)
        counts[key] = counts.get(key, 0) + (value ^ k)
        total += value % 7
    rows = [[j, j + 1, str(j)] for j in range(400)]
    total += sum(len(row[2]) for row in rows)
    return total + len(counts)


def timed_kernel() -> tuple:
    """One kernel call, without garbage collection: (wall s, CPU s)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        cpu = time.process_time()
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started, time.process_time() - cpu
    finally:
        if collecting:
            gc.enable()


def typical(samples: List[float]) -> float:
    """Mean of the middle 80% of ``samples``: it averages over the host's
    states during a campaign but not over one-off preemptions."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


class Sampler:
    """Times the kernel every ``INTERVAL_S`` while the ``with`` body runs.

    Attributes:
        samples: Wall seconds of each kernel call.
        spent_s: Wall seconds spent in kernel calls, to subtract from the
            body's wall time.
        spent_cpu_s: CPU seconds spent in kernel calls.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        wall, cpu = timed_kernel()
        self.samples.append(wall)
        self.spent_s += wall
        self.spent_cpu_s += cpu
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """``REFERENCE_KERNEL_S`` over the typical kernel time.

        A body shorter than a few intervals is topped up with kernel
        calls made now, after it.
        """
        while len(self.samples) < 3:
            self.samples.append(timed_kernel()[0])
        return REFERENCE_KERNEL_S / typical(self.samples)
