"""Machine-speed probe for speed-corrected timings.

On a shared virtual machine the speed of one vCPU drifts by up to 2x within
a minute (measured on a 2-vCPU guest at 2.1 GHz: the same loop took 0.05 s to
0.10 s over 60 s, with user CPU time tracking wall time, so the loss is not
steal time, and the two vCPUs drift independently).  Raw wall times of runs
minutes apart are then not comparable.  The benchmark reads this short fixed
kernel before the first and after every timed operation, and rescales each
operation's wall time to the speed at which the kernel takes `REFERENCE_S`:

    corrected = wall * REFERENCE_S / mean(reading before, reading after)

On ten seeds of each workload this gave interquartile ranges of 3-8% of the
median, against 7-19% raw; one factor per run (the median of all readings)
did about as well on average but worse on the chains workload, whose speed
switched between two levels within a run.

The kernel mixes what qgeom's workloads spend time on: interpreted Python,
small LAPACK calls through numpy, one dense eigensolve, and a memory stream.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.007  # kernel seconds at the reference speed (typical on the machine above)


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.normal(size=(6, 6))
        big = rng.normal(size=(120, 120))
        self.small = small + small.T
        self.big = big + big.T
        self.src = np.ones(1 << 20)  # 8 MB
        self.dst = np.empty_like(self.src)
        # bound now, so spans the traced run installs later never see the probe
        self._eigvalsh = np.linalg.eigvalsh
        self._copyto = np.copyto
        self.kernel()

    def kernel(self):
        t0 = time.perf_counter()
        s = 0
        for i in range(15000):
            s += i * i
        for _ in range(300):
            self._eigvalsh(self.small)
        self._eigvalsh(self.big)
        self._copyto(self.dst, self.src)
        return time.perf_counter() - t0

    def read(self, repeats=3):
        """Kernel seconds now: the median of a few runs."""
        return statistics.median(self.kernel() for _ in range(repeats))
