"""Machine-speed probe, for wall times measured on a shared host.

On a shared 2-vCPU Intel Xeon host, the speed of identical work
drifts by up to 1.75x over tens of seconds, presumably because other
tenants share the physical cores. Medians over a run cannot remove a drift that lasts longer
than the run, so the spread across runs was 0.2 to 0.3 of the median.

The probe is a fixed kernel of numpy and interpreter work that does not use
iprox: a small SVD, short interpreted loops with tiny numpy calls, BLAS-2
and thin BLAS-3 products, a 200x200 SVD, and parsing text lines into a dict
the way the input readers do. It is timed between every two measured
intervals. An interval's wall time is multiplied by the geometric
mean, over the five parts, of NOMINAL_S over the mean of the part's times
in the probes before and after the interval. The result is the interval's
wall time at the reference speed, which is the speed at which the parts
take NOMINAL_S. On a 200 s trace of the oscar workload this cut the spread
of 30 s medians from 0.26 to 0.03. Weighting the small-SVD part alone for
the SVD-bound tracelasso workload made its spread across seeds worse, so
every workload uses the same equal weights. The parsing part was added
because set-up on the linkpred workload is all interpreted text parsing,
which the other parts tracked poorly: on a 15-minute log of alternating
set-ups and probes, it narrowed the range of 30 s medians of the rescaled
linkpred set-up time from 1.20x to 1.14x.
"""
from __future__ import annotations

import math
import time

import numpy as np

# Median time of each part on a 2-vCPU Intel Xeon host at its usual speed,
# with OpenBLAS 0.3.31 pinned to one thread.
NOMINAL_S = (4.71e-3, 0.794e-3, 1.44e-3, 14.5e-3, 1.53e-3)


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((150, 30))
        self._tall = rng.standard_normal((1000, 200))
        self._vec = rng.standard_normal(200)
        self._square = rng.standard_normal((200, 200))
        self._thin = rng.standard_normal((200, 3))
        self._lines = [f"{i % 200} {7 * i % 200} {'+1' if i % 3 else '-1'}" for i in range(2000)]
        self.factors = []  # one per interval, for the report
        self._last = self._measure()

    def _measure(self):
        clock = time.perf_counter
        t0 = clock()
        for _ in range(20):
            np.linalg.svd(self._small, full_matrices=False)
        t1 = clock()
        for _ in range(200):
            acc = 0.0
            for i in range(20):
                acc += i * 0.5
            np.sign(self._vec)
            np.maximum(self._vec, 0.0)
            float(self._vec @ self._vec)
        t2 = clock()
        for _ in range(20):
            self._tall @ self._vec
            self._square @ self._thin
        t3 = clock()
        for _ in range(2):
            np.linalg.svd(self._square)
        t4 = clock()
        seen = {}
        for line in self._lines:
            i, j, sign = line.split()
            seen[int(i), int(j)] = int(sign)
        t5 = clock()
        return (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)

    def factor(self):
        """Probe again; return the rescaling factor of the interval since the last probe."""
        current = self._measure()
        log_sum = sum(
            math.log(nominal / (0.5 * (before + after)))
            for nominal, before, after in zip(NOMINAL_S, self._last, current)
        )
        self._last = current
        f = math.exp(log_sum / len(NOMINAL_S))
        self.factors.append(f)
        return f
