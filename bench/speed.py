"""Machine-speed reference for the end-to-end timings.

On a shared host the speed of each CPU drifts. On the 2-vCPU host where this
benchmark was defined it moved by about ±20 % over seconds, independently on
each vCPU. The medians of separate 30 s runs then spread by 7-35 %
(interquartile range over median, ten seeds per workload), wider than the
widest bound a regression check can use.

So every timed interval is bracketed by a fixed reference job that uses no
pdnx code: one sparse LU solve of a 96 × 96 lattice plus a Python node loop,
the same mix of work pdnx does. The interval is rescaled by the job's
nominal over its measured time. On that host this brought the spread of run
medians down to 1-5 %. The rescaled figure is "seconds on a machine where
the reference job takes NOMINAL_S"; the raw seconds are kept beside it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

NOMINAL_S = 0.05
LATTICE = 96
LOOP_NODES = 10_000


class SpeedReference:
    def __init__(self):
        n = LATTICE
        path = sp.diags([-np.ones(n - 1), -np.ones(n - 1)], [-1, 1])
        eye = sp.identity(n)
        # A grounded 2-D lattice Laplacian: symmetric positive definite.
        self._matrix = (sp.kron(eye, path) + sp.kron(path, eye)
                        + sp.identity(n * n) * 4.0001).tocsc()
        self._rhs = np.ones(n * n)
        self.samples: list[float] = []
        self._last = self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        spla.spsolve(self._matrix, self._rhs)
        weights: dict[int, float] = {}
        for idx in range(LOOP_NODES):
            j, i = divmod(idx, 100)
            x, y = i * 0.5 - 25.0, j * 0.5 - 25.0
            if abs(x) > 20.0 or idx in weights:
                continue
            weights[idx] = 1.0 + 2.0 * max(0.0, 1.0 - (x * x + y * y) / 800.0)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Scale from raw to nominal seconds for the interval that just ended.

        Call right after the interval: it times the reference job once more,
        and the mean of that and the previous timing (taken before the
        interval) gives the machine's speed during it."""
        before, self._last = self._last, self.measure()
        return NOMINAL_S / (0.5 * (before + self._last))
