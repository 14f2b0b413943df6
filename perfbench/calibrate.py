"""A fixed kernel that gauges how fast the machine runs during a run.

On a shared 2-core machine the same operation's time moves by 20-35 % from
one run to the next, in CPU time as much as in wall time, as the load of
other tenants changes.  A run therefore times this kernel between its
operations and scales its times by ``NOMINAL_SLICE_S`` over the kernel's mean
time, which reports them at the reference speed.  The kernel imports nothing
from ``profile_shift``, so a change to the package cannot move it.  Its parts
mirror the package's kinds of work: interpreted Python, many small
numpy/SuperLU calls, and float formatting.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Mean time of one slice on the reference machine (2 cores, numpy 2.4.6,
# scipy 1.17.1, one BLAS thread).
NOMINAL_SLICE_S = 0.30


class Calibration:
    def __init__(self):
        n = 1023
        self._matrix = sp.diags(
            [np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr"
        )
        self._lu = spla.splu((sp.identity(n, format="csc") - 0.01 * self._matrix).tocsc())
        self._values = np.random.default_rng(0).random(12000)
        self.slices: list[float] = []

    def run_slice(self) -> None:
        start = time.perf_counter()
        acc = 0.0
        for v in self._values[:6000]:
            a = np.asarray([[v]])
            acc += float(np.abs(a - a.T).max()) + float(a[0, 0])
        u = np.ones(self._matrix.shape[0])
        for _ in range(5000):
            u = self._lu.solve(u)
            acc += float(np.linalg.norm(self._matrix @ u))
        acc += len(",".join(f"{v:.17g}" for v in self._values))
        self.slices.append(time.perf_counter() - start)
        if not np.isfinite(acc):
            raise ArithmeticError("calibration kernel produced a non-finite value")

    def factor(self) -> float:
        """Nominal over mean slice time: below 1 while the machine runs slow."""
        return NOMINAL_SLICE_S * len(self.slices) / sum(self.slices)
