"""Fixed reference kernels that read the host's current speed.

On a shared host the same input can take 30% longer from one minute to the
next, while CPU time still equals wall time: the host itself slows down.
The worker reads one of these kernels before the first item and after every
item, and `adjusted` rescales each item's time to the host speed at which
the kernel takes its nominal time.  The kernels never call steinerlab, so a
change to the program moves the items but not the reference.

    python  an integer loop in the interpreter, for workloads whose items
            are interpreter-bound (sampling, exact arithmetic, file I/O)
    blas    a 2000 x 2000 symmetric eigensolve under the pinned BLAS
            threads, for workloads whose items are mostly a large eigensolve
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable

# nominal seconds of one kernel run: about the medians on a 2-vCPU Xeon VM (OpenBLAS, 2 threads)
NOMINAL_S = {"python": 0.015, "blas": 0.62}
SAMPLES = 3  # kernel runs per reading; the reading is their median
PYTHON_LOOP = 160_000
BLAS_SIZE = 2000


def _python_kernel() -> Callable[[], object]:
    def run() -> int:
        total = 0
        for i in range(PYTHON_LOOP):
            total += i * i % 7
        return total

    return run


def _blas_kernel() -> Callable[[], object]:
    import numpy as np

    A = np.random.default_rng(0).standard_normal((BLAS_SIZE, BLAS_SIZE))
    A = A + A.T
    return lambda: np.linalg.eigvalsh(A)


KERNELS = {"python": _python_kernel, "blas": _blas_kernel}


class Reference:
    """One kernel, built once (outside set-up time) and read on demand."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        self._run = KERNELS[kind]()
        self.seconds: list[float] = []  # one reading per measure()

    def measure(self) -> None:
        """Append the median seconds of SAMPLES kernel runs to `seconds`."""
        runs = []
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            self._run()
            runs.append(time.perf_counter() - t0)
        self.seconds.append(median(runs))

    def adjusted(self, durations: list[float]) -> list[float]:
        """Each item's seconds at nominal host speed.

        `seconds[i]` and `seconds[i + 1]` are the readings just before and just
        after item i; their mean is the host's slowdown over that item.
        """
        refs = self.seconds
        return [d * self.nominal_s / ((refs[i] + refs[i + 1]) / 2) for i, d in enumerate(durations)]
