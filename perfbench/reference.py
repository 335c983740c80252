"""A fixed reference computation that tracks how fast the machine runs now.

On a shared virtual machine the same work runs up to 1.5x faster or slower
from one minute to the next, and every process slows together. The loop
times this computation beside the workload, in the same process, and the
end-to-end times are reported at the nominal speed:

    calibrated time = measured time * NOMINAL_S / mean reference time

The computation uses only Python and numpy, never teleportsim, so a change
to the program does not move it. Its mix mirrors the program's: interpreter
work plus many tiny complex arrays (copies, finiteness checks, 4x4
``eigvalsh``, ``kron``, matrix products).
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.0075
"""Usual time of ``reference_s()`` on the machine the baseline was taken on (a
2-vCPU Intel Xeon KVM guest, Python 3.11.7, numpy 2.4.6, OpenBLAS, one
thread). Over the 80 runs of the two ten-seed sets in baseline.json the
slowdown factor (mean pass time over NOMINAL_S) had median 1.08 and ranged
from 0.75 to 1.21, so there calibrated times ran about 8% below measured
ones."""

_H = np.arange(16).reshape(4, 4) / 10 + 1j * np.eye(4)
_H = _H + _H.conj().T


def reference_s() -> float:
    """Seconds one pass of the reference computation takes."""
    start = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    for _ in range(150):
        a = np.array(_H, dtype=np.complex128)
        np.all(np.isfinite(a))
        np.linalg.eigvalsh(a)
        np.kron(a[:2, :2], a[2:, 2:]) @ a
    return time.perf_counter() - start
