"""Machine-speed calibration.

The box is shared: its speed drifts by tens of percent over tens of seconds
as neighbours come and go, and the drift moves every timing of a run
alike. Fixed kernels timed between ops measure the current speed, and a
phase's timings are scaled by the geometric mean, over the kernels, of the
kernel's reference time over its median measured time. That reports them
at the reference speed.

Under the same load, interpreted Python, numpy calls on small matrices
and numpy passes over multi-megabyte arrays slow down by different
amounts, so there is a kernel of each kind and every workload names the
ones that tracked its own timings best.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median kernel seconds on the reference box (Intel Xeon, 2 vCPU) when idle
REFERENCE_S = {"python": 0.0015, "numpy": 0.0017, "memory": 0.0013}

_M = np.array([[2, 1j, 0], [-1j, 3, 1], [0, 1, 1]], dtype=complex)


def _python_kernel() -> int:
    d: dict = {}
    s = 0
    for i in range(8000):
        k = i % 97
        d[k] = d.get(k, 0) + i
        s += len(str(i))
    return s


def _numpy_kernel() -> float:
    s = 0.0
    for i in range(150):
        m = _M @ _M.conj().T + i
        s += float(np.linalg.eigvalsh((m + m.conj().T) / 2).sum())
    return s


def _memory_kernel() -> float:
    a = np.ones(1 << 19)  # 4 MB of fresh pages, three times over
    return float((a * 2 + a).sum())


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel, "memory": _memory_kernel}


def calibrate(kernels) -> dict:
    """{kernel: seconds it takes now, median of 3} for the named kernels."""
    out = {}
    for name in kernels:
        times = []
        for _ in range(3):
            t = perf_counter()
            KERNELS[name]()
            times.append(perf_counter() - t)
        out[name] = statistics.median(times)
    return out


def scale(samples: list) -> float:
    """Factor from raw seconds to seconds at the reference speed, given
    calibrate() samples taken across a phase: the geometric mean over the
    kernels of reference time over median measured time."""
    names = list(samples[0])
    product = 1.0
    for name in names:
        product *= REFERENCE_S[name] / statistics.median(s[name] for s in samples)
    return product ** (1 / len(names))
