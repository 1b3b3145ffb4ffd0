"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of the CPU available to one process drifts
by up to 2x within minutes, which swamps any change a later commit could
make.  Every timed call is therefore bracketed by a fixed calibration
kernel, a mix of interpreter work, small and large transforms like the
workloads', and reported in nominal seconds:

    nominal = measured * CAL_REF_S / mean(kernel time before, kernel time after)

i.e. the time the call would take on a machine where the kernel takes
CAL_REF_S seconds.  The kernel calls numpy only, never fpme, so no change
to fpme moves it.  The raw seconds are printed beside the nominal ones.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on a 2-vCPU Intel Xeon machine (numpy 2.4.6, Python 3.11.7).
# A fixed constant: changing it rescales every nominal time.
CAL_REF_S = 0.2

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((64, 64))
_LARGE = _rng.standard_normal((64, 64, 64))


def calibration_s() -> float:
    """Wall seconds of one run of the fixed calibration kernel."""
    t = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i
    for _ in range(500):
        np.fft.ifftn(np.fft.fftn(_SMALL))
    for _ in range(4):
        np.fft.ifftn(np.fft.fftn(_LARGE))
    return time.perf_counter() - t


class NominalTimer:
    """Times calls; each call is followed by a kernel run, and the kernel
    runs on either side of a call convert it to nominal seconds."""

    def __init__(self):
        self.kernels = [calibration_s()]

    def __call__(self, fn):
        """Returns (fn's result, raw seconds, nominal seconds)."""
        t = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t
        self.kernels.append(calibration_s())
        return out, raw, raw * CAL_REF_S / (0.5 * (self.kernels[-2] + self.kernels[-1]))
