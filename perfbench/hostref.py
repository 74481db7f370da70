"""Host-speed reference kernels.

The benchmark runs on shared virtual machines whose speed drifts with the
load of other tenants: by up to 1.5x from one second to the next, and by up
to 3x (FFT work) within ten minutes.  Process CPU time drifts with it, so the drift is
contention, not descheduling.  During each pass the worker times one fixed
kernel, before a task whenever ``EVERY_S`` has passed since the last sample
and once after the last task.  ``run.py`` scales the pass's times by the
kernel's ``NOMINAL_S`` / the median of its samples.  A change to the package
leaves the kernels untouched, so it moves the scaled times; a change in host
speed moves kernel and package together, and the scaled times move less.

Contention slows small, cache-resident work and large, memory-bound work by
different amounts, so each workload names the kernel that does its kind of
work (``Workload.reference``):

* ``bigint``     -- interpreted big-integer arithmetic;
* ``fft-small``  -- FFTs of 2^15 points, cache-resident;
* ``fft-large``  -- one FFT of 2^20 points (16 MiB).
"""
from __future__ import annotations

import functools
import time

import numpy as np

EVERY_S = 0.5

_MODULUS = (1 << 127) - 1
_FFT, _IFFT = np.fft.fft, np.fft.ifft   # bound before a traced pass wraps numpy.fft


@functools.cache
def _signal(points: int) -> np.ndarray:
    """The kernels' input, made on first use, outside the timed sample."""
    return np.exp(2j * np.pi * 0.1234567 * np.arange(points))


def _bigint() -> None:
    a = 3
    for i in range(80000):
        a = (a * a + i) % _MODULUS


def _fft_small() -> None:
    x = _signal(1 << 15)
    for _ in range(24):
        _IFFT(_FFT(x))


def _fft_large() -> None:
    _FFT(_signal(1 << 20))


KERNELS = {"bigint": _bigint, "fft-small": _fft_small, "fft-large": _fft_large}

# Each kernel's typical median on a 2-core "Intel(R) Xeon(R) Processor" VM (Python
# 3.11.7, numpy 2.4.6): scaled times read as seconds on that VM at that speed.
NOMINAL_S = {"bigint": 0.030, "fft-small": 0.050, "fft-large": 0.060}


def sample(kernel: str) -> float:
    """Seconds taken by one run of the named kernel."""
    _signal(1 << 20 if kernel == "fft-large" else 1 << 15)
    start = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - start
