"""Reference kernel that measures how fast the host runs at the moment.

On the shared 2-CPU virtual machine where the benchmark was written, the
same fixed work ran up to 2x slower for stretches of seconds to minutes; CPU
time grew as much as wall time, on both CPUs, so the slowdown comes from
outside the guest. The runner and its workers time this kernel between the
phases of each worker, and the runner scales each phase's times by
``REFERENCE_NOMINAL_S`` over the kernel's mean time around that phase. The
kernel is the benchmark's own code, so a change to twotone cannot move it.
"""

from __future__ import annotations

import statistics
import time

# Over 4 minutes of such swings, medians of about 25 s of twotone work
# spread by 31-44% between windows; divided by the median time of this kernel
# timed alongside, by 3-9%. Of the kernels tried (interpreted loops with
# small solves, streaming large arrays, Python objects, this one) it followed
# twotone's slowdowns most closely. The kernel takes about 7 ms when the host
# is fast and 11-13 ms when it is slow.
REFERENCE_NOMINAL_S = 0.008
REFERENCE_REPEATS = 5


def reference_s() -> float:
    """Median time of a fixed kernel of vectorized complex arithmetic.

    It works on 4001-point arrays, as the spectra do; of the kernels tried it
    followed the host's slowdowns of twotone's work most closely.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 4001)
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        for _ in range(60):
            y = np.exp(1j * x) / (1.0 + x * x)
            np.cumsum(np.abs(y) ** 2)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def sample() -> list[float]:
    """One timed reference: ``[perf_counter at its midpoint, kernel seconds]``.

    ``perf_counter`` reads the system-wide monotonic clock, so samples taken
    by different processes share one time axis.
    """
    start = time.perf_counter()
    seconds = reference_s()
    return [(start + time.perf_counter()) / 2.0, seconds]


def scale(samples: list[list[float]], start: float, end: float) -> float:
    """Factor from raw times in ``[start, end]`` to times at the nominal speed.

    It uses the mean of the last sample before the interval and the first
    after it; ``samples`` is sorted by time.
    """
    before = [s for t, s in samples if t <= start] or [samples[0][1]]
    after = [s for t, s in samples if t >= end] or [samples[-1][1]]
    return 2.0 * REFERENCE_NOMINAL_S / (before[-1] + after[0])
