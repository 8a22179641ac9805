"""A fixed reference kernel, timed around every op to gauge the machine's speed.

On a shared host the speed of a core drifts by tens of percent over seconds
to minutes, as other tenants come and go, and an op's wall time drifts with
it. The kernel mixes what foatools spends its time on: interpreter work,
small numpy calls on 1,024 values and sums streamed over arrays larger than
the caches in one thread, then 4x4 moments of 0.2 s windows, sorts of 2,048
cells and float32 widening in two threads at once, as the ``--jobs 2``
workloads run. It uses no foatools code, so a change to
foatools cannot change its time. ``run.py`` times it before every op and
after the last, and scales each op by the mean of the two probes around it.
"""

from __future__ import annotations

import threading
import time

import numpy as np

# About the kernel's median time on the machine the benchmark was written on
# (2 vCPUs, Python 3.11, numpy 2.4, OpenBLAS 0.3.31). A timing "at reference
# speed" is what the op would take where the kernel takes this long.
REFERENCE_MS = 40.0

_RNG = np.random.default_rng(0)
_VALUES = _RNG.random(1024)
_WINDOW = _RNG.random((4, 8820))
_CELLS = _RNG.random(2048)
_SAMPLES = _RNG.random(262144).astype(np.float32)
_STREAM = _RNG.random((2, 1 << 20))  # 16 MB


def _interpreter_part() -> None:
    table = {}
    for i in range(40000):
        table[i & 1023] = i * 3 + (i >> 2)
    for _ in range(300):
        cumulative = np.cumsum(np.sort(_VALUES))
        int(np.searchsorted(cumulative, cumulative[-1] * 0.9))
    for _ in range(3):
        np.add(_STREAM[0], _STREAM[1])


def _array_part() -> None:
    for _ in range(30):
        _WINDOW @ _WINDOW.T
        np.sort(_CELLS)
        _SAMPLES.astype(np.float64)


def probe() -> int:
    """Wall time of one run of the kernel, in ns."""
    threads = [threading.Thread(target=_array_part) for _ in range(2)]
    start = time.perf_counter_ns()
    _interpreter_part()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter_ns() - start


def at_reference_speed(walls, probes) -> list:
    """Each wall time scaled to reference speed by the probes around it.

    ``probes`` holds one probe before each wall time and one after the last.
    """
    if len(probes) != len(walls) + 1:
        raise ValueError(f"{len(walls)} wall times need {len(walls) + 1} probes, got {len(probes)}")
    reference_ns = REFERENCE_MS * 1e6
    around = [(before + after) / 2 for before, after in zip(probes, probes[1:])]
    return [wall * reference_ns / probe for wall, probe in zip(walls, around)]
