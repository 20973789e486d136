"""Host-speed gauge: a fixed reference kernel timed between ops.

The shared 2-core host this benchmark was built on changes speed by up to
2x in phases lasting seconds (other tenants' load), and process CPU time
moves with wall time, so neither can be trusted raw. The gauge times a fixed
kernel that does the same kinds of work as the package (building bit
tuples, hashing them into a dict, small int8 numpy arrays) but none of the
package's code, every ``INTERVAL_S`` of run time. Each op's latency is then
scaled by ``NOMINAL_S`` over the mean of the kernel times taken just before
and next after it: "milliseconds at reference speed". Pairing each op with
its nearest samples tracked the host better than medians over wider windows. A change to gasched
moves the op time but not the kernel, so the calibrated figure moves with
it.
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL_S = 0.1
# The kernel's time on the fast phase of the host the benchmark was tuned on
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4); it only fixes the scale.
NOMINAL_S = 0.005


def kernel() -> int:
    table: dict[tuple[int, ...], int] = {}
    for i in range(800):
        table[tuple((i >> b) & 1 for b in range(64))] = i
    body = np.zeros((64, 16), dtype=np.int8)
    total = 0
    for i in range(300):
        copy = body.copy()
        copy[i % 64, i % 16] = 1
        total += sum(int(x) for x in copy.sum(axis=0))
    return len(table) + total


class Gauge:
    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")
        kernel()  # first call allocates; keep it out of the samples

    def sample(self) -> None:
        started = time.perf_counter()
        kernel()
        now = time.perf_counter()
        self.samples.append(now - started)
        self._last = now

    def tick(self) -> int:
        """Sample if ``INTERVAL_S`` has passed since the last sample; returns
        the index of the latest sample, which the next op is paired with."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor that converts a latency measured after sample ``index`` to
        reference speed."""
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return NOMINAL_S / ((self.samples[index] + after) / 2)
