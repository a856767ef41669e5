"""Host speed gauge: scales request times to a reference speed.

On a small shared virtual machine the same Python code runs up to 1.6 times
slower for stretches of seconds to minutes, in CPU time as much as in wall
time. A fixed pure-Python kernel timed just before and just after a request
slows down with it, so the request time multiplied by NOMINAL_NS over the
mean of those two kernel times is the request time on a host where the
kernel takes NOMINAL_NS.
"""
from __future__ import annotations

from time import perf_counter_ns

NOMINAL_NS = 1_000_000  # the reference speed: the kernel takes 1 ms


def reference_kernel() -> float:
    """Fixed interpreter work: float arithmetic, a list and a dict."""
    values = [float(i) for i in range(6000)]
    table = {}
    total = 0.0
    for i, x in enumerate(values):
        table[i & 255] = x
        total += x * 0.5 + table[i & 255]
    return total


class SpeedGauge:
    def __init__(self):
        self.samples: list[int] = []

    def sample(self) -> None:
        """Time the kernel once; call before and after each timed request."""
        start = perf_counter_ns()
        reference_kernel()
        self.samples.append(perf_counter_ns() - start)

    def scale(self) -> float:
        """Factor taking the time between the last two samples to the
        reference speed."""
        return 2 * NOMINAL_NS / (self.samples[-1] + self.samples[-2])
