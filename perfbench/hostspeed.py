"""Host-speed sampling for the benchmark's time metrics.

A shared virtual machine does not run at one speed.  On a 2-vCPU one
(2.1 GHz Xeon, Python 3.11), a fixed piece of interpreter work flips between
two speeds about 1.8x apart, within seconds and with no CPU steal to show for
it, and the share of slow time drifts over minutes.  CPU seconds do not help,
since the CPU itself is slower, and runs of the same work spread by 25% or
more between their quartiles.

So the parent process (``run.py``) pins itself and every child to one CPU
and, while a child runs, times a small fixed kernel (:func:`kernel`, unrelated
to the program) every :data:`INTERVAL_S`.  Each of the child's CPU-second
figures is divided by the mean kernel time over the interval it covers,
relative to :data:`REFERENCE_KERNEL_S`:

    normalized seconds = CPU seconds * REFERENCE_KERNEL_S / mean(kernel times in the interval)

A change to the program moves the normalized figure as it moves the raw one;
a change in the host's speed moves both the CPU seconds and the kernel times
and cancels out (on that machine: 25% spread of raw CPU seconds, 8% of
normalized ones, over 73 identical units of work).  The kernel takes about 2%
of the CPU from the child, which its CPU seconds do not include.  Raw CPU and
wall seconds stay in the run record.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Thread CPU seconds of one :func:`kernel` pass on the reference host.  It only
#: sets the scale of normalized seconds: the machine above takes 1.7 ms on its
#: fast stretches.
REFERENCE_KERNEL_S = 0.0017

#: Seconds between two kernel passes while a child runs.
INTERVAL_S = 0.1


def kernel() -> int:
    """A fixed mix of interpreter work: dict updates, string formatting, heap, sort."""
    table: dict[int, int] = {}
    total = 0
    for i in range(2000):
        table[i % 997] = table.get(i % 997, 0) + i
        total += len(f"{i:x}")
    heap: list[int] = []
    for i in range(2000):
        heapq.heappush(heap, (i * 7919) % 10007)
    while heap:
        total += heapq.heappop(heap) & 1
    values = [((i * 2654435761) % 4093) / 7.0 for i in range(2000)]
    values.sort()
    return total + int(values[-1])


class SpeedSampler:
    """Kernel times, each stamped with the monotonic time it was taken at."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        kernel()  # warm up the interpreter's caches for the kernel's code
        self.sample()

    def sample(self) -> None:
        start = time.thread_time()
        kernel()
        self.samples.append((time.monotonic(), time.thread_time() - start))

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over ``[start, end]`` relative to REFERENCE_KERNEL_S.

        An interval with no sample in it takes the sample nearest to its middle.
        """
        inside = [seconds for at, seconds in self.samples if start <= at <= end]
        if not inside:
            middle = (start + end) / 2.0
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return statistics.fmean(inside) / REFERENCE_KERNEL_S

    def normalized(self, cpu_seconds: float, start: float, end: float) -> float:
        """``cpu_seconds`` spent over ``[start, end]``, rescaled to the reference speed."""
        return cpu_seconds / self.slowdown(start, end)
