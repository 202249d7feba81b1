"""
Host-speed calibration for the timed figures.

On a VM that shares its cores with other tenants, such as the 2-vCPU VM
the benchmark was written on, the same code runs up to 1.6 times slower
or faster for tens of seconds to minutes at a time, and the process's own CPU time swings with it, so neither a
longer run nor a median within a run removes the swing. A fixed
pure-Python chunk, timed between the units of work (before each mission,
after each surfacing cycle), slows down with them. A `Meter` collects
those chunk times; `scale()` turns raw seconds measured next to them into
seconds on a host where one chunk takes REFERENCE_CHUNK_S.

The chunk touches no driftfield code, so a change to driftfield moves
the scaled figures in the same proportion as the raw ones.
"""

import statistics
from time import perf_counter

# About the chunk's time in the fast phases of the 2-vCPU VM the benchmark
# was written on (Python 3.11.7), seconds. It only sets the scale of the
# reported figures, and must stay fixed so that figures stay comparable.
REFERENCE_CHUNK_S = 0.003
CHUNK_ITERATIONS = 40000


def chunk() -> int:
    s = 0
    for i in range(CHUNK_ITERATIONS):
        s += i * i % 7
    return s


class Meter:
    """Times calibration chunks; the time they take is never part of a timed figure."""

    def __init__(self):
        self.times = []

    def tick(self, n: int = 1):
        for _ in range(n):
            start = perf_counter()
            chunk()
            self.times.append(perf_counter() - start)

    def factor(self) -> float:
        """
        Reference chunk time over the median measured chunk time; the
        median, because an interrupt can stretch a single chunk several-fold.
        """
        return REFERENCE_CHUNK_S / statistics.median(self.times)

    def scale(self, seconds: float) -> float:
        return seconds * self.factor()
