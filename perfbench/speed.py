"""Rescaling measured times to a fixed reference speed.

On a shared virtual machine the CPU's speed drifts with other tenants' load;
swings of 30-60 % that last seconds were seen on a 2-vCPU VM, enough to
swamp the effect of most code changes.  The benchmark therefore brackets
every timed interval with probes of a fixed piece of stdlib work that does
not touch fuzzygames, and rescales each interval by REFERENCE_S over the
probe time around it: the result is how long the interval would have taken
on a machine where one probe takes REFERENCE_S.  Raw times are reported
beside the rescaled ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.002  # nominal probe time: rescaled times read as if a probe took this long


def reference_work():
    """Fraction arithmetic, comparisons and dict stores, like the ops do."""
    acc = Fraction(0)
    seen = {}
    for i in range(250):
        a = Fraction(i % 5, 4)
        b = Fraction(i % 3, 4)
        acc = max(acc, a * b + (a if a < b else b))
        seen[(i % 17, a)] = acc
    return acc, len(seen)


class Speedometer:
    """Probe times taken between consecutive timed intervals.

    Call probe() once before the first interval and once after each one;
    interval k then lies between probes k and k + 1.
    """

    def __init__(self):
        reference_work()  # warm up before the first probe counts
        self.probes = []
        self.probe()

    def probe(self) -> None:
        start = perf_counter()
        reference_work()
        self.probes.append(perf_counter() - start)

    def factor(self, k: int) -> float:
        """Scale for interval k, from the median of the six probes around it."""
        return REFERENCE_S / statistics.median(self.probes[max(0, k - 2) : k + 4])

    def rescale(self, times) -> list:
        return [t * self.factor(k) for k, t in enumerate(times)]
