"""How fast the machine runs at the moment: the benchmark's time correction.

The benchmark shares its cores with other work, and the speed of the same
pure-Python code swings by a factor of up to 2 from one second to the next,
in CPU time as much as in wall time, and drifts by 10 to 30% over minutes.
A run therefore also times a fixed reference loop that does not touch the
package, before and after each step of the workload.  A step's time is scaled
by NOMINAL_S over the mean of the reference times around it, so that the
numbers read as they would on a machine where the reference loop takes
NOMINAL_S.  A change to the package moves the workload's times and not the
reference's, so it still shows in full.
"""

from __future__ import annotations

import statistics
import time

# A typical reference-loop time on a shared 2-core Xeon VM with Python 3.11.
# It only fixes the scale of the corrected numbers; changing it rescales them.
NOMINAL_S = 0.040
REFERENCE_STEPS = 50_000
MASK64 = (1 << 64) - 1


def reference_work(steps: int = REFERENCE_STEPS) -> int:
    """Fixed pure-Python work of the package's kind: 64-bit integer
    arithmetic, bit counts, dict updates and a sort."""
    x = 0x9E3779B97F4A7C15
    seen: dict[int, int] = {}
    acc = 0
    for _ in range(steps):
        x = (x * 6364136223846793005 + 1442695040888963407) & MASK64
        m = x >> 54
        seen[m] = seen.get(m, 0) + 1
        acc += bin(m).count("1")
    return acc + len(sorted(seen.items(), key=lambda kv: kv[1]))


def correction(*reference_times: float) -> float:
    """Factor that takes a time measured between reference timings to the
    nominal machine speed."""
    return NOMINAL_S * len(reference_times) / sum(reference_times)


class SpeedProbe:
    """Reference-loop timings taken between the workload's own steps."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def slowdown(self) -> float:
        """Median reference time over NOMINAL_S; above 1 on a slow machine."""
        return statistics.median(self.samples) / NOMINAL_S
