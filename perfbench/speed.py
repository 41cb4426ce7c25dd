"""CPU time in reference-seconds, so co-tenants do not read as slowdowns.

On a shared host the same Python code can take 1.5 times longer for
tens of seconds at a stretch while another tenant loads the physical
core; CPU time does not exclude that.  The meter runs a fixed integer
loop beside the measured work and scales the work's CPU time by how
fast the loop ran just before it:

    reference-seconds = CPU seconds * (loop rate now / REF_RATE)

Interference slows the loop and the program alike, so the product
holds still; a faster or slower *program* still moves it one for one,
because the loop is not program code.  ``REF_RATE`` fixes the unit: a
reference-second is the time in which the loop runs ``REF_RATE``
iterations (about the loop's rate on an uncontended 2-core x86-64
container, so reference-seconds read close to real CPU seconds there).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque

#: Reference-loop iterations per reference-second.
REF_RATE = 1.0e7


def reference_loop(iterations: int) -> float:
    """CPU seconds taken by ``iterations`` rounds of integer mixing."""
    start = time.process_time()
    x = 0
    for i in range(iterations):
        x ^= (i * 2654435761) & 0xFFFF
    return time.process_time() - start


class SpeedMeter:
    """Samples the reference loop and converts CPU time to reference time.

    ``scale`` uses the median of the last ``window`` samples, so one
    sample hit by a timer interrupt does not skew a whole chunk.
    """

    def __init__(self, iterations: int = 1000, window: int = 15) -> None:
        self.iterations = iterations
        self._recent: Deque[float] = deque(maxlen=window)

    def sample(self) -> None:
        """Run the loop once (call between, never inside, timed regions)."""
        self._recent.append(reference_loop(self.iterations))

    def scale(self) -> float:
        """Reference-seconds per CPU-second at the machine's current speed."""
        ordered = sorted(self._recent)
        cpu = ordered[len(ordered) // 2]
        return self.iterations / max(cpu, 1e-9) / REF_RATE
