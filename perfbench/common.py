"""Shared helpers: locating the program, percentiles, child-process I/O.

The benchmark runs from the root of a source checkout and imports the
program under test from ``src/``; nothing is installed.  Every helper
here is pure or touches only the checkout.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Working space for WALs; inside the checkout and ignored by git.
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

#: Percentiles tried, lowest first, by :func:`tail_percentile`.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def require_program() -> None:
    """Put ``src/`` on the import path, or exit 2 when it is missing.

    Run from a directory that holds only the benchmark, the import of
    ``repro`` would fail half-way through a run; failing here, before
    anything is printed on stdout, keeps a result line from appearing.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: program source not found at {SRC}/repro; run "
            "from the root of a source checkout\n"
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 6)))
    return ordered[rank - 1]


def supported(n: int, p: float) -> bool:
    """True when at least :data:`MIN_BEYOND` of ``n`` samples lie beyond
    the ``p``-th percentile."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile of :data:`TAIL_LADDER` with at least ten
    samples beyond it, as ``(p, value)``; ``None`` below 20 samples."""
    best: Optional[Tuple[float, float]] = None
    for p in TAIL_LADDER:
        if supported(len(samples), p):
            best = (p, percentile(samples, p))
    return best


class Dist:
    """A sample whose percentiles are read under the ten-beyond rule.

    :meth:`at` returns ``None`` for a percentile the sample does not
    support, so a short run never prints a tail it did not measure.
    """

    def __init__(self, samples: Sequence[float]) -> None:
        self.samples: List[float] = list(samples)

    @property
    def n(self) -> int:
        return len(self.samples)

    def at(self, p: float) -> Optional[float]:
        if not supported(self.n, p):
            return None
        return percentile(self.samples, p)


def last_json_line(text: str) -> dict:
    """Parse the last non-empty line of a child's stdout as JSON."""
    for line in reversed(text.splitlines()):
        if line.strip():
            return json.loads(line)
    raise ValueError("child printed no result line")
