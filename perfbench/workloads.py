"""The three benchmark workloads and how big a run of each is.

Sizes are fixed functions of ``--seconds`` so that a seed and a run
length always give the same inputs, and the same work, on any machine.
They were calibrated so that a run takes roughly ``--seconds`` of CPU
on a 2-core x86-64 container.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class SimWorkload:
    """A simulator workload: identical repetitions of one seeded stream.

    Each repetition builds a fresh system, runs ``writes`` uniform
    writes at ``rate`` per virtual second until the run is quiescent,
    and times the run in chunks of simulator events.  The simulator is
    deterministic, so the repetitions do the same work chunk for chunk.
    """

    name: str
    why: str
    #: ``random_placements`` arguments, or ``None`` for ``ring_placements(12)``.
    dense: Optional[Tuple[int, int, int]]
    rate: float
    writes: int
    repeats_per_second: float
    #: Systems built per repetition; the last one runs.  Each build is
    #: one ``setup_s`` sample.
    setups_per_rep: int = 1
    vectorized: bool = False
    batch_window: float = 0.0
    loss: float = 0.0
    duplication: float = 0.0

    def repeats(self, seconds: int) -> int:
        return max(3, round(seconds * self.repeats_per_second))

    def placements(self):
        from repro.workloads import random_placements, ring_placements

        if self.dense is None:
            return ring_placements(12)
        n, registers, factor = self.dense
        return random_placements(n, registers, factor, seed=11)


@dataclass(frozen=True)
class TcpWorkload:
    """The open-loop TCP workload over one host process of replicas."""

    name: str
    why: str
    rate: float = 600.0
    read_share: float = 0.3
    #: Offered rates of the saturation ladder, run after the nominal window.
    ladder: Tuple[float, ...] = (600.0, 900.0, 1200.0, 1500.0, 1800.0)
    #: Long enough for 1,000 writes at the lowest rate: p99 needs them.
    ladder_step_s: float = 3.0
    #: ``max_rate_ops_s`` is the highest ladder rate that, with every
    #: lower one, keeps write-ack p99 under this and no growing backlog.
    ack_limit_ms: float = 25.0
    #: Set-ups of each cluster (nominal and ladder); ``setup_s`` is the
    #: mean of both clusters' set-ups.  One set-up is bimodal: a link
    #: whose first connect races its peer's listen and loses waits a
    #: further reconnect backoff, so the median of a run jumps between
    #: the modes while the mean follows their mix.
    setups: int = 15

    def placements(self):
        from repro.workloads import random_placements

        return random_placements(8, 24, 3, seed=11)


DENSE = SimWorkload(
    name="dense-batched",
    why=(
        "policy kernels, the engine's wake-set drain, batching and history "
        "recording do most of the work; simulator dispatch little; dense "
        "loop enumeration makes set-up non-trivial"
    ),
    dense=(24, 80, 10),
    rate=150.0,
    writes=8000,
    repeats_per_second=0.3,
    setups_per_rep=4,
    vectorized=True,
    batch_window=4.0,
)

RING = SimWorkload(
    name="ring-lossy",
    why=(
        "the only workload with faults: the reliable-delivery ARQ, simulator "
        "dispatch and history recording dominate; the policy is a small share"
    ),
    dense=None,
    rate=50.0,
    writes=16000,
    repeats_per_second=0.5,
    setups_per_rep=5,
    loss=0.05,
    duplication=0.04,
)

TCP = TcpWorkload(
    name="tcp-open",
    why=(
        "codec, framing, the write-ahead log and the event loop do the work "
        "under open-loop client load; no history is recorded"
    ),
)

WORKLOADS = {w.name: w for w in (DENSE, RING, TCP)}
