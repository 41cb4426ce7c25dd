"""Metric names, units and kinds: the benchmark's vocabulary.

``BENCHMARK.json`` at the root of the checkout repeats the gated
end-to-end metrics and the per-layer metrics listed here; a test keeps
the two in step.

Per-layer metrics are either *exact* counts, which a seeded simulator
run reproduces bit for bit (two traced runs of one seed must agree on
them), or *timings* and timing-dependent levels, which carry run-to-run
noise.  Units encode the kind (``BENCHMARK.json`` has no other place
for it): exact counts use one of :data:`EXACT_UNITS`; timings use
``us/op``, ``ms``, ``s`` or ``x``, and timing-dependent levels ``level``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen;
    #: ``None`` for metrics reported but not gated.
    bound: Optional[float]
    where: str  # which workloads define it


#: The units of exact per-layer counts.
EXACT_UNITS = ("count/op", "count/write", "B/op", "B/write", "count", "ratio")


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    exact: bool  # an exact count on the simulator workloads
    #: Listed in ``BENCHMARK.json``.  A timing of a layer that some
    #: workload never enters reads exactly 0 on every run of it, a
    #: constant no run measured; such timings are printed in the traced
    #: ledger only.
    listed: bool = True


#: Every end-to-end metric the ledger prints.  The gated ones are
#: defined on every workload; the rest exist only on some workloads
#: (or, like ``error_rate``, are zero on a good run), so they cannot be
#: compared workload by workload and are reported without a bound.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, "all"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1, "all"),
    EndToEnd("throughput_ops_s", "1/s", "higher", 0.25, "all"),
    EndToEnd("throughput_raw_ops_s", "1/s", "higher", None, "all"),
    EndToEnd("metadata_bytes_per_op", "B", "lower", 0.1, "all"),
    EndToEnd("messages_per_op", "count", "lower", 0.1, "all"),
    EndToEnd("error_rate", "ratio", "lower", None, "all"),
    EndToEnd("virtual_lag_p50_s", "s", "lower", None, "sim"),
    EndToEnd("virtual_lag_p99_s", "s", "lower", None, "sim"),
    EndToEnd("write_ack_p50_ms", "ms", "lower", None, "tcp"),
    EndToEnd("write_ack_p99_ms", "ms", "lower", None, "tcp"),
    EndToEnd("read_p50_ms", "ms", "lower", None, "tcp"),
    EndToEnd("read_p99_ms", "ms", "lower", None, "tcp"),
    EndToEnd("replication_lag_p50_ms", "ms", "lower", None, "tcp"),
    EndToEnd("replication_lag_p99_ms", "ms", "lower", None, "tcp"),
    EndToEnd("max_rate_ops_s", "1/s", "higher", None, "tcp"),
]

GATED = [m for m in END_TO_END if m.bound is not None]

LAYERS: List[Layer] = [
    Layer("policy.calls_per_op", "count/op", "lower", True),
    Layer("policy.self_us_per_op", "us/op", "lower", False),
    Layer("policy.ready_true_ratio", "ratio", "higher", True),
    Layer("policy.run_fold_members_per_call", "count", "higher", True),
    Layer("engine.self_us_per_op", "us/op", "lower", False),
    Layer("engine.pending_high_water", "count", "lower", True),
    Layer("engine.apply_wait_mean_s", "s", "lower", False),
    Layer("batching.updates_per_frame", "count", "higher", True),
    Layer("batching.self_us_per_op", "us/op", "lower", False, listed=False),
    Layer("history.calls_per_op", "count/op", "lower", True),
    Layer("history.self_us_per_op", "us/op", "lower", False, listed=False),
    Layer("codec.calls_per_op", "count/op", "lower", True),
    Layer("codec.bytes_per_op", "B/op", "lower", True),
    Layer("codec.self_us_per_op", "us/op", "lower", False),
    Layer("sim.events_per_op", "count/op", "lower", True),
    Layer("sim.self_us_per_op", "us/op", "lower", False, listed=False),
    Layer("network.transmissions_per_op", "count/op", "lower", True),
    Layer("network.retransmits_per_op", "count/op", "lower", True),
    Layer("network.useful_ratio", "ratio", "higher", True),
    Layer("network.unacked_high_water", "count", "lower", True),
    Layer("network.self_us_per_op", "us/op", "lower", False, listed=False),
    Layer("wal.appends_per_write", "count/write", "lower", True),
    Layer("wal.flushes_per_write", "count/write", "lower", True),
    Layer("wal.bytes_per_write", "B/write", "lower", True),
    Layer("wal.self_us_per_op", "us/op", "lower", False, listed=False),
    Layer("framing.frames_per_op", "count/op", "lower", True),
    Layer("framing.bytes_per_op", "B/op", "lower", True),
    Layer("loop.lag_p50_ms", "ms", "lower", False, listed=False),
    Layer("loop.lag_p99_ms", "ms", "lower", False, listed=False),
    Layer("tcp.outbox_high_water", "level", "lower", False),
    Layer("setup.timestamp_graphs_s", "s", "lower", False),
    Layer("setup.prewarm_s", "s", "lower", False, listed=False),
    Layer("checker.s", "s", "lower", False),
    Layer("loadgen.late_p50_ms", "ms", "lower", False, listed=False),
    Layer("loadgen.late_p99_ms", "ms", "lower", False, listed=False),
    Layer("loadgen.backlog_end", "level", "lower", False),
    Layer("trace.overhead_ratio", "x", "lower", False),
]

#: Fields of a simulator run's report that are exact counts: identical
#: repetitions of one seed, and two traced runs of it, must agree on them.
EXACT_RUN_FIELDS = (
    "metadata_bytes", "transmissions", "retransmits", "first_deliveries",
    "unacked_high_water", "pending_high_water", "applied_remote", "events",
)

LISTED = [m for m in LAYERS if m.listed]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END}
UNITS.update({m.name: m.unit for m in LAYERS})
