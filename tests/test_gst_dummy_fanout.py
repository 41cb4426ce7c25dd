"""GST fan-out to a dummy-register holder (Appendix D under GST).

A stabilizing policy gives every recipient its own compact wire
timestamp, so the engine's fan-out must build a fresh update per channel
-- including the metadata-only updates a dummy holder receives -- rather
than share one object across recipients as it does for the edge-indexed
policy.  The counts below pin that path end to end: who receives
metadata-only updates, how many counters they carry, how many
stabilization rounds the visibility cut needs, and the checker's verdict.
"""

from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.gst.policy import GstPolicy
from repro.optimizations.dummy import add_dummy_registers
from repro.types import Update
from repro.workloads import ring_placements, uniform_writes


def test_gst_fan_out_sends_compact_metadata_only_updates_to_dummy_holder():
    graph = ShareGraph(ring_placements(6))
    augmented, dummy_map = add_dummy_registers(graph, {1: {"p2"}})
    system = DSMSystem(
        augmented, seed=3, policy_factory=GstPolicy, dummy_registers=dummy_map
    )
    sends = []
    send = system.network.send

    def spy(src, dst, message, metadata_counters=0, wire_bytes=0):
        sends.append((src, dst, message, metadata_counters))
        return send(src, dst, message, metadata_counters, wire_bytes)

    system.network.send = spy
    for op in uniform_writes(graph, 200, rate=5.0, seed=4):
        system.schedule_write(op.time, op.replica, op.register, op.value)
    system.run()

    meta = [
        (src, dst, message, counters)
        for src, dst, message, counters in sends
        if isinstance(message, Update) and message.metadata_only
    ]
    assert len(meta) == 9
    for src, dst, message, counters in meta:
        assert (src, dst) == (2, 1)
        assert message.register == "p2" and message.value is None
        # The per-channel GST wire timestamp: issuer clock + channel seq.
        assert len(message.timestamp) == 2 and counters == 2
    assert system.settle_visibility() == 6
    assert system.check(visibility=True).ok
