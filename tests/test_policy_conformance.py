"""Conformance of every registered timestamp policy to the policy layer.

Parametrizes over :func:`repro.core.policy_registry.registered_policies`
so a policy added to the registry is automatically held to the surface
declared by :class:`repro.core.timestamp.TimestampPolicy`: the base
class itself, identification, delta hooks consistent with their plain
counterparts, seq-indexed delivery when ``exact_sender_fifo`` is
claimed, the stabilization hooks when ``stabilizing`` is claimed, and
(for safe policies) a clean end-to-end run through the real engine +
checker.
"""

import pytest

from repro.baselines.legacy import LegacyEdgeIndexedPolicy
from repro.core.policy_registry import policy_entry, registered_policies
from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.core.timestamp import TimestampPolicy
from repro.workloads import (
    clique_placements,
    ring_placements,
    run_workload,
    uniform_writes,
)

ENTRIES = registered_policies()
TAGS = [e.tag for e in ENTRIES]


def _graph_for(entry) -> ShareGraph:
    if entry.requires_full_replication:
        return ShareGraph(clique_placements(4))
    return ShareGraph(ring_placements(6))


def _build(entry):
    graph = _graph_for(entry)
    rid = sorted(graph.replicas, key=str)[0]
    return graph, rid, entry.factory(graph, rid)


@pytest.mark.parametrize("tag", TAGS)
def test_registry_is_consistent(tag):
    entry = policy_entry(tag)
    _, _, policy = _build(entry)
    assert isinstance(policy, TimestampPolicy)
    assert policy.policy_tag == tag
    assert isinstance(policy.stabilizing, bool)
    assert isinstance(policy.exact_sender_fifo, bool)


def test_legacy_oracle_subclasses_the_declared_surface():
    graph = ShareGraph(ring_placements(6))
    assert isinstance(LegacyEdgeIndexedPolicy(graph, 1), TimestampPolicy)


@pytest.mark.parametrize("tag", TAGS)
def test_required_surface(tag):
    entry = policy_entry(tag)
    graph, rid, policy = _build(entry)
    ts0 = policy.initial()
    # Pick a register actually shared with a neighbour: advancing on a
    # private register legitimately moves no channel counters.
    peer = sorted(graph.neighbors(rid), key=str)[0]
    register = sorted(graph.shared(rid, peer), key=str)[0]
    ts1 = policy.advance(ts0, register)
    assert ts1 != ts0, "advance must move the timestamp"
    assert isinstance(policy.counters(), int) and policy.counters() >= 0
    # A fresh peer must accept the first update from this replica and
    # fold it in via merge.
    peer_policy = entry.factory(graph, peer)
    wire = ts1
    if policy.stabilizing:
        wire = policy.update_timestamp(ts1, peer)
    assert peer_policy.ready(peer_policy.initial(), rid, wire)
    merged = peer_policy.merge(peer_policy.initial(), rid, wire)
    assert merged != peer_policy.initial()


@pytest.mark.parametrize("tag", TAGS)
def test_delta_hooks_match_plain_counterparts(tag):
    entry = policy_entry(tag)
    graph, rid, policy = _build(entry)
    peer = sorted(graph.neighbors(rid), key=str)[0]
    register = sorted(graph.shared(rid, peer), key=str)[0]
    ts0 = policy.initial()
    via_delta, keys = policy.advance_delta(ts0, register)
    assert via_delta == policy.advance(ts0, register)
    if keys is not None:
        assert set(keys) <= set(via_delta.index)
    sender = entry.factory(graph, peer)
    sender_ts = sender.update_timestamp(
        sender.advance(sender.initial(), register), rid
    )
    via_delta, keys = policy.merge_delta(ts0, peer, sender_ts)
    assert via_delta == policy.merge(ts0, peer, sender_ts)
    if keys is not None:
        assert set(keys) <= set(via_delta.index)


@pytest.mark.parametrize("tag", TAGS)
def test_seq_indexed_delivery_contract(tag):
    """``exact_sender_fifo`` policies must expose the counters the engine
    indexes sender queues by, numbered 1, 2, ... per channel."""
    entry = policy_entry(tag)
    graph, rid, policy = _build(entry)
    if not policy.exact_sender_fifo:
        pytest.skip("policy does not claim exact sender FIFO")
    peer = next(k for k in graph.neighbors(rid))
    sender = entry.factory(graph, peer)
    register = sorted(
        set(graph.registers_at(peer)) & set(graph.registers_at(rid)), key=str
    )[0]
    ts = sender.initial()
    for expected in (1, 2, 3):
        ts = sender.advance(ts, register)
        wire = ts
        if sender.stabilizing:
            wire = sender.update_timestamp(ts, rid)
        assert policy.sender_seq(peer, wire) == expected
    # The receiver's next expected seq starts at 1 and follows merges.
    mine = policy.initial()
    assert policy.next_seq(mine, peer) == 1


@pytest.mark.parametrize("tag", TAGS)
def test_stabilization_hooks(tag):
    entry = policy_entry(tag)
    graph, rid, policy = _build(entry)
    if not policy.stabilizing:
        for hook in ("own_clock", "merge_clock", "stabilization_clock"):
            assert not hasattr(policy, hook) or tag == "gst"
        return
    peer = next(k for k in graph.neighbors(rid))
    register = sorted(graph.registers_at(rid), key=str)[0]
    ts0 = policy.initial()
    assert policy.own_clock(ts0) == 0
    ts1 = policy.advance(ts0, register)
    clock = policy.own_clock(ts1)
    assert clock > 0
    wire = policy.update_timestamp(ts1, peer)
    assert policy.stabilization_clock(rid, wire) == clock
    # merge_clock is a max fold: merging a smaller clock is a no-op,
    # merging a larger one raises the local clock to it.
    assert policy.own_clock(policy.merge_clock(ts1, 0)) == clock
    assert policy.own_clock(policy.merge_clock(ts1, clock + 7)) == clock + 7
    assert policy.sent_count(ts1, peer) >= 0


@pytest.mark.parametrize("tag", TAGS)
def test_safe_policies_run_clean_end_to_end(tag):
    entry = policy_entry(tag)
    if not entry.safe:
        pytest.skip("ablation policy: unsafe by design")
    placements = (
        clique_placements(4)
        if entry.requires_full_replication
        else ring_placements(6)
    )
    system = DSMSystem(placements, seed=11, policy_factory=entry.factory)
    stream = uniform_writes(system.graph, 80, rate=8.0, seed=5)
    run_workload(system, stream)
    if system.stabilizing:
        system.settle_visibility()
    report = system.check()
    assert report.ok, f"{tag}: {report}"
