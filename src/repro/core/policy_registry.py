"""A registry of every timestamp policy in the tree.

The policy layer's single source of truth: each entry names a policy
tag, how to build it for a ``(graph, replica)`` pair, and the contract
caveats a harness must respect (full replication only, deliberately
unsafe ablation).  The conformance test suite parametrizes over
:func:`registered_policies` so any policy added here is automatically
held to the surface declared by
:class:`repro.core.timestamp.TimestampPolicy`.  :func:`build_policies`
is the one place a system's per-replica policies are built and
prewarmed.

Population is lazy (policies import the registry's dependencies, not
vice versa) so importing :mod:`repro.core` stays cheap and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.core.share_graph import ShareGraph
from repro.core.timestamp import EdgeIndexedPolicy, TimestampPolicy
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.types import Edge, ReplicaId

PolicyFactory = Callable[[ShareGraph, ReplicaId], TimestampPolicy]


@dataclass(frozen=True)
class PolicyEntry:
    """One registered policy and its contract caveats."""

    tag: str
    factory: PolicyFactory
    #: Vector-clock-style policies only make sense when every replica
    #: stores every register.
    requires_full_replication: bool = False
    #: Ablation policies violate causal delivery by design (Theorem 8
    #: necessity experiments); harnesses must not pick them.
    safe: bool = True


_REGISTRY: Dict[str, PolicyEntry] = {}


def register_policy(entry: PolicyEntry) -> None:
    """Idempotently register (or replace) a policy entry."""
    _REGISTRY[entry.tag] = entry


def _populate() -> None:
    if _REGISTRY:
        return
    from repro.baselines.ablations import (
        LaxSenderEdgePolicy,
        NoThirdPartyCheckPolicy,
    )
    from repro.baselines.full_replication import VectorClockPolicy
    from repro.core.timestamp import EdgeIndexedPolicy
    from repro.gst.policy import GstPolicy

    register_policy(
        PolicyEntry("edge", lambda g, r: EdgeIndexedPolicy(g, r))
    )
    register_policy(
        PolicyEntry("gst", lambda g, r: GstPolicy(g, r))
    )
    register_policy(
        PolicyEntry(
            "vc",
            lambda g, r: VectorClockPolicy(g, r),
            requires_full_replication=True,
        )
    )
    register_policy(
        PolicyEntry(
            "no-third-party",
            lambda g, r: NoThirdPartyCheckPolicy(g, r),
            safe=False,
        )
    )
    register_policy(
        PolicyEntry(
            "lax-sender-edge",
            lambda g, r: LaxSenderEdgePolicy(g, r),
            safe=False,
        )
    )


def registered_policies() -> Tuple[PolicyEntry, ...]:
    """Every registered policy, in a deterministic order."""
    _populate()
    return tuple(
        _REGISTRY[tag] for tag in sorted(_REGISTRY)
    )


def policy_entry(tag: str) -> PolicyEntry:
    """Look one policy up by tag (:class:`KeyError` when unknown)."""
    _populate()
    return _REGISTRY[tag]


def build_policies(
    graph: ShareGraph,
    factory: Optional[PolicyFactory] = None,
    vectorized: bool = False,
    edges: Optional[Mapping[ReplicaId, FrozenSet[Edge]]] = None,
    max_loop_len: Optional[int] = None,
) -> Dict[ReplicaId, TimestampPolicy]:
    """Build per-replica policies and prewarm each against its neighbours.

    With a ``factory`` every replica of ``graph`` gets
    ``factory(graph, replica)``.  Otherwise the default edge-indexed
    policy (numpy kernels when ``vectorized``) is built over ``edges`` --
    by default each replica's timestamp graph ``E_i`` from one
    :func:`~repro.core.timestamp_graph.all_timestamp_graphs` pass; a
    caller passing ``edges`` gets policies for exactly those replicas.
    A replica receives frames only from its share-graph neighbours, so
    those are the peers its :meth:`~TimestampPolicy.prewarm` compiles
    plans for (neighbours not built here are skipped).
    """
    policies: Dict[ReplicaId, TimestampPolicy]
    if factory is not None:
        policies = {rid: factory(graph, rid) for rid in graph.replicas}
    else:
        if edges is None:
            edges = {
                rid: tg.edges
                for rid, tg in all_timestamp_graphs(
                    graph, max_loop_len=max_loop_len
                ).items()
            }
        policy_cls = EdgeIndexedPolicy
        if vectorized:
            from repro.optimizations.vectorized import (
                VectorizedEdgeIndexedPolicy,
            )

            policy_cls = VectorizedEdgeIndexedPolicy
        policies = {
            rid: policy_cls(graph, rid, edges=edges[rid]) for rid in edges
        }
    for rid, policy in policies.items():
        policy.prewarm(
            {n: policies[n] for n in graph.neighbors(rid) if n in policies}
        )
    return policies
