"""Definition 2 checker: safety and liveness of replica-centric causality.

* **Safety**: when replica *i* applies ``u1`` (a register of ``X_i``),
  every update ``u2`` on any register of ``X_i`` with ``u2 -> u1`` must
  already have been applied at *i*.
* **Liveness**: every issued update on register ``x`` is eventually applied
  at every replica storing ``x`` (checked at quiescence).

The replay maintains, per replica, a bitmask of *strictly applied* updates
(not the causal closure the History keeps for past queries) and checks each
apply event against the causal-past mask of the applied update, restricted
to updates relevant to the replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.causality import History
from repro.core.share_graph import ShareGraph
from repro.errors import ConsistencyViolation
from repro.types import ReplicaId, UpdateId


@dataclass(frozen=True)
class SafetyViolation:
    """Replica applied ``applied`` while a causal dependency was missing."""

    replica: ReplicaId
    applied: UpdateId
    missing: UpdateId
    time: float

    def __str__(self) -> str:
        return (
            f"SAFETY at replica {self.replica!r} t={self.time:.3f}: applied "
            f"{self.applied} before its dependency {self.missing}"
        )


@dataclass(frozen=True)
class SessionViolation:
    """A client reached a replica missing part of its session causal past.

    Client-server safety (Definition 26, second clause): when a client
    accesses replica *i*, every update on a register of ``X_i`` in the
    client's causal past must already be applied at *i*.
    """

    client: object
    replica: ReplicaId
    missing: UpdateId
    time: float

    def __str__(self) -> str:
        return (
            f"SESSION at replica {self.replica!r} t={self.time:.3f}: client "
            f"{self.client!r} arrived before its dependency {self.missing}"
        )


@dataclass(frozen=True)
class LivenessViolation:
    """An update never reached a replica that stores its register."""

    replica: ReplicaId
    update: UpdateId

    def __str__(self) -> str:
        return (
            f"LIVENESS: {self.update} was never applied at replica "
            f"{self.replica!r}"
        )


@dataclass
class CheckResult:
    """Outcome of one verification pass."""

    safety: List[SafetyViolation] = field(default_factory=list)
    liveness: List[LivenessViolation] = field(default_factory=list)
    session: List[SessionViolation] = field(default_factory=list)
    updates_checked: int = 0
    applies_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.safety and not self.liveness and not self.session

    @property
    def violations(self) -> List[object]:
        return [*self.safety, *self.session, *self.liveness]

    def raise_on_violation(self) -> None:
        """Raise :class:`ConsistencyViolation` unless the result is clean."""
        if not self.ok:
            raise ConsistencyViolation(self.violations)

    def __str__(self) -> str:
        if self.ok:
            return (
                f"OK ({self.updates_checked} updates, "
                f"{self.applies_checked} applies checked)"
            )
        lines = [
            f"{len(self.safety)} safety / {len(self.session)} session / "
            f"{len(self.liveness)} liveness violations:"
        ]
        lines += [f"  {v}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def check_history(
    history: History,
    graph: ShareGraph,
    require_liveness: bool = True,
    max_violations: int = 1000,
    epoch_graphs: Optional[List[Tuple[int, ShareGraph]]] = None,
    visibility: bool = False,
) -> CheckResult:
    """Verify Definition 2 over a finished (or mid-flight) history.

    Parameters
    ----------
    history:
        The issue/apply log recorded by the system.
    graph:
        The share graph the run executed against.  For dummy-register runs
        pass the *augmented* graph -- metadata applies are real applies for
        the happened-before relation.
    require_liveness:
        Liveness only holds at quiescence; disable mid-run.
    visibility:
        Check runs under a *stabilizing* policy (GST).  Such policies
        apply in per-channel FIFO order -- which legitimately violates
        Definition 2 at apply events -- and restore causal safety at the
        visibility cut.  With ``visibility=True`` safety is verified at
        ``"visible"`` events against per-replica *visible* masks (apply
        and issue events still feed the session-closure bookkeeping but
        are not themselves judged), and liveness requires every update to
        become visible (not merely applied) at every storing replica.
    max_violations:
        Stop collecting after this many findings (the run is already
        broken; keep reports readable).
    epoch_graphs:
        For dynamically reconfigured runs: ``(first_event_position,
        share graph)`` pairs in epoch order.  Safety relevance is then
        evaluated against the graph in force when each event happened
        (an update on a register a replica did not store *yet* is not a
        missing dependency); liveness is still judged against ``graph``
        (the final placement), with state transfers logged as applies.
    """
    result = CheckResult()

    # One pass over the log builds a per-register update mask; each epoch's
    # per-replica relevance is then an OR over the registers the replica
    # stores, and replicas whose placement did not change across an epoch
    # boundary reuse the previous epoch's mask outright.  (The naive form
    # re-walked every update for every epoch graph.)
    register_masks: Dict[object, int] = {}
    for uid in history.all_updates():
        record = history.updates[uid]
        register_masks[record.register] = (
            register_masks.get(record.register, 0) | history.bit_of(uid)
        )
    prev_registers: Dict[ReplicaId, object] = {}
    prev_masks: Dict[ReplicaId, int] = {}

    def relevance_for(g: ShareGraph) -> Dict[ReplicaId, int]:
        masks: Dict[ReplicaId, int] = {}
        for r in g.replicas:
            registers = g.registers_at(r)
            if prev_registers.get(r) == registers:
                masks[r] = prev_masks[r]
                continue
            mask = 0
            for x in registers:
                mask |= register_masks.get(x, 0)
            masks[r] = mask
            prev_registers[r] = registers
            prev_masks[r] = mask
        return masks

    relevant = relevance_for(graph)
    boundaries: List[Tuple[int, Dict[ReplicaId, int]]] = []
    if epoch_graphs:
        boundaries = [
            (pos, relevance_for(g))
            for pos, g in sorted(epoch_graphs, key=lambda pg: pg[0])
        ]
    result.updates_checked = len(history.all_updates())

    applied: Dict[ReplicaId, int] = {r: 0 for r in graph.replicas}
    closure: Dict[ReplicaId, int] = {r: 0 for r in graph.replicas}
    visible: Dict[ReplicaId, int] = {r: 0 for r in graph.replicas}
    visible_closure: Dict[ReplicaId, int] = {r: 0 for r in graph.replicas}
    client_mask: Dict[object, int] = {}
    next_boundary = 0
    for event in history.events:
        while (
            next_boundary < len(boundaries)
            and event.position >= boundaries[next_boundary][0]
        ):
            relevant = boundaries[next_boundary][1]
            next_boundary += 1
        rep = event.replica
        if event.kind == "visible":
            # Only meaningful under a stabilizing policy; a non-visibility
            # check over a history that happens to carry visible events
            # (mixed-policy runs) ignores them -- applies already passed.
            if not visibility:
                continue
            uid = event.uid
            down = history.closure_mask_of(uid)
            # ``down`` holds uid's own bit; it is in ``now_visible``, so
            # only its causal past can be reported missing.
            now_visible = visible.get(rep, 0) | history.bit_of(uid)
            missing_mask = down & relevant.get(rep, 0) & ~now_visible
            if missing_mask and len(result.safety) < max_violations:
                for missing_uid in _mask_updates(history, missing_mask):
                    result.safety.append(
                        SafetyViolation(rep, uid, missing_uid, event.time)
                    )
                    if len(result.safety) >= max_violations:
                        break
            visible[rep] = now_visible
            visible_closure[rep] = visible_closure.get(rep, 0) | down
            result.applies_checked += 1
            continue
        if event.kind == "access":
            # Client-server session safety: the client's causal past,
            # restricted to registers of X_rep, must be applied at rep.
            # An event with a serve-time token (lossy channels: the access
            # is logged when the client accepts the travelled response) is
            # judged against the replica state that produced the response,
            # not the replica's state at acceptance time.
            # Under a stabilizing policy reads serve the *visible* store,
            # so session guarantees are judged (and the client's past
            # grown) against the visible state.  Serve-time tokens still
            # snapshot applied state -- lossy-channel client-server runs
            # use non-stabilizing policies.
            mask = client_mask.get(event.client, 0)
            if event.token is not None:
                applied_at_serve = event.token.applied
                growth = event.token.closure
            elif visibility:
                applied_at_serve = visible.get(rep, 0)
                growth = visible_closure.get(rep, 0)
            else:
                applied_at_serve = applied.get(rep, 0)
                growth = closure.get(rep, 0)
            missing_mask = mask & relevant.get(rep, 0) & ~applied_at_serve
            if missing_mask and len(result.session) < max_violations:
                for missing_uid in _mask_updates(history, missing_mask):
                    result.session.append(
                        SessionViolation(
                            event.client, rep, missing_uid, event.time
                        )
                    )
                    if len(result.session) >= max_violations:
                        break
            client_mask[event.client] = mask | growth
            continue
        uid = event.uid
        down = history.closure_mask_of(uid)
        now_applied = applied.get(rep, 0) | history.bit_of(uid)
        if not visibility:
            missing_mask = down & relevant.get(rep, 0) & ~now_applied
            if missing_mask and len(result.safety) < max_violations:
                for missing_uid in _mask_updates(history, missing_mask):
                    result.safety.append(
                        SafetyViolation(rep, uid, missing_uid, event.time)
                    )
                    if len(result.safety) >= max_violations:
                        break
            result.applies_checked += 1
        applied[rep] = now_applied
        closure[rep] = closure.get(rep, 0) | down

    if require_liveness:
        for uid in history.all_updates():
            record = history.updates[uid]
            expected = graph.replicas_storing(record.register)
            reached = (
                history.visible_at(uid) if visibility else history.applied_at(uid)
            )
            for r in sorted(
                expected - reached, key=lambda v: (str(type(v)), repr(v))
            ):
                if len(result.liveness) >= max_violations:
                    break
                result.liveness.append(LivenessViolation(r, uid))
    return result


def relevant_update_mask(
    history: History, graph: ShareGraph, replica: ReplicaId
) -> int:
    """Bitmask of all issued updates on registers ``replica`` stores."""
    mask = 0
    registers = graph.registers_at(replica)
    for uid in history.all_updates():
        if history.updates[uid].register in registers:
            mask |= history.bit_of(uid)
    return mask


def frontier_closure_violations(
    history: History,
    graph: ShareGraph,
    replica: ReplicaId,
    install_mask: int,
    max_violations: int = 20,
) -> List[Tuple[UpdateId, UpdateId]]:
    """Audit a proposed snapshot install set before it is spliced in.

    The anti-entropy layer may only install a set ``S`` of updates at
    ``replica`` if ``S`` together with what the replica already applied is
    *causally closed over the replica's registers*: for every ``u in S``,
    every ``u2 -> u`` on a register of ``X_replica`` is applied or in
    ``S``.  Otherwise recording the installs would fabricate the exact
    safety violation the checker exists to catch.  Returns ``(installed,
    missing-dependency)`` pairs; empty means the splice is safe.

    This is defence in depth: :func:`repro.sync.snapshot.install_mask`
    constructs ``S`` as an intersection with the donor's (transitively
    closed) causal past, which is provably closed -- the sync manager
    still runs this audit on every transfer so a future regression fails
    loudly at the source rather than as a checker verdict much later.
    """
    token = history.access_token(replica)
    relevant = relevant_update_mask(history, graph, replica)
    covered = token.applied | install_mask
    out: List[Tuple[UpdateId, UpdateId]] = []
    for uid in history.all_updates():
        if not history.bit_of(uid) & install_mask:
            continue
        missing = history.past_mask_of(uid) & relevant & ~covered
        if missing:
            for missing_uid in _mask_updates(history, missing):
                out.append((uid, missing_uid))
                if len(out) >= max_violations:
                    return out
    return out


def _mask_updates(history: History, mask: int) -> List[UpdateId]:
    order = history.all_updates()
    out: List[UpdateId] = []
    index = 0
    while mask:
        if mask & 1:
            out.append(order[index])
        mask >>= 1
        index += 1
    return out
