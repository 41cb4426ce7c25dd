"""Happened-before tracking (Definition 1) and causal pasts (Definition 6).

:class:`History` is an append-only log of *issue* and *apply* events.  It is
maintained by the system wiring, **outside** the replicas, so the
consistency checker never trusts protocol metadata: happened-before is
recomputed from the definition alone.

Definition 1: ``u1 -> u2`` iff u1 was applied at some replica before that
same replica issued u2, closed transitively.  Because issuing an update
also applies it at the issuer (Section 2.1, step 2), the causal past of an
update is exactly the set of updates applied at its issuer at issue time.
The log therefore maintains, per replica, a running bitmask of applied
updates; an update's causal past is the issuer's mask snapshotted at issue
time.  Bitmasks (arbitrary-precision ints) make transitive queries O(1)
after O(total applies) maintenance.

Layout: each update gets a dense index in issue order when it is issued,
and bit ``1 << index`` stands for it in every mask.  One
``UpdateId -> index`` map holds the indexes, and the per-update state
lives in lists indexed by them, so recording an apply hashes the update
id once.  Each update stores a single mask, ``past | bit`` (the update
together with its causal past), which is exactly what applying it adds
to a replica's closure; ``bit_of`` and ``past_mask_of`` are derived from
the index and that mask.  Events and update records are named tuples:
immutable, and cheap to build at record time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.errors import ProtocolError
from repro.types import RegisterName, ReplicaId, UpdateId


class UpdateRecord(NamedTuple):
    """Static facts about one update, fixed at issue time."""

    uid: UpdateId
    register: RegisterName
    issue_time: float
    metadata_only: bool = False


@dataclass(frozen=True)
class AccessToken:
    """Snapshot of a replica's state at the moment it served a client.

    Under unreliable channels a response may reach its client long after
    it was produced (retries, duplicates) -- or never.  The serving
    replica snapshots a token and the access is recorded only when the
    client *accepts* the response, against the serve-time state: the
    client's causal past grows by exactly what the response's timestamp
    conveyed, no more.

    ``applied`` is the bitmask of updates applied at the replica;
    ``closure`` additionally includes their causal pasts.
    """

    applied: int
    closure: int


class HistoryEvent(NamedTuple):
    """One issue/apply/access occurrence, in global log order.

    ``access`` events (client-server architecture, Definition 25) carry a
    ``client`` and no ``uid``: they mark a client's read/write completing
    at a replica, which propagates that replica's causal past to the
    client.  When the completion is recorded later than the serve (lossy
    channels: the client accepts a possibly-retransmitted response), the
    event carries the serve-time :class:`AccessToken` so the checker
    judges the access against the state that actually produced it.
    """

    kind: str  # "issue" | "apply" | "visible" | "access"
    replica: ReplicaId
    uid: Optional[UpdateId]
    time: float
    position: int  # global sequence number in record order
    client: Optional[object] = None
    token: Optional[AccessToken] = None


class History:
    """Append-only issue/apply log with happened-before queries."""

    def __init__(self) -> None:
        self.events: List[HistoryEvent] = []
        self.updates: Dict[UpdateId, UpdateRecord] = {}
        self._index: Dict[UpdateId, int] = {}
        self._uid_order: List[UpdateId] = []
        # Indexed by update index: past | bit, and the replicas applied at.
        self._mask: List[int] = []
        self._applied_at: List[Set[ReplicaId]] = []
        self._visible_at: Dict[int, Set[ReplicaId]] = {}
        self._applied_mask: Dict[ReplicaId, int] = {}
        self._applied_bits: Dict[ReplicaId, int] = {}
        self._client_mask: Dict[object, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_issue(
        self,
        replica: ReplicaId,
        uid: UpdateId,
        register: RegisterName,
        time: float,
        metadata_only: bool = False,
        client: Optional[object] = None,
    ) -> None:
        """Record replica *replica* issuing ``uid`` (which also applies it).

        In the client-server architecture a write is issued on behalf of a
        ``client``; the update's causal past then additionally contains
        everything the client picked up at previously accessed replicas
        (Definition 25, condition (ii)).
        """
        if uid in self._index:
            raise ProtocolError(f"update {uid} issued twice")
        if uid.issuer != replica:
            raise ProtocolError(
                f"update {uid} issued at {replica!r} but names issuer {uid.issuer!r}"
            )
        index = len(self._uid_order)
        self._index[uid] = index
        self._uid_order.append(uid)
        self.updates[uid] = UpdateRecord(uid, register, time, metadata_only)
        past = self._applied_mask.get(replica, 0)
        if client is not None:
            past |= self._client_mask.get(client, 0)
        self._mask.append(past | 1 << index)
        self._applied_at.append(set())
        events = self.events
        events.append(
            HistoryEvent("issue", replica, uid, time, len(events), client)
        )
        # Issuing applies the update at the issuer (prototype step 2).
        self._mark_applied(replica, index)

    def access_token(self, replica: ReplicaId) -> AccessToken:
        """Snapshot *replica*'s state for a deferred client-access record.

        Taken when a replica serves a request; passed back to
        :meth:`record_client_access` when the client accepts the response
        (possibly much later under lossy channels).
        """
        return AccessToken(
            applied=self._applied_bits.get(replica, 0),
            closure=self._applied_mask.get(replica, 0),
        )

    def record_client_access(
        self,
        client: object,
        replica: ReplicaId,
        time: float,
        token: Optional[AccessToken] = None,
    ) -> None:
        """Record client *client* completing an operation at *replica*.

        The client's causal past grows by the replica's: any update the
        client later issues (anywhere) will causally depend on everything
        applied at this replica so far (Definition 25, condition (ii)).
        With ``token``, the access is judged and the past grown against
        the replica's serve-time snapshot rather than its current state
        (the response travelled; the replica may have moved on).
        """
        events = self.events
        events.append(
            HistoryEvent("access", replica, None, time, len(events), client, token)
        )
        growth = (
            token.closure
            if token is not None
            else self._applied_mask.get(replica, 0)
        )
        self._client_mask[client] = self._client_mask.get(client, 0) | growth

    def client_causal_past(self, client: object) -> FrozenSet[UpdateId]:
        """All updates in the client's accumulated causal past."""
        return self._mask_to_set(self._client_mask.get(client, 0))

    def record_apply(self, replica: ReplicaId, uid: UpdateId, time: float) -> None:
        """Record replica *replica* applying a remote update ``uid``."""
        index = self._index.get(uid)
        if index is None:
            raise ProtocolError(f"update {uid} applied before being issued")
        if replica in self._applied_at[index]:  # pragma: no cover - guard
            raise ProtocolError(f"update {uid} applied twice at {replica!r}")
        events = self.events
        events.append(HistoryEvent("apply", replica, uid, time, len(events)))
        self._mark_applied(replica, index)

    def record_visible(
        self, replica: ReplicaId, uid: UpdateId, time: float
    ) -> None:
        """Record ``uid`` becoming *readable* at *replica*.

        Stabilizing policies (GST) split apply from visibility: an update
        is applied the moment it arrives (per-channel FIFO) but serves
        reads only once the global-stabilization cut passes its clock.
        Happened-before is unaffected -- Definition 1 is about applies --
        but the checker's visibility mode verifies Definition 2 safety at
        these events instead of the applies.
        """
        index = self._index.get(uid)
        if index is None:
            raise ProtocolError(f"update {uid} visible before being issued")
        if replica not in self._applied_at[index]:
            raise ProtocolError(
                f"update {uid} visible at {replica!r} before being applied"
            )
        visible = self._visible_at.setdefault(index, set())
        if replica in visible:  # pragma: no cover - guard
            raise ProtocolError(f"update {uid} visible twice at {replica!r}")
        events = self.events
        events.append(HistoryEvent("visible", replica, uid, time, len(events)))
        visible.add(replica)

    def _mark_applied(self, replica: ReplicaId, index: int) -> None:
        self._applied_mask[replica] = (
            self._applied_mask.get(replica, 0) | self._mask[index]
        )
        self._applied_bits[replica] = (
            self._applied_bits.get(replica, 0) | 1 << index
        )
        self._applied_at[index].add(replica)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def happened_before(self, u1: UpdateId, u2: UpdateId) -> bool:
        """``u1 -> u2`` per Definition 1."""
        i1 = self._index[u1]
        i2 = self._index[u2]
        return i1 != i2 and bool(self._mask[i2] >> i1 & 1)

    def concurrent(self, u1: UpdateId, u2: UpdateId) -> bool:
        """Neither ``u1 -> u2`` nor ``u2 -> u1`` (and u1 != u2)."""
        return (
            u1 != u2
            and not self.happened_before(u1, u2)
            and not self.happened_before(u2, u1)
        )

    def causal_past(self, uid: UpdateId) -> FrozenSet[UpdateId]:
        """All updates that happened-before ``uid``."""
        return self._mask_to_set(self.past_mask_of(uid))

    def replica_causal_past(self, replica: ReplicaId) -> FrozenSet[UpdateId]:
        """Set ``S`` of Definition 6 for the replica's current state.

        This is the set of updates applied at the replica plus everything
        that happened-before them (the latter is included automatically
        because applying ``u`` grows the mask by ``past(u) | {u}``).
        """
        return self._mask_to_set(self._applied_mask.get(replica, 0))

    def dependency_graph(
        self, replica: ReplicaId
    ) -> Tuple[FrozenSet[UpdateId], FrozenSet[Tuple[UpdateId, UpdateId]]]:
        """Causal dependency graph ``R`` of Definition 6 (vertices, edges)."""
        vertices = self.replica_causal_past(replica)
        edges = frozenset(
            (u1, u2)
            for u1 in vertices
            for u2 in vertices
            if u1 != u2 and self.happened_before(u1, u2)
        )
        return vertices, edges

    def applied_at(self, uid: UpdateId) -> FrozenSet[ReplicaId]:
        """Replicas that have applied ``uid`` so far (issuer included)."""
        index = self._index.get(uid)
        return frozenset(() if index is None else self._applied_at[index])

    def visible_at(self, uid: UpdateId) -> FrozenSet[ReplicaId]:
        """Replicas at which ``uid`` has become readable (GST cut)."""
        index = self._index.get(uid)
        return frozenset(self._visible_at.get(index, ()))

    def all_updates(self) -> Tuple[UpdateId, ...]:
        """Every issued update, in issue order."""
        return tuple(self._uid_order)

    def updates_by(self, replica: ReplicaId) -> Tuple[UpdateId, ...]:
        """Updates issued by one replica, in issue order."""
        return tuple(u for u in self._uid_order if u.issuer == replica)

    def events_at(self, replica: ReplicaId) -> Iterator[HistoryEvent]:
        """The replica's local event sequence, in execution order."""
        return (e for e in self.events if e.replica == replica)

    def bit_of(self, uid: UpdateId) -> int:
        """Internal bit for ``uid`` (exposed for the checker's fast path)."""
        return 1 << self._index[uid]

    def past_mask_of(self, uid: UpdateId) -> int:
        """Bitmask of ``uid``'s causal past (checker fast path)."""
        index = self._index[uid]
        return self._mask[index] ^ 1 << index

    def closure_mask_of(self, uid: UpdateId) -> int:
        """``bit_of(uid) | past_mask_of(uid)``, stored (checker fast path)."""
        return self._mask[self._index[uid]]

    def _mask_to_set(self, mask: int) -> FrozenSet[UpdateId]:
        out = []
        index = 0
        while mask:
            if mask & 1:
                out.append(self._uid_order[index])
            mask >>= 1
            index += 1
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (
            f"History({len(self._uid_order)} updates, {len(self.events)} events)"
        )
