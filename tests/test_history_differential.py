"""Differential test: :class:`repro.core.causality.History` against a
reference copy of the original dict-keyed implementation.

The reference below is the dict-per-update ``History`` (two masks per
update, frozen-dataclass events) kept verbatim.  Random sequences of
issues, applies, visibility marks, client accesses and access tokens --
valid and invalid -- drive both; every public query must agree after
every step, both must raise the same :class:`ProtocolError`s, and each
recorded event must be immutable and in the log as soon as its
``record_*`` call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import causality
from repro.errors import ProtocolError
from repro.types import RegisterName, ReplicaId, UpdateId


# ----------------------------------------------------------------------
# Reference implementation (verbatim)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UpdateRecord:
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


@dataclass(frozen=True)
class HistoryEvent:
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
        self._bit: Dict[UpdateId, int] = {}
        self._uid_order: List[UpdateId] = []
        self._past_mask: Dict[UpdateId, int] = {}
        self._applied_mask: Dict[ReplicaId, int] = {}
        self._applied_bits: Dict[ReplicaId, int] = {}
        self._applied_at: Dict[UpdateId, Set[ReplicaId]] = {}
        self._visible_at: Dict[UpdateId, Set[ReplicaId]] = {}
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
        if uid in self.updates:
            raise ProtocolError(f"update {uid} issued twice")
        if uid.issuer != replica:
            raise ProtocolError(
                f"update {uid} issued at {replica!r} but names issuer {uid.issuer!r}"
            )
        index = len(self._uid_order)
        self._uid_order.append(uid)
        self._bit[uid] = 1 << index
        self.updates[uid] = UpdateRecord(uid, register, time, metadata_only)
        mask = self._applied_mask.get(replica, 0)
        if client is not None:
            mask |= self._client_mask.get(client, 0)
        self._past_mask[uid] = mask
        self._append(
            HistoryEvent(
                "issue", replica, uid, time, len(self.events), client=client
            )
        )
        # Issuing applies the update at the issuer (prototype step 2).
        self._mark_applied(replica, uid)

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
        self._append(
            HistoryEvent(
                "access", replica, None, time, len(self.events),
                client=client, token=token,
            )
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
        if uid not in self.updates:
            raise ProtocolError(f"update {uid} applied before being issued")
        if replica in self._applied_at.get(uid, ()):  # pragma: no cover - guard
            raise ProtocolError(f"update {uid} applied twice at {replica!r}")
        self._append(HistoryEvent("apply", replica, uid, time, len(self.events)))
        self._mark_applied(replica, uid)

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
        if uid not in self.updates:
            raise ProtocolError(f"update {uid} visible before being issued")
        if replica not in self._applied_at.get(uid, ()):
            raise ProtocolError(
                f"update {uid} visible at {replica!r} before being applied"
            )
        if replica in self._visible_at.get(uid, ()):  # pragma: no cover - guard
            raise ProtocolError(f"update {uid} visible twice at {replica!r}")
        self._append(
            HistoryEvent("visible", replica, uid, time, len(self.events))
        )
        self._visible_at.setdefault(uid, set()).add(replica)

    def _append(self, event: HistoryEvent) -> None:
        self.events.append(event)

    def _mark_applied(self, replica: ReplicaId, uid: UpdateId) -> None:
        grow = self._past_mask[uid] | self._bit[uid]
        self._applied_mask[replica] = self._applied_mask.get(replica, 0) | grow
        self._applied_bits[replica] = (
            self._applied_bits.get(replica, 0) | self._bit[uid]
        )
        self._applied_at.setdefault(uid, set()).add(replica)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def happened_before(self, u1: UpdateId, u2: UpdateId) -> bool:
        """``u1 -> u2`` per Definition 1."""
        return bool(self._bit[u1] & self._past_mask[u2])

    def concurrent(self, u1: UpdateId, u2: UpdateId) -> bool:
        """Neither ``u1 -> u2`` nor ``u2 -> u1`` (and u1 != u2)."""
        return (
            u1 != u2
            and not self.happened_before(u1, u2)
            and not self.happened_before(u2, u1)
        )

    def causal_past(self, uid: UpdateId) -> FrozenSet[UpdateId]:
        """All updates that happened-before ``uid``."""
        return self._mask_to_set(self._past_mask[uid])

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
        return frozenset(self._applied_at.get(uid, ()))

    def visible_at(self, uid: UpdateId) -> FrozenSet[ReplicaId]:
        """Replicas at which ``uid`` has become readable (GST cut)."""
        return frozenset(self._visible_at.get(uid, ()))

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
        return self._bit[uid]

    def past_mask_of(self, uid: UpdateId) -> int:
        """Bitmask of ``uid``'s causal past (checker fast path)."""
        return self._past_mask[uid]

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


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
REPLICAS = (1, 2, 3)
UIDS = tuple(UpdateId(r, s) for r in REPLICAS for s in (1, 2, 3))
REGISTERS = ("x", "y")
CLIENTS = ("a", "b")
TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.5])


def outcome(fn, *args):
    """``("ok", value)`` or ``("raise", type, message)`` of one call."""
    try:
        return ("ok", fn(*args))
    except (ProtocolError, KeyError) as exc:
        return ("raise", type(exc), str(exc))


def _token(token):
    return None if token is None else (token.applied, token.closure)


def _event(e):
    return (e.kind, e.replica, e.uid, e.time, e.position, e.client, _token(e.token))


def _record(r):
    return (r.uid, r.register, r.issue_time, r.metadata_only)


def assert_same(ref: History, new: causality.History) -> None:
    assert len(new) == len(ref)
    assert repr(new) == repr(ref)
    assert [_event(e) for e in new.events] == [_event(e) for e in ref.events]
    assert list(new.updates) == list(ref.updates)
    assert [_record(r) for r in new.updates.values()] == [
        _record(r) for r in ref.updates.values()
    ]
    assert new.all_updates() == ref.all_updates()
    for replica in REPLICAS + (99,):
        assert new.updates_by(replica) == ref.updates_by(replica)
        assert [_event(e) for e in new.events_at(replica)] == [
            _event(e) for e in ref.events_at(replica)
        ]
        assert new.replica_causal_past(replica) == ref.replica_causal_past(replica)
        assert new.dependency_graph(replica) == ref.dependency_graph(replica)
        assert _token(new.access_token(replica)) == _token(ref.access_token(replica))
    for client in CLIENTS:
        assert new.client_causal_past(client) == ref.client_causal_past(client)
    for u1 in UIDS:
        assert new.applied_at(u1) == ref.applied_at(u1)
        assert new.visible_at(u1) == ref.visible_at(u1)
        for query in ("bit_of", "past_mask_of", "causal_past"):
            assert outcome(getattr(new, query), u1) == outcome(
                getattr(ref, query), u1
            )
        if u1 in ref.updates:
            assert new.closure_mask_of(u1) == ref.bit_of(u1) | ref.past_mask_of(u1)
        for u2 in UIDS:
            for query in ("happened_before", "concurrent"):
                assert outcome(getattr(new, query), u1, u2) == outcome(
                    getattr(ref, query), u1, u2
                )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_history_matches_reference(data):
    ref, new = History(), causality.History()
    ref_tokens: List[AccessToken] = []
    new_tokens: List[causality.AccessToken] = []
    draw = data.draw
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        kind = draw(st.sampled_from(["issue", "issue", "apply", "apply",
                                     "visible", "token", "access"]))
        issued = list(ref.updates)
        if kind == "token":
            replica = draw(st.sampled_from(REPLICAS))
            ref_tokens.append(ref.access_token(replica))
            new_tokens.append(new.access_token(replica))
            assert_same(ref, new)
            continue
        if kind == "issue":
            replica = draw(st.sampled_from(REPLICAS))
            fresh = UpdateId(replica, len(ref.updates_by(replica)) + 1)
            # Mostly the replica's next update; sometimes a duplicate or
            # an update naming another issuer.
            uid = draw(st.sampled_from([fresh, fresh, fresh, *UIDS]))
            args = (
                replica,
                uid,
                draw(st.sampled_from(REGISTERS)),
                draw(TIMES),
                draw(st.booleans()),
                draw(st.sampled_from((None, *CLIENTS))),
            )
        elif kind == "access":
            choice = draw(st.integers(min_value=-1, max_value=len(ref_tokens) - 1))
            client = draw(st.sampled_from(CLIENTS))
            replica = draw(st.sampled_from(REPLICAS))
            time = draw(TIMES)
            ref_args = (client, replica, time,
                        ref_tokens[choice] if choice >= 0 else None)
            new_args = (client, replica, time,
                        new_tokens[choice] if choice >= 0 else None)
        else:
            # apply / visible: mostly an issued update, sometimes any.
            uid = draw(st.sampled_from(issued * 3 + list(UIDS)))
            args = (draw(st.sampled_from(REPLICAS)), uid, draw(TIMES))
        if kind != "access":
            ref_args = new_args = args
        method = {
            "issue": "record_issue",
            "apply": "record_apply",
            "visible": "record_visible",
            "access": "record_client_access",
        }[kind]
        before = len(new)
        got = outcome(getattr(new, method), *new_args)
        want = outcome(getattr(ref, method), *ref_args)
        assert got == want
        if got[0] == "ok":
            # The event exists, complete and immutable, as soon as the
            # call returns.
            assert len(new) == before + 1
            event = new.events[-1]
            assert type(event) is causality.HistoryEvent
            assert event.position == before and event.kind == kind
            with pytest.raises(AttributeError):
                event.kind = "mutated"  # type: ignore[misc]
            if kind == "issue":
                with pytest.raises(AttributeError):
                    new.updates[args[1]].register = "z"  # type: ignore[misc]
        else:
            assert len(new) == before
        assert_same(ref, new)


def test_invalid_steps_raise_the_same_errors():
    """Each guard fires identically in both (deterministic cases)."""
    ref, new = History(), causality.History()
    u = UpdateId(1, 1)
    steps = [
        ("record_apply", (2, u, 0.0)),  # apply before issue
        ("record_visible", (2, u, 0.0)),  # visible before issue
        ("record_issue", (2, u, "x", 0.0)),  # issuer mismatch
        ("record_issue", (1, u, "x", 0.0)),
        ("record_issue", (1, u, "x", 1.0)),  # duplicate issue
        ("record_visible", (2, u, 1.0)),  # visible before apply
        ("record_apply", (1, u, 1.0)),  # applied twice (issuer)
        ("record_visible", (1, u, 1.0)),
        ("record_visible", (1, u, 2.0)),  # visible twice
    ]
    kinds = []
    for method, args in steps:
        got = outcome(getattr(new, method), *args)
        assert got == outcome(getattr(ref, method), *args)
        kinds.append(got[0])
    assert kinds == ["raise", "raise", "raise", "ok", "raise", "raise",
                     "raise", "ok", "raise"]
    assert_same(ref, new)
    assert not new.happened_before(u, u) and not ref.happened_before(u, u)
