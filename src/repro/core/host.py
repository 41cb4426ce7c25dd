"""The effect-dispatch host every in-process runtime adapter runs on.

:class:`CoreHost` owns one :class:`~repro.core.engine.ProtocolCore` and
carries out the effects it emits, batches its sends, hands inbound
replication messages to it, and exposes its state.  The simulator
(:class:`repro.core.replica.Replica`), asyncio
(:class:`repro.aio.runtime.AioReplica`) and client-server
(:class:`repro.clientserver.protocol.CSReplica`) adapters subclass it and
supply only their transport, through :meth:`CoreHost._send` and
:meth:`CoreHost._call_later`, and their time, as the core's ``clock``.

``Send`` effects may be coalesced per destination into one
:class:`~repro.core.engine.UpdateBatch` frame within a flush window;
every other effect is carried out at once, in emission order.  The TCP
runtime keeps its own dispatch: its ``Send`` writes a durable outbox,
and its ``RecordHistory`` and ``ConfirmApplied`` go through the
write-ahead log.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional

from repro.core.causality import History
from repro.core.engine import (
    Applied,
    BatchAccumulator,
    ConfirmApplied,
    EscalateSync,
    ProtocolCore,
    QueueStats,
    RecordHistory,
    ReplicaMetrics,
    RollbackChannels,
    Send,
    SendBatch,
    SendStabilize,
    StabilizeFrame,
    UpdateBatch,
    check_batch_settings,
)
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import Timestamp, TimestampPolicy
from repro.errors import ProtocolError
from repro.types import RegisterName, ReplicaId, Update

__all__ = ["CoreHost"]

#: Post-apply hook ``(adapter, src, update)``.
HostApplyHook = Callable[[Any, ReplicaId, Update], None]


class CoreHost(ABC):
    """One protocol core plus the transport-neutral plumbing around it.

    Parameters
    ----------
    replica_id, graph, policy:
        As for :class:`~repro.core.engine.ProtocolCore`.
    history:
        The checker's issue/apply log; ``None`` runs without recording.
    clock:
        The runtime's notion of now (virtual or loop time).
    batch_window, batch_max:
        Send-side batching: coalesce ``Send`` effects per destination for
        ``batch_window`` time units (0 ships each update at once), at
        most ``batch_max`` updates per frame.
    core_options:
        Forwarded to :class:`~repro.core.engine.ProtocolCore`.

    Subclasses that need the ``Applied``, ``ConfirmApplied``,
    ``EscalateSync`` or ``RollbackChannels`` effects set the matching hook
    attribute before calling this constructor; the core only emits
    ``Applied`` and ``ConfirmApplied`` when the hook is installed.
    """

    _on_apply: Optional[HostApplyHook] = None
    _confirm_applied: Optional[
        Callable[[ReplicaId, ReplicaId, Update], Any]
    ] = None
    _on_sync_needed: Optional[Callable[[ReplicaId, str], None]] = None
    _rollback_volatile: Optional[Callable[[ReplicaId], Any]] = None

    def __init__(
        self,
        replica_id: ReplicaId,
        graph: ShareGraph,
        policy: TimestampPolicy,
        history: Optional[History],
        clock: Callable[[], float],
        batch_window: float = 0.0,
        batch_max: int = 64,
        **core_options: Any,
    ) -> None:
        check_batch_settings(batch_window, batch_max)
        self.replica_id = replica_id
        self.graph = graph
        self.policy = policy
        self.history = history
        self._batch_window = batch_window
        self._batcher: Optional[BatchAccumulator] = (
            BatchAccumulator(batch_max) if batch_window > 0 else None
        )
        self._flush_scheduled = False
        self.core = ProtocolCore(
            replica_id,
            graph,
            policy,
            self._on_effect,
            clock=clock,
            record_history=history is not None,
            emit_applied=self._on_apply is not None,
            emit_confirm=self._confirm_applied is not None,
            **core_options,
        )

    # ------------------------------------------------------------------
    # The transport an adapter supplies
    # ------------------------------------------------------------------
    @abstractmethod
    def _send(
        self, dst: ReplicaId, payload: Any, counters: int, wire_bytes: int
    ) -> None:
        """Transmit one message to ``dst``.

        ``payload`` is an :class:`~repro.types.Update`, an
        :class:`~repro.core.engine.UpdateBatch` or a
        :class:`~repro.core.engine.StabilizeFrame`; ``counters`` and
        ``wire_bytes`` are its metadata accounting.
        """

    @abstractmethod
    def _call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` time units of the runtime's clock."""

    # ------------------------------------------------------------------
    # Effect dispatch (the core's only window on the outside world)
    # ------------------------------------------------------------------
    def _on_effect(self, eff: Any) -> None:
        # ``eff`` is an Effect; dispatch is on the exact class, which is
        # cheaper than isinstance but opaque to type narrowing.
        cls = eff.__class__
        if cls is Send:
            batcher = self._batcher
            if batcher is not None:
                frame = batcher.add(
                    eff.dst, eff.update, eff.metadata_counters, eff.wire_bytes
                )
                if frame is not None:
                    # Destination hit batch_max: ship the full frame now.
                    self._send_frame(frame)
                if batcher.pending and not self._flush_scheduled:
                    self._flush_scheduled = True
                    self._call_later(self._batch_window, self._flush_batches)
                return
            self._send(
                eff.dst, eff.update, eff.metadata_counters, eff.wire_bytes
            )
        elif cls is RecordHistory:
            # Only emitted when a history is attached (record_history).
            history = self.history
            assert history is not None
            if eff.kind == "apply":
                history.record_apply(self.replica_id, eff.uid, eff.time)
            elif eff.kind == "visible":
                history.record_visible(self.replica_id, eff.uid, eff.time)
            else:
                history.record_issue(
                    self.replica_id,
                    eff.uid,
                    eff.register,
                    eff.time,
                    client=eff.client,
                )
        elif cls is SendStabilize:
            # Stabilize frames never batch: the cut should advance promptly.
            self._send(
                eff.dst, eff.frame, len(eff.frame.entries) + 2, eff.wire_bytes
            )
        elif cls is ConfirmApplied:
            # Only emitted when the transport has the hook (emit_confirm).
            confirm = self._confirm_applied
            assert confirm is not None
            confirm(self.replica_id, eff.src, eff.update)
        elif cls is Applied:
            # Only emitted while an on_apply hook is installed.
            hook = self._on_apply
            assert hook is not None
            hook(self, eff.src, eff.update)
        elif cls is EscalateSync:
            if self._on_sync_needed is not None:
                self._on_sync_needed(self.replica_id, eff.reason)
        elif cls is RollbackChannels:
            if self._rollback_volatile is not None:
                self._rollback_volatile(self.replica_id)
        else:  # pragma: no cover - wiring guard
            raise ProtocolError(f"unexpected effect {eff!r}")

    # ------------------------------------------------------------------
    # Send-side batching (one frame, many updates)
    # ------------------------------------------------------------------
    def _send_frame(self, frame: SendBatch) -> None:
        self._send(
            frame.dst,
            UpdateBatch(frame.updates),
            frame.metadata_counters,
            frame.wire_bytes,
        )

    def _flush_batches(self) -> None:
        """Close the flush window: ship one frame per buffered destination."""
        self._flush_scheduled = False
        if self._batcher is None:
            return
        for frame in self._batcher.flush():
            self._send_frame(frame)

    @property
    def outbox_pending(self) -> int:
        """Updates buffered in the send-side batcher (0 with batching off)."""
        return 0 if self._batcher is None else self._batcher.pending

    # ------------------------------------------------------------------
    # Inbound replication messages
    # ------------------------------------------------------------------
    def _receive(self, src: ReplicaId, message: Any) -> int:
        """Hand one replication message to the core.

        Returns the number of protocol events it carried: the member
        count of a batch frame, otherwise 1.
        """
        if isinstance(message, Update):
            self.core.remote_update(src, message)
            return 1
        if isinstance(message, UpdateBatch):
            self.core.remote_batch(src, message.updates)
            return len(message.updates)
        if isinstance(message, StabilizeFrame):
            self.core.receive_stabilize(src, message)
            return 1
        raise ProtocolError(f"unexpected message {message!r}")

    # ------------------------------------------------------------------
    # Global stabilization (visibility-cut policies, repro.gst)
    # ------------------------------------------------------------------
    def stabilize(self) -> None:
        """One stabilization round (no-op under non-stabilizing policies)."""
        self.core.stabilize()

    @property
    def stabilizing(self) -> bool:
        """Whether this replica runs a visibility-cut (GST) policy."""
        return self.core.visible_store is not None

    @property
    def unstable_count(self) -> int:
        """Applied updates still awaiting the visibility cut."""
        return self.core.unstable_count

    # ------------------------------------------------------------------
    # Core state views
    # ------------------------------------------------------------------
    @property
    def store(self) -> Dict[RegisterName, Any]:
        return self.core.store

    @store.setter
    def store(self, value: Dict[RegisterName, Any]) -> None:
        self.core.store = value

    @property
    def timestamp(self) -> Timestamp:
        return self.core.timestamp

    @timestamp.setter
    def timestamp(self, value: Timestamp) -> None:
        self.core.timestamp = value

    @property
    def metrics(self) -> ReplicaMetrics:
        return self.core.metrics

    def queue_stats(self) -> QueueStats:
        """Delivery-engine queue statistics (see :class:`QueueStats`)."""
        return self.core.queue_stats()

    @property
    def on_apply(self) -> Optional[HostApplyHook]:
        """Post-apply hook ``(replica, src, update)``."""
        return self._on_apply

    @on_apply.setter
    def on_apply(self, hook: Optional[HostApplyHook]) -> None:
        self._on_apply = hook
        self.core.emit_applied = hook is not None
