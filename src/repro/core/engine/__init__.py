"""The sans-I/O protocol core: one delivery engine for every runtime.

This package is the Section 2.1 algorithm prototype as a *pure state
machine*: :class:`ProtocolCore` owns the store, the timestamp engine, the
per-sender delivery queues with their readiness wake-sets, the value-debt
ledger, and the pending-cap/gap backpressure -- and it performs no I/O.
Inputs arrive as typed events (:mod:`repro.core.engine.events`) or direct
method calls; everything the outside world must do in response is emitted
as a typed effect (:mod:`repro.core.engine.effects`) through a callback
the adapter supplies.

The simulator (:class:`repro.core.replica.Replica`), asyncio
(:class:`repro.aio.runtime.AioReplica`), and client-server
(:class:`repro.clientserver.protocol.CSReplica`) runtimes are thin
adapters over this one engine.  They share one effect-dispatch host,
:class:`repro.core.host.CoreHost`, which carries out the effects and
batches sends; each adapter supplies only its transport and clock.  The
TCP runtime (:class:`repro.tcp.runtime.TcpReplicaServer`) dispatches
effects itself, through its write-ahead log.  No runtime reimplements
delivery.
"""

from repro.core.engine.batching import (
    BatchAccumulator,
    UpdateBatch,
    check_batch_settings,
)
from repro.core.engine.core import ProtocolCore
from repro.core.engine.effects import (
    Applied,
    ConfirmApplied,
    Effect,
    EscalateSync,
    RecordHistory,
    RollbackChannels,
    Send,
    SendBatch,
    SendStabilize,
)
from repro.core.engine.events import (
    Event,
    LocalWrite,
    RemoteBatch,
    RemoteStabilize,
    RemoteUpdate,
    StabilizeTick,
    SyncInstall,
    Tick,
)
from repro.core.engine.metrics import QueueStats, ReplicaMetrics
from repro.core.engine.stabilization import StabilizationState, StabilizeFrame

__all__ = [
    "Applied",
    "BatchAccumulator",
    "ConfirmApplied",
    "Effect",
    "EscalateSync",
    "Event",
    "LocalWrite",
    "ProtocolCore",
    "QueueStats",
    "RecordHistory",
    "RemoteBatch",
    "RemoteStabilize",
    "RemoteUpdate",
    "ReplicaMetrics",
    "RollbackChannels",
    "Send",
    "SendBatch",
    "SendStabilize",
    "StabilizationState",
    "StabilizeFrame",
    "StabilizeTick",
    "SyncInstall",
    "Tick",
    "check_batch_settings",
]
