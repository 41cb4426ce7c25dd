"""Layer spans recorded by wrappers around the program's public calls.

The program carries no instrumentation of its own.  :func:`install`
replaces each traced function or method with a wrapper that times the
call as a span of its layer and records counts at the same boundary.
Spans are aggregated as they close instead of being stored one by one,
so a traced run holds O(layers) state:

* a layer's *self time* is the span's duration minus the time its child
  spans (calls into other layers made from inside it) cover;
* a call made from inside the same layer is not a layer boundary: it
  runs unwrapped, neither timed nor counted, unless its count is marked
  ``inner`` (physical work such as a transmission counts wherever it
  happens).

``install`` must run before any system is built: the protocol engine
binds its policy's fast-path methods once, at construction.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``count(tracer, args, result)`` records counts for one traced call.
Count = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Aggregates span self time and counts per layer."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: Open spans, innermost last: ``[layer, child_ns]``.
        self._stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._patched: List[Tuple[object, str, object]] = []

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        count: Optional[Count] = None,
        inner: bool = False,
    ) -> Callable:
        """Return ``fn`` wrapped as a span of ``layer``."""
        stack = self._stack
        clock = self._clock
        self_ns = self.self_ns
        counts = self.counts
        calls_key = f"{layer}.calls.{name}"
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if inner:
                    count(tracer, args, result)  # type: ignore[misc]
                return result
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_ns[layer] += end - start - frame[1]
            counts[calls_key] += 1
            if count is not None:
                count(tracer, args, result)
            if stack:
                # The count bookkeeping is tracing cost, not the
                # parent's work: hide it from the parent's self time.
                stack[-1][1] += clock() - start
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_async(self, layer: str, name: str, fn: Callable, count: Count) -> Callable:
        """Count calls of a coroutine function without timing a span.

        A coroutine's duration includes the time it waits for other
        tasks, so it cannot nest in the span stack; only counts apply.
        """
        counts = self.counts
        calls_key = f"{layer}.calls.{name}"
        tracer = self

        async def traced(*args: Any, **kwargs: Any) -> Any:
            result = await fn(*args, **kwargs)
            counts[calls_key] += 1
            count(tracer, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installation ------------------------------------------------------
    def patch_method(
        self,
        cls: type,
        attr: str,
        layer: str,
        count: Optional[Count] = None,
        inner: bool = False,
    ) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) as a span."""
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(layer, attr, original, count, inner))

    def patch_function(
        self,
        module: Any,
        attr: str,
        layer: str,
        count: Optional[Count] = None,
        is_async: bool = False,
        inner: bool = False,
    ) -> None:
        """Wrap a module-level function everywhere it is bound.

        ``from module import fn`` copies the binding into the importing
        module, so every loaded ``repro`` module holding the original
        object under any name is rebound to the wrapper.
        """
        import sys

        original = getattr(module, attr)
        if is_async:
            assert count is not None
            wrapper = self.wrap_async(layer, attr, original, count)
        else:
            wrapper = self.wrap(layer, attr, original, count, inner)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Restore every patched binding (newest first)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# The layer table: which public calls belong to which layer
# ---------------------------------------------------------------------------
def _ready_count(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("policy.ready_checks")
    if result:
        tracer.add("policy.ready_true")


def _ready_many_count(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("policy.ready_checks")
    if result is not None:
        tracer.add("policy.ready_true")


def _merge_run_count(tracer: Tracer, args: tuple, result: Any) -> None:
    # merge_run(self, ts, sender, timestamps)
    tracer.add("policy.run_fold_members", len(args[3]))


def _batch_add_count(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("batching.updates")
    if result is not None:
        tracer.add("batching.frames")


def _batch_flush_count(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("batching.frames", len(result))


def _encoded_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("codec.bytes", len(result))


def _decoded_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("codec.bytes", len(args[0]))


def _sized_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("codec.bytes", int(result))


def _transmit_count(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("network.transmissions")


def _frame_encoded(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("framing.frames")
    tracer.add("framing.bytes", len(result))


def _frame_read(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("framing.frames")
    # 4-byte length prefix and 1 type byte, then the payload.
    tracer.add("framing.bytes", 5 + len(result.payload))


def _wal_append(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("wal.appends")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary; call before building a system."""
    import importlib

    def mod(name: str) -> Any:
        # import_module, not ``from package import name``: packages such
        # as repro.core re-export functions that shadow their submodules.
        return importlib.import_module(f"repro.{name}")

    checker_check = mod("checker.check")
    causality, timestamp = mod("core.causality"), mod("core.timestamp")
    timestamp_graph = mod("core.timestamp_graph")
    batching, core = mod("core.engine.batching"), mod("core.engine.core")
    chaos, process_chaos = mod("harness.chaos"), mod("harness.process_chaos")
    faults, transport = mod("network.faults"), mod("network.transport")
    vectorized, kernel = mod("optimizations.vectorized"), mod("sim.kernel")
    framing, wal, codec = mod("tcp.framing"), mod("tcp.wal"), mod("wire.codec")
    mod("tcp.runtime")  # loaded so its bindings of codec/framing get rebound
    P = tracer.patch_method
    F = tracer.patch_function
    scalar = timestamp.EdgeIndexedPolicy
    vector = vectorized.VectorizedEdgeIndexedPolicy
    for attr in ("advance_delta", "merge_delta", "readiness_deps"):
        P(scalar, attr, "policy")
    P(scalar, "ready", "policy", _ready_count)
    for attr in ("advance_delta", "merge_delta"):
        P(vector, attr, "policy")
    P(vector, "ready_many", "policy", _ready_many_count)
    P(vector, "merge_run", "policy", _merge_run_count)
    P(vector, "blocked_many", "policy")
    P(vector, "prewarm", "setup.prewarm")
    F(timestamp_graph, "all_timestamp_graphs", "setup.timestamp_graphs")

    for attr in ("local_write", "remote_update", "remote_batch"):
        P(core.ProtocolCore, attr, "engine")
    P(batching.BatchAccumulator, "add", "batching", _batch_add_count)
    P(batching.BatchAccumulator, "flush", "batching", _batch_flush_count)
    for attr in ("record_issue", "record_apply", "record_visible"):
        P(causality.History, attr, "history")

    F(codec, "encode_update", "codec", _encoded_bytes)
    F(codec, "encode_update_batch", "codec", _encoded_bytes)
    F(codec, "decode_update", "codec", _decoded_bytes)
    F(codec, "decode_update_batch", "codec", _decoded_bytes)
    F(codec, "timestamp_wire_bytes", "codec", _sized_bytes)

    P(kernel.Simulator, "step", "sim")
    for attr in ("send", "_deliver"):
        P(transport.Network, attr, "network")
    P(transport.Network, "_transmit", "network", _transmit_count, inner=True)
    P(faults.FaultyNetwork, "_transmit", "network", _transmit_count, inner=True)
    for attr in ("send", "_deliver", "_on_timeout", "_send_ack"):
        P(faults.ReliableNetwork, attr, "network")

    for attr in ("append_issue", "append_apply"):
        P(wal.WriteAheadLog, attr, "wal", _wal_append)
    P(wal.WriteAheadLog, "flush", "wal")
    F(framing, "encode_frame", "framing", _frame_encoded, inner=True)
    F(framing, "json_frame", "framing")
    F(framing, "read_frame", "framing", _frame_read, is_async=True)

    F(checker_check, "check_history", "checker")
    F(chaos, "store_divergence", "checker")
    F(process_chaos, "merge_wal_histories", "checker")
