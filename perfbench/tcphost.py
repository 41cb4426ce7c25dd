"""Child process that hosts every replica of the tcp-open workload.

Usage::

    python3 perfbench/tcphost.py [--setups 15] [--trace]

All replicas run as one :class:`~repro.tcp.runtime.TcpCluster` in this
process, over loopback, with the default :class:`TcpConfig`.  The
process talks to its parent one JSON document per line:

* it sets the cluster up ``--setups`` times (keeping the last) and
  prints ``{"addresses": ..., "setup_s": [...]}`` once every replica
  listens and every peer link is connected;
* on each ``mark`` line from stdin it prints a snapshot of its CPU time
  and counters, so the parent can bracket a load window;
* on ``stop`` it lets the cluster settle, prints a final snapshot,
  verifies the merged write-ahead logs and the live stores, prints the
  result and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from common import WORK_DIR, require_program

require_program()

from speed import SpeedMeter  # noqa: E402
from tracing import Tracer, install  # noqa: E402
from workloads import TCP  # noqa: E402

#: Event-loop lateness probe period (seconds).
PROBE_PERIOD = 0.005
#: The cluster's own seed (its reconnect-backoff draws).  The workload
#: seed drives only the client schedule, so set-up does not vary with it.
CLUSTER_SEED = 0


@dataclass
class _StoreView:
    store: Dict[Any, Any]
    value_debt: Dict[Any, Any] = field(default_factory=dict)
    crashed: bool = False


@dataclass
class _ClusterView:
    """What :func:`repro.harness.chaos.store_divergence` reads."""

    history: Any
    graph: Any
    replicas: Dict[Any, _StoreView]


def emit(doc: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def all_connected(cluster) -> bool:
    return all(
        link.connected
        for server in cluster.servers.values()
        for link in server.links.values()
    )


async def start_cluster(wal_dir: str):
    from repro.tcp.runtime import TcpCluster, TcpConfig

    shutil.rmtree(wal_dir, ignore_errors=True)
    cluster = TcpCluster(TCP.placements(), wal_dir, config=TcpConfig(), seed=CLUSTER_SEED)
    await cluster.__aenter__()
    deadline = time.monotonic() + 30.0
    while not all_connected(cluster):
        if time.monotonic() > deadline:
            raise RuntimeError("peer links did not all connect within 30 s")
        await asyncio.sleep(0.001)
    return cluster


class Host:
    """The running cluster plus what the benchmark observes of it."""

    def __init__(self, cluster, tracer: Optional[Tracer]) -> None:
        self.cluster = cluster
        self.tracer = tracer
        #: uid "issuer:seq" -> [applies, CLOCK_MONOTONIC of the last one]
        self.applied: Dict[str, List[float]] = {}
        self.loop_lags: List[float] = []
        #: Host CPU outside the speed meter's own loop, in CPU- and
        #: reference-seconds, accumulated at every probe tick.
        self.meter = SpeedMeter(iterations=500)
        self.cpu_s = self.ref_s = 0.0
        self._since = time.process_time()
        for server in cluster.servers.values():
            server.on_apply = self._on_apply

    def _on_apply(self, server, src, update) -> None:
        key = f"{update.uid.issuer}:{update.uid.seq}"
        record = self.applied.get(key)
        now = time.monotonic()
        if record is None:
            self.applied[key] = [1, now]
        else:
            record[0] += 1
            record[1] = now

    def start_probe(self) -> None:
        """Every PROBE_PERIOD: record loop lateness, sample machine speed."""
        loop = asyncio.get_running_loop()
        self.meter.sample()

        def tick(due: float) -> None:
            self.loop_lags.append(loop.time() - due)
            now = time.process_time()
            self.cpu_s += now - self._since
            self.ref_s += (now - self._since) * self.meter.scale()
            self.meter.sample()
            self._since = time.process_time()
            loop.call_at(due + PROBE_PERIOD, tick, due + PROBE_PERIOD)

        first = loop.time() + PROBE_PERIOD
        loop.call_at(first, tick, first)

    def snapshot(self) -> Dict[str, Any]:
        servers = self.cluster.servers.values()
        doc: Dict[str, Any] = {
            "cpu_s": self.cpu_s,
            "ref_s": self.ref_s,
            "frames": sum(
                link.frames_sent for s in servers for link in s.links.values()
            ),
            "wal_flushes": sum(s.wal.flushes for s in servers),
            "wal_bytes": sum(
                os.path.getsize(s.wal.path) for s in servers if os.path.exists(s.wal.path)
            ),
            "pending_high_water": max(s.core.metrics.pending_high_water for s in servers),
            "apply_wait_total": sum(s.core.metrics.apply_delay_total for s in servers),
            "applied_remote": sum(s.core.metrics.applied_remote for s in servers),
            "outbox_high_water": max(s.stats.outbox_high_water for s in servers),
            "loop_lags": len(self.loop_lags),
        }
        if self.tracer is not None:
            doc["counts"] = dict(self.tracer.counts)
            doc["self_ns"] = dict(self.tracer.self_ns)
        return doc

    def verify(self) -> Dict[str, Any]:
        """Merged-WAL causal check plus the store audit, live and durable."""
        from repro.checker import check_history
        from repro.core.timestamp_graph import all_timestamp_graphs
        from repro.harness.chaos import store_divergence
        from repro.harness.process_chaos import merge_wal_histories
        from repro.wire.codec import canonical_edge_order, decode_update, timestamp_wire_bytes

        start = time.perf_counter()
        graph = self.cluster.graph
        entries = {
            str(rid): server.wal.read() for rid, server in self.cluster.servers.items()
        }
        violations: List[str] = []
        history, values, wal_view = merge_wal_histories(graph, entries)
        report = check_history(history, graph, require_liveness=True)
        violations.extend(str(v) for v in report.violations)
        violations.extend(store_divergence(wal_view, values))
        live = _ClusterView(
            history,
            graph,
            {
                rid: _StoreView(store=dict(server.core.store))
                for rid, server in self.cluster.servers.items()
            },
        )
        violations.extend(store_divergence(live, values))
        checker_s = time.perf_counter() - start

        # Timestamp bytes of every update a replica received, read back
        # from the apply records (outside any timed window).
        graphs = all_timestamp_graphs(graph)
        by_name = {str(r): r for r in graph.replicas}
        orders = {r: canonical_edge_order(graphs[r].edges) for r in graph.replicas}
        metadata = 0
        for log in entries.values():
            for entry in log:
                if entry.kind == "apply":
                    src = by_name[entry.src]
                    update = decode_update(entry.update_bytes, src, orders[src])
                    metadata += timestamp_wire_bytes(update.timestamp)
        return {
            "violations": violations[:5],
            "failed": bool(violations),
            "checker_s": checker_s,
            "metadata_bytes": metadata,
            "issued": len(history.updates),
        }


async def serve(args: argparse.Namespace) -> None:
    tracer: Optional[Tracer] = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    setups: List[float] = []
    cluster = None
    for k in range(args.setups):
        if cluster is not None:
            await cluster.stop()
            shutil.rmtree(cluster.wal_dir, ignore_errors=True)
        wal_dir = os.path.join(WORK_DIR, f"tcp-{os.getpid()}-{k}")
        start = time.perf_counter()
        cluster = await start_cluster(wal_dir)
        setups.append(time.perf_counter() - start)
    host = Host(cluster, tracer)
    host.start_probe()
    emit(
        {
            "addresses": {
                str(rid): list(addr) for rid, addr in cluster.addresses.items()
            },
            "setup_s": setups,
        }
    )

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    try:
        while True:
            line = (await commands.readline()).decode().strip()
            if line == "mark":
                emit(host.snapshot())
            elif line == "stop" or not line:
                break
        await cluster.settle(timeout=30.0)
        final = host.snapshot()
        final["loop_lags"] = host.loop_lags
        emit(final)
        result = host.verify()
        result["applied"] = host.applied
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        emit(result)
    finally:
        await cluster.stop()
        shutil.rmtree(cluster.wal_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run is still using it


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setups", type=int, default=TCP.setups)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
