"""Cost ledger for the partially replicated causal memory.

Run from the root of a source checkout::

    python3 perfbench/run.py                       # every workload
    python3 perfbench/run.py --workload tcp-open --seed 3 --seconds 10
    python3 perfbench/run.py --workload dense-batched --trace 1

Each run prints a ledger (every metric by name, with its unit and its
sample count) and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the gated end-to-end metrics; with
``--trace 1`` they are the per-layer metrics of a traced run, compared
against an untraced run of the same inputs.  Every run is verified; a
failed verification counts all of that run's operations as failed and
makes the exit code 1.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import select
import subprocess
import sys
import time
from statistics import fmean, median
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    MIN_BEYOND,
    ROOT,
    Dist,
    last_json_line,
    require_program,
    tail_percentile,
)
from metrics import END_TO_END, EXACT_RUN_FIELDS, GATED, LAYERS, LISTED, UNITS
from workloads import WORKLOADS, SimWorkload, TcpWorkload

#: Longest a child may run before the run is abandoned (seconds).
CHILD_TIMEOUT = 150.0
BOUNDS = {m.name: m.bound for m in GATED}


class Ledger:
    """Metric values of one workload run, with their sample counts."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.values: Dict[str, float] = {}
        self.samples: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []

    def put(self, name: str, value: Optional[float], samples: str) -> None:
        if value is not None:
            self.values[name] = float(value)
        self.samples[name] = samples

    def put_dist(self, prefix: str, dist: Dist, scale: float, unit: str) -> None:
        """``<prefix>_p50`` and ``<prefix>_p99`` under the ten-beyond rule;
        the p99 note names the highest percentile the sample supports."""
        tail = tail_percentile(dist.samples)
        for p in (50, 99):
            value = dist.at(p)
            note = f"n={dist.n}"
            if value is None:
                note += f", p{p} needs {round(MIN_BEYOND / (1 - p / 100))} samples"
            if p == 99 and tail is not None:
                note += f", highest supported p{tail[0]:g} = {tail[1] * scale:.4g} {unit}"
            self.put(f"{prefix}_p{p}_{unit}", None if value is None else value * scale, note)

    @property
    def correct(self) -> bool:
        return not self.violations

    def print(self, names: List[str]) -> None:
        out = sys.stdout
        out.write(f"== {self.workload}: attempted {self.attempted}, failed {self.failed}\n")
        for name in names:
            if name not in self.samples:
                continue
            value = self.values.get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            gate = f"[bound {BOUNDS[name]:g}] " if name in BOUNDS else ""
            out.write(f"  {name:34s} {shown:>14s} {UNITS[name]:10s} {gate}({self.samples[name]})\n")
        for violation in self.violations[:5]:
            out.write(f"  VIOLATION: {violation}\n")


def run_child(script: str, args: List[str]) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, script), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} exited {proc.returncode}")
    return last_json_line(proc.stdout)


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------
def sim_child(workload: SimWorkload, seed: int, repeats: int, trace: bool) -> Dict[str, Any]:
    args = ["--workload", workload.name, "--seed", str(seed), "--repeats", str(repeats)]
    return run_child("simhost.py", args + (["--trace"] if trace else []))


def sim_verdict(ledger: Ledger, doc: Dict[str, Any]) -> None:
    ledger.attempted += doc["writes"]
    if doc["failed"]:
        ledger.failed += doc["writes"]
        ledger.violations.extend(doc["violations"] or ["verification failed"])


def run_sim(workload: SimWorkload, seed: int, seconds: int) -> Ledger:
    ledger = Ledger(workload.name)
    repeats = workload.repeats(seconds)
    doc = sim_child(workload, seed, repeats, trace=False)
    sim_verdict(ledger, doc)
    writes = doc["writes"]
    setups = doc["setup_s"]
    ledger.put("setup_s", median(setups), f"median of {len(setups)} set-ups")
    ledger.put("peak_rss_mb", doc["maxrss_kb"] / 1024.0, "peak of 1 process")
    runs = f"median of {repeats} identical runs of {writes} writes"
    ledger.put("throughput_ops_s", writes / median(doc["ref_s"]), f"per reference-second, {runs}")
    ledger.put("throughput_raw_ops_s", writes / median(doc["cpu_s"]), f"per CPU-second, {runs}")
    ledger.put("metadata_bytes_per_op", doc["metadata_bytes"] / writes, f"{writes} writes")
    ledger.put("messages_per_op", doc["transmissions"] / writes, f"{writes} writes")
    ledger.put_dist("virtual_lag", Dist(doc["lags"]), 1.0, "s")
    ledger.put("error_rate", ledger.failed / max(1, ledger.attempted), f"{ledger.attempted} ops")
    return ledger


class Spans:
    """Counts and span self times of one traced window."""

    def __init__(self, counts: Dict[str, int], self_ns: Dict[str, int], ops: int) -> None:
        self.counts = counts
        self.self_ns = self_ns
        self.ops = max(1, ops)

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)

    def calls(self, layer: str) -> int:
        prefix = f"{layer}.calls."
        return sum(v for k, v in self.counts.items() if k.startswith(prefix))

    def per_op(self, key: str) -> float:
        return self.count(key) / self.ops

    def calls_per_op(self, layer: str) -> float:
        return self.calls(layer) / self.ops

    def self_us_per_op(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e3 / self.ops


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger: Ledger, spans: Spans, note: str) -> None:
    """The span-derived metrics of every layer the window entered."""
    by_layer = {
        "policy": {
            "calls_per_op": spans.calls_per_op("policy"),
            "ready_true_ratio": ratio(spans.count("policy.ready_true"), spans.count("policy.ready_checks")),
            "run_fold_members_per_call": ratio(
                spans.count("policy.run_fold_members"), spans.count("policy.calls.merge_run")
            ),
        },
        "engine": {},
        "batching": {
            "updates_per_frame": ratio(spans.count("batching.updates"), spans.count("batching.frames")),
        },
        "history": {"calls_per_op": spans.calls_per_op("history")},
        "codec": {"calls_per_op": spans.calls_per_op("codec"), "bytes_per_op": spans.per_op("codec.bytes")},
        "sim": {"events_per_op": spans.calls_per_op("sim")},
        "network": {"transmissions_per_op": spans.per_op("network.transmissions")},
        "wal": {},
        "framing": {"frames_per_op": spans.per_op("framing.frames"), "bytes_per_op": spans.per_op("framing.bytes")},
    }
    for layer, values in by_layer.items():
        if not spans.calls(layer):
            continue  # reported by fill_absent
        if layer != "framing":  # its read path awaits, so it has no span
            values["self_us_per_op"] = spans.self_us_per_op(layer)
        for name, value in values.items():
            ledger.put(f"{layer}.{name}", value, note)


def fill_absent(ledger: Ledger) -> None:
    """Layers a workload does not run report 0."""
    for layer in LAYERS:
        if layer.name not in ledger.samples:
            ledger.put(layer.name, 0.0, "layer absent")


def sim_layers(ledger: Ledger, plain: Dict[str, Any], traced: List[Dict[str, Any]]) -> None:
    """Per-layer metrics of a traced simulator run."""
    run = traced[0]
    spans = Spans(run["counts"], run["self_ns"], run["writes"])
    note = f"{run['writes']} writes, 1 traced run"
    layer_metrics(ledger, spans, note)
    put = ledger.put
    put("engine.pending_high_water", run["pending_high_water"], note)
    put("engine.apply_wait_mean_s", ratio(run["apply_wait_total"], run["applied_remote"]), note + ", virtual")
    put("network.retransmits_per_op", run["retransmits"] / spans.ops, note)
    put("network.useful_ratio", ratio(run["first_deliveries"], spans.count("network.transmissions")), note)
    put("network.unacked_high_water", run["unacked_high_water"], note)
    builds = len(run["setup_s"])
    for name in ("timestamp_graphs", "prewarm"):
        put(f"setup.{name}_s", run["self_ns"].get(f"setup.{name}", 0) / 1e9 / builds, f"mean of {builds} set-ups")
    put("checker.s", plain["checker_s"], "1 untraced run, outside the timed window")
    put(
        "trace.overhead_ratio",
        median([t for doc in traced for t in doc["ref_s"]]) / median(plain["ref_s"]),
        "traced / untraced reference-seconds",
    )


def exact_counts(doc: Dict[str, Any]) -> Dict[str, int]:
    counts = dict(doc["counts"])
    counts.update({f"run.{k}": doc[k] for k in EXACT_RUN_FIELDS})
    return counts


def trace_sim(workload: SimWorkload, seed: int) -> Ledger:
    ledger = Ledger(workload.name)
    plain = sim_child(workload, seed, 3, trace=False)
    traced = [sim_child(workload, seed, 1, trace=True) for _ in range(2)]
    for doc in (plain, *traced):
        sim_verdict(ledger, doc)
    a, b = (exact_counts(doc) for doc in traced)
    if a != b:
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        ledger.violations.append(f"exact counts differ between two traced runs: {diff[:8]}")
        ledger.failed = ledger.attempted
    sim_layers(ledger, plain, traced)
    fill_absent(ledger)
    return ledger


# ---------------------------------------------------------------------------
# TCP workload
# ---------------------------------------------------------------------------
class TcpHost:
    """The replica-hosting child process and its line protocol."""

    def __init__(self, trace: bool) -> None:
        args = [sys.executable, os.path.join(BENCH_DIR, "tcphost.py")]
        self.proc = subprocess.Popen(
            args + (["--trace"] if trace else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        self._buffer = b""
        self.deadline = time.monotonic() + CHILD_TIMEOUT

    def read(self) -> Dict[str, Any]:
        fd = self.proc.stdout.fileno()  # type: ignore[union-attr]
        while b"\n" not in self._buffer:
            left = self.deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, left))
            if not ready:
                raise TimeoutError("tcp host did not answer in time")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RuntimeError(f"tcp host exited ({self.proc.wait()})")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def command(self, word: str) -> Dict[str, Any]:
        assert self.proc.stdin is not None
        self.proc.stdin.write(word.encode() + b"\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


def tcp_entries(workload: TcpWorkload):
    """The two entry replicas: shared registers to write, all to read."""
    from loadgen import Entry
    from repro.core.share_graph import ShareGraph

    graph = ShareGraph(workload.placements())
    entries = []
    for rid in sorted(graph.replicas)[:2]:
        regs = sorted(str(x) for x in graph.registers_at(rid))
        shared = [x for x in regs if len(graph.replicas_storing(x)) > 1]
        entries.append(Entry(str(rid), tuple(shared), tuple(regs)))
    holders = {str(x): len(graph.replicas_storing(x)) for x in graph.registers}
    return entries, holders


def encode_ops(schedule) -> Dict[Any, bytes]:
    from repro.tcp.framing import FrameType, json_frame
    from repro.wire.codec import encode_value

    frames = {}
    for op in schedule:
        doc: Dict[str, Any] = {"op": op.kind, "register": op.register}
        if op.kind == "write":
            doc["value"] = encode_value(op.value).hex()
        frames[op] = json_frame(FrameType.OP, doc)
    return frames


async def read_reply(reader) -> Dict[str, Any]:
    from repro.tcp.framing import read_frame

    return (await read_frame(reader)).json()


async def open_conns(addresses: Dict[str, List[Any]], entries) -> List[Tuple[Any, Any]]:
    conns = []
    for entry in entries:
        host, port = addresses[entry.name]
        conns.append(await asyncio.open_connection(host, port))
    return conns


async def drive(host: TcpHost, addresses, windows, entries) -> List[Tuple[str, Dict, Any]]:
    """Run each ``(label, schedule)`` window; returns per-window results."""
    from loadgen import run_window

    conns = await open_conns(addresses, entries)
    out = []
    try:
        for label, schedule in windows:
            frames = encode_ops(schedule)
            before = host.command("mark")
            result = await run_window(schedule, conns, frames.__getitem__, read_reply)
            out.append((label, before, result))
    finally:
        for _, writer in conns:
            writer.close()
        await asyncio.gather(*(w.wait_closed() for _, w in conns), return_exceptions=True)
    return out


def tcp_session(trace: bool, windows, entries):
    """Host a cluster, drive ``windows`` against it, settle and verify."""
    from loadgen import precise_loop

    host = TcpHost(trace)
    try:
        ready = host.read()
        loop = precise_loop()
        try:
            results = loop.run_until_complete(drive(host, ready["addresses"], windows, entries))
        finally:
            loop.close()
        final = host.command("stop")
        verdict = host.read()
        host.proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        host.close()
    return ready, results, final, verdict


def window_stats(result, verdict, holders) -> Dict[str, Any]:
    """Latencies, failures and replication lag of one window."""
    writes, reads, lags = [], [], []
    failed = result.timed_out
    missing = 0
    applied = verdict["applied"]
    for outcome in result.outcomes:
        if not outcome.ok:
            failed += 1
            continue
        if outcome.op.kind == "read":
            reads.append(outcome.latency)
            continue
        writes.append(outcome.latency)
        issuer, seq = outcome.reply["uid"]
        record = applied.get(f"{issuer}:{seq}")
        if record is None or record[0] < holders[outcome.op.register] - 1:
            missing += 1
            continue
        lags.append(record[1] - (result.start + outcome.op.due))
    return {
        "writes": Dist(writes),
        "reads": Dist(reads),
        "lags": Dist(lags),
        "failed": failed,
        "missing": missing,
        "late": Dist(result.lateness),
    }


def tcp_verdict(ledger: Ledger, results, verdict, holders) -> List[Dict[str, Any]]:
    stats = []
    for _, _, result in results:
        ws = window_stats(result, verdict, holders)
        ledger.attempted += result.attempted
        ledger.failed += ws["failed"]
        if ws["missing"]:
            ledger.violations.append(f"{ws['missing']} writes not applied at every holder")
        ledger.violations.extend(result.errors)
        stats.append(ws)
    ledger.violations.extend(verdict["violations"] or (["verification failed"] if verdict["failed"] else []))
    if not ledger.correct:
        ledger.failed = ledger.attempted
    return stats


def ladder_rate(ledger: Ledger, workload: TcpWorkload, seed: int, entries, holders) -> Tuple[Optional[float], str, List[float]]:
    """Run the rate ladder on a fresh cluster; its ops and its
    verification count in ``ledger`` like those of the nominal window.
    Returns the rate, a note per step and the cluster's set-up times."""
    from loadgen import make_schedule

    windows = [
        (f"{rate:g}", make_schedule(seed * 100 + k, rate, workload.ladder_step_s, entries, workload.read_share))
        for k, rate in enumerate(workload.ladder)
    ]
    ready, results, _, verdict = tcp_session(False, windows, entries)
    steps = tcp_verdict(ledger, results, verdict, holders)
    best: Optional[float] = None
    notes = []
    passing = ledger.correct
    for rate, (label, _, result), ws in zip(workload.ladder, results, steps):
        p99 = ws["writes"].at(99)
        # A growing backlog: more than 50 ms of arrivals still queued
        # when the last request of the step was sent.
        growing = result.backlog_end > rate * 0.05
        ok = p99 is not None and p99 * 1e3 <= workload.ack_limit_ms and not growing and not ws["failed"]
        notes.append(f"{label}/s: p99 {'n/a' if p99 is None else f'{p99 * 1e3:.1f}'} ms, backlog {result.backlog_end}")
        passing = passing and ok
        if passing:
            best = rate
    return best, "; ".join(notes), ready["setup_s"]


def run_tcp(workload: TcpWorkload, seed: int, seconds: int) -> Ledger:
    from loadgen import make_schedule

    ledger = Ledger(workload.name)
    entries, holders = tcp_entries(workload)
    schedule = make_schedule(seed, workload.rate, seconds, entries, workload.read_share)
    ready, results, final, verdict = tcp_session(False, [("nominal", schedule)], entries)
    (ws,) = tcp_verdict(ledger, results, verdict, holders)
    _, before, result = results[0]
    ok_ops = ws["writes"].n + ws["reads"].n
    rate = f"{workload.rate:g} ops/s offered for {seconds} s"
    ledger.put("peak_rss_mb", verdict["maxrss_kb"] / 1024.0, "peak of the replica host")
    window = f"{ok_ops} ops at {rate}"
    ledger.put("throughput_ops_s", ok_ops / (final["ref_s"] - before["ref_s"]), f"per host reference-second, {window}")
    ledger.put("throughput_raw_ops_s", ok_ops / (final["cpu_s"] - before["cpu_s"]), f"per host CPU-second, {window}")
    ledger.put("metadata_bytes_per_op", verdict["metadata_bytes"] / verdict["issued"], f"{verdict['issued']} writes")
    ledger.put("messages_per_op", (final["frames"] - before["frames"]) / max(1, ws["writes"].n), f"{ws['writes'].n} writes")
    ledger.put_dist("write_ack", ws["writes"], 1e3, "ms")
    ledger.put_dist("read", ws["reads"], 1e3, "ms")
    ledger.put_dist("replication_lag", ws["lags"], 1e3, "ms")
    best, notes, ladder_setups = ladder_rate(ledger, workload, seed, entries, holders)
    ledger.put("max_rate_ops_s", best, f"ladder {notes}")
    # Set-up time follows the host's speed for tens of seconds; the two
    # clusters' set-ups sample it at two moments of the run.
    setups = ready["setup_s"] + ladder_setups
    ledger.put("setup_s", fmean(setups), f"mean of {len(setups)} set-ups of 2 clusters")
    ledger.put("error_rate", ledger.failed / max(1, ledger.attempted), f"{ledger.attempted} ops, nominal and ladder")
    return ledger


def trace_tcp(workload: TcpWorkload, seed: int, seconds: int) -> Ledger:
    """An untraced and a traced session over the same schedule."""
    from loadgen import make_schedule

    ledger = Ledger(workload.name)
    entries, holders = tcp_entries(workload)
    schedule = make_schedule(seed, workload.rate, seconds, entries, workload.read_share)
    sessions = [tcp_session(trace, [("nominal", schedule)], entries) for trace in (False, True)]
    (plain_ws,) = tcp_verdict(ledger, sessions[0][1], sessions[0][3], holders)
    (traced_ws,) = tcp_verdict(ledger, sessions[1][1], sessions[1][3], holders)
    ready, ((_, p_before, p_result),), p_final, p_verdict = sessions[0]
    _, ((_, t_before, _),), t_final, _ = sessions[1]

    def delta(key: str) -> float:
        return t_final[key] - t_before[key]

    def ops(ws: Dict[str, Any]) -> int:
        return ws["writes"].n + ws["reads"].n

    spans = Spans(
        {k: v - t_before["counts"].get(k, 0) for k, v in t_final["counts"].items()},
        {k: v - t_before["self_ns"].get(k, 0) for k, v in t_final["self_ns"].items()},
        ops(traced_ws),
    )
    writes = max(1, traced_ws["writes"].n)
    note = f"{spans.ops} ops, 1 traced window"
    layer_metrics(ledger, spans, note)
    put = ledger.put
    put("engine.pending_high_water", t_final["pending_high_water"], note)
    put("engine.apply_wait_mean_s", ratio(delta("apply_wait_total"), delta("applied_remote")), note)
    put("wal.appends_per_write", spans.count("wal.appends") / writes, note)
    put("wal.flushes_per_write", delta("wal_flushes") / writes, note)
    put("wal.bytes_per_write", delta("wal_bytes") / writes, note)
    setups = len(ready["setup_s"])
    for name in ("timestamp_graphs", "prewarm"):
        put(f"setup.{name}_s", t_before["self_ns"].get(f"setup.{name}", 0) / 1e9 / setups, f"mean of {setups} set-ups")

    untraced = "untraced window"
    for prefix, samples in (
        ("loop.lag", p_final["loop_lags"][p_before["loop_lags"]:]),
        ("loadgen.late", p_result.lateness),
    ):
        dist = Dist(samples)
        for p in (50, 99):
            value = dist.at(p)
            put(f"{prefix}_p{p}_ms", None if value is None else value * 1e3, f"n={dist.n}, {untraced}")
    put("tcp.outbox_high_water", p_final["outbox_high_water"], untraced)
    put("loadgen.backlog_end", p_result.backlog_end, untraced)
    put("checker.s", p_verdict["checker_s"], "untraced run, outside the timed window")
    p_cost = (p_final["ref_s"] - p_before["ref_s"]) / max(1, ops(plain_ws))
    t_cost = delta("ref_s") / spans.ops
    put("trace.overhead_ratio", t_cost / p_cost, "host reference-seconds per op, traced / untraced")
    fill_absent(ledger)
    return ledger


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: int, trace: bool) -> Ledger:
    workload = WORKLOADS[name]
    try:
        if isinstance(workload, SimWorkload):
            return trace_sim(workload, seed) if trace else run_sim(workload, seed, seconds)
        return trace_tcp(workload, seed, seconds) if trace else run_tcp(workload, seed, seconds)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        ledger = Ledger(name)
        ledger.attempted = ledger.failed = 1
        ledger.violations.append(f"run aborted: {exc!r}")
        return ledger


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()

    names = [args.workload] if args.workload else list(WORKLOADS)
    ledgers = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    wanted = [m.name for m in LISTED] if args.trace else [m.name for m in GATED]
    shown = [m.name for m in LAYERS] if args.trace else [m.name for m in END_TO_END]
    for ledger in ledgers:
        ledger.print(shown)

    def metrics_of(ledger: Ledger) -> Dict[str, Any]:
        return {
            name: {"value": ledger.values[name], "unit": UNITS[name]}
            for name in wanted
            if name in ledger.values
        }

    correct = all(ledger.correct for ledger in ledgers)
    summary: Dict[str, Any] = {
        "correct": correct,
        "attempted": sum(ledger.attempted for ledger in ledgers),
        "failed": sum(ledger.failed for ledger in ledgers),
    }
    if len(ledgers) == 1:
        summary["metrics"] = metrics_of(ledgers[0])
    else:
        summary["metrics"] = {ledger.workload: metrics_of(ledger) for ledger in ledgers}
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
