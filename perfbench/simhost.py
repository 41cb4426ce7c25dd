"""Child process that hosts the simulator workloads.

Usage::

    python3 perfbench/simhost.py --workload dense-batched --seed 1 \\
        --repeats 3 [--trace]

Runs the workload's write stream for ``--seed`` ``--repeats`` times,
each time on a freshly built system, and prints one JSON document on
its last stdout line.  Running in its own process makes the reported
peak RSS that of these runs alone.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
from typing import Any, Dict, List

from common import require_program

require_program()

from metrics import EXACT_RUN_FIELDS  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracing import Tracer, install  # noqa: E402
from workloads import WORKLOADS, SimWorkload  # noqa: E402


def build(workload: SimWorkload, seed: int):
    from repro.core.system import DSMSystem

    kwargs: Dict[str, Any] = {}
    if workload.loss or workload.duplication:
        from repro.network.faults import ChannelFaults, FaultPlan

        kwargs["fault_plan"] = FaultPlan(
            seed=seed,
            default=ChannelFaults(
                loss=workload.loss, duplication=workload.duplication
            ),
        )
    if workload.vectorized:
        kwargs["vectorized"] = True
    if workload.batch_window:
        kwargs["batch_window"] = workload.batch_window
    return DSMSystem(workload.placements(), seed=seed, **kwargs)


def written_values(stream) -> Dict[Any, Any]:
    """``UpdateId -> value`` of every write in ``stream``.

    A replica numbers its writes 1, 2, ... in issue order, and the
    simulator issues a stream's writes in stream order, so the ids
    follow from the stream alone.
    """
    from repro.types import UpdateId

    seqs: Dict[Any, int] = {}
    values: Dict[Any, Any] = {}
    for op in stream:
        seqs[op.replica] = seqs.get(op.replica, 0) + 1
        values[UpdateId(op.replica, seqs[op.replica])] = op.value
    return values


def apply_lags(history) -> List[float]:
    """Virtual time from each update's issue to its apply at its last holder."""
    issued: Dict[Any, float] = {}
    last: Dict[Any, float] = {}
    for event in history.events:
        if event.kind == "issue":
            issued[event.uid] = event.time
        elif event.kind == "apply":
            if event.time > last.get(event.uid, -1.0):
                last[event.uid] = event.time
    return [round(last[uid] - issued[uid], 9) for uid in last]


#: CPU seconds of simulation per timed chunk; the speed meter samples
#: the machine before each chunk.  Events differ in cost by orders of
#: magnitude between workloads, so the chunk is sized in time.
CHUNK_S = 0.005
#: Speed-meter samples taken just before each timed set-up.
SETUP_SAMPLES = 5


def run_once(workload: SimWorkload, seed: int, verify: bool) -> Dict[str, Any]:
    """Build, run to quiescence in timed chunks, and optionally verify."""
    from repro.harness.chaos import store_divergence
    from repro.workloads import uniform_writes

    # Set-up is pure computation, so it is timed like the run: CPU time
    # in reference-seconds.  Earlier systems' garbage is collected
    # before each build, not inside it.
    meter = SpeedMeter()
    setups: List[float] = []
    for _ in range(workload.setups_per_rep):
        system = None
        gc.collect()
        for _ in range(SETUP_SAMPLES):
            meter.sample()
        start = time.process_time()
        system = build(workload, seed)
        setups.append((time.process_time() - start) * meter.scale())
    stream = uniform_writes(system.graph, workload.writes, workload.rate, seed=seed)
    for op in stream:
        system.schedule_write(op.time, op.replica, op.register, op.value)

    simulator = system.simulator
    cpu_s = ref_s = 0.0
    events = 64
    while not simulator.drained():
        meter.sample()
        cpu_start = time.process_time()
        simulator.run(max_events=events)
        cpu = time.process_time() - cpu_start
        cpu_s += cpu
        ref_s += cpu * meter.scale()
        events = max(1, min(4 * events, round(events * CHUNK_S / max(cpu, 1e-6))))

    stats = system.network.stats
    replicas = system.replicas.values()
    out: Dict[str, Any] = {
        "setup_s": setups,
        "cpu_s": cpu_s,
        "ref_s": ref_s,
        "metadata_bytes": stats.metadata_bytes_sent,
        # Transmissions the senders made: first sends, retransmissions
        # and acks (copies the fault model duplicates are not sent).
        "transmissions": stats.messages_sent + stats.retransmits + stats.acks_sent,
        "retransmits": stats.retransmits,
        "first_deliveries": stats.messages_delivered,
        "unacked_high_water": stats.unacked_high_water,
        "pending_high_water": max(r.metrics.pending_high_water for r in replicas),
        "apply_wait_total": sum(r.metrics.apply_delay_total for r in replicas),
        "applied_remote": sum(r.metrics.applied_remote for r in replicas),
        "events": simulator.events_executed,
    }
    if verify:
        check_start = time.perf_counter()
        violations: List[str] = []
        if not system.quiescent():
            violations.append("run did not go quiescent")
        report = system.check()
        violations.extend(str(v) for v in report.violations)
        violations.extend(store_divergence(system, written_values(stream)))
        out["checker_s"] = time.perf_counter() - check_start
        out["violations"] = violations[:5]
        out["lags"] = apply_lags(system.history)
    return out


def run(workload: SimWorkload, seed: int, repeats: int) -> Dict[str, Any]:
    """``repeats`` identical runs of one seed; the first one is verified.

    The simulator is deterministic, so every repetition does the same
    work: their times differ only by interference from outside.
    """
    runs = [run_once(workload, seed, verify=(k == 0)) for k in range(repeats)]
    first = runs[0]
    violations = list(first["violations"])
    for other in runs[1:]:
        differ = [f for f in EXACT_RUN_FIELDS if other[f] != first[f]]
        if differ:
            violations.append(f"identical repetitions differ in {differ}")
    doc = dict(first)
    doc["writes"] = workload.writes
    doc["setup_s"] = [t for r in runs for t in r["setup_s"]]
    doc["cpu_s"] = [r["cpu_s"] for r in runs]
    doc["ref_s"] = [r["ref_s"] for r in runs]
    doc["violations"] = violations
    doc["failed"] = bool(violations)
    return doc


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=["dense-batched", "ring-lossy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    assert isinstance(workload, SimWorkload)

    # Import everything a run touches first, so that no set-up pays for
    # a first import (numpy, under the vectorized policy) and traced and
    # untraced runs start alike.
    for module in ("core.system", "optimizations.vectorized", "network.faults",
                   "harness.chaos", "checker", "workloads"):
        importlib.import_module(f"repro.{module}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    doc = run(workload, args.seed, args.repeats)
    doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        doc["counts"] = dict(tracer.counts)
        doc["self_ns"] = dict(tracer.self_ns)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
