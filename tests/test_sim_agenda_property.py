"""Property test: the simulator agenda against a naive reference model.

A random script of ``schedule`` / ``schedule_at`` / ``cancel`` calls --
including callbacks that schedule and cancel further events, many equal
times, and bursts of cancellations large enough to trigger the lazy
compaction -- drives both :class:`~repro.sim.Simulator` and a list-based
model that finds the next event by a linear ``min`` over ``(time, seq)``.
The two must execute the same events in the same order and agree on
every counter after every callback and every ``run`` call.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import Simulator


class _RefEntry:
    def __init__(self, time: float, seq: int, callback: Any, args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.done = False


class _RefHandle:
    def __init__(self, entry: _RefEntry, sim: "RefSimulator") -> None:
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> float:
        return self._entry.time

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    def cancel(self) -> None:
        entry = self._entry
        if entry.cancelled or entry.done:
            return
        entry.cancelled = True
        dead = sum(e.cancelled for e in self._sim.entries)
        if dead >= Simulator._COMPACT_MIN and dead * 2 > len(self._sim.entries):
            self._sim.entries = [e for e in self._sim.entries if not e.cancelled]


class RefSimulator:
    """The agenda's specification: an unsorted list scanned with ``min``."""

    def __init__(self) -> None:
        self.entries: List[_RefEntry] = []
        self.now = 0.0
        self.events_executed = 0
        self._seq = 0

    @property
    def pending_events(self) -> int:
        return len(self.entries)

    @property
    def live_events(self) -> int:
        return sum(not e.cancelled for e in self.entries)

    def drained(self) -> bool:
        return self.live_events == 0

    def schedule(self, delay: float, callback: Any, *args: Any) -> _RefHandle:
        assert 0 <= delay
        entry = _RefEntry(self.now + delay, self._seq, callback, args)
        self._seq += 1
        self.entries.append(entry)
        return _RefHandle(entry, self)

    def schedule_at(self, time: float, callback: Any, *args: Any) -> _RefHandle:
        return self.schedule(time - self.now, callback, *args)

    def _pop_head(self) -> _RefEntry:
        head = min(self.entries, key=lambda e: (e.time, e.seq))
        self.entries.remove(head)
        return head

    def _peek_live(self) -> Optional[_RefEntry]:
        while self.entries:
            head = min(self.entries, key=lambda e: (e.time, e.seq))
            if not head.cancelled:
                return head
            self.entries.remove(head)
        return None

    def step(self) -> bool:
        while self.entries:
            entry = self._pop_head()
            if entry.cancelled:
                continue
            entry.done = True
            self.now = entry.time
            self.events_executed += 1
            entry.callback(*entry.args)
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        executed = 0
        while max_events is None or executed < max_events:
            if until is not None:
                head = self._peek_live()
                if head is None or head.time > until:
                    return
            if not self.step():
                return
            executed += 1


class CountingSimulator(Simulator):
    """Counts ``step`` calls, as the per-layer tracer does."""

    steps = 0

    def step(self) -> bool:
        self.steps += 1
        return super().step()


# ----------------------------------------------------------------------
# Scripts
# ----------------------------------------------------------------------
# Few distinct delays, so many events share a time and ties are common.
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 3.0])
CANCEL = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6))
BURST = st.tuples(st.just("burst"), st.integers(min_value=1, max_value=70), DELAYS)
SCHEDULE_LEAF = st.tuples(
    st.sampled_from(["delay", "at"]), DELAYS, st.just(())
)
OP = st.recursive(
    st.one_of(SCHEDULE_LEAF, CANCEL, BURST),
    lambda children: st.tuples(
        st.sampled_from(["delay", "at"]), DELAYS, st.lists(children, max_size=4)
    ),
    max_leaves=12,
)
RUNS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0])),
        st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    ),
    max_size=6,
)


def _observe(sim: Any) -> Tuple:
    return (
        sim.now,
        sim.events_executed,
        sim.live_events,
        sim.pending_events,
        sim.drained(),
    )


def drive(sim: Any, setup: list, runs: list) -> Tuple[list, list]:
    """Run one script against ``sim``; return its trace and its handles."""
    handles: list = []
    trace: list = []

    def fire(label: int, children: tuple) -> None:
        trace.append(("fire", label, _observe(sim)))
        for op in children:
            apply(op)
        trace.append(("after", label, _observe(sim)))

    def apply(op: tuple) -> None:
        kind = op[0]
        if kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "burst":
            # Schedule a run of events, then cancel them all (a link
            # going down takes its retransmission timers with it).
            _, count, delay = op
            first = len(handles)
            for _ in range(count):
                handles.append(sim.schedule(delay, fire, len(handles), ()))
            for handle in handles[first:]:
                handle.cancel()
        else:
            _, delay, children = op
            label = len(handles)
            if kind == "delay":
                handles.append(sim.schedule(delay, fire, label, children))
            else:
                handles.append(sim.schedule_at(sim.now + delay, fire, label, children))

    for op in setup:
        apply(op)
    trace.append(("setup", None, _observe(sim)))
    for until, max_events in runs:
        sim.run(until=until, max_events=max_events)
        trace.append(("run", (until, max_events), _observe(sim)))
    sim.run()
    trace.append(("drained", None, _observe(sim)))
    return trace, handles


@settings(max_examples=120, deadline=None)
@given(
    setup=st.lists(OP, max_size=12),
    bulk=st.integers(min_value=64, max_value=100),
    bulk_at=st.integers(min_value=0, max_value=12),
    bulk_delay=DELAYS,
    runs=RUNS,
)
def test_agenda_matches_reference_model(setup, bulk, bulk_at, bulk_delay, runs):
    # At least 64 cancellations in every script, so compaction runs.
    setup = list(setup)
    setup.insert(min(bulk_at, len(setup)), ("burst", bulk, bulk_delay))

    sim = CountingSimulator()
    trace, handles = drive(sim, setup, runs)
    ref_trace, ref_handles = drive(RefSimulator(), setup, runs)
    assert trace == ref_trace
    # run() dispatches every event through step(), and calls step() only
    # when a live event is due.
    assert sim.steps == sim.events_executed

    # Scheduled events run in (time, seq) order, cancelled ones never.
    fired = [label for kind, label, _ in trace if kind == "fire"]
    kept = [seq for seq, h in enumerate(handles) if not h.cancelled]
    assert fired == sorted(kept, key=lambda seq: (handles[seq].time, seq))
    assert [h.cancelled for h in handles] == [h.cancelled for h in ref_handles]
    assert [h.time for h in handles] == [h.time for h in ref_handles]


def test_compaction_runs_inside_the_property_scripts():
    """The burst the property test inserts is large enough to compact."""
    sim = Simulator()
    trace, handles = drive(sim, [("burst", 64, 1.0)], [])
    setup_pending = trace[0][2][3]
    assert len(handles) == 64 and setup_pending < 64
