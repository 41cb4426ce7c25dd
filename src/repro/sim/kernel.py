"""Event-driven simulation kernel.

A :class:`Simulator` owns a virtual clock and a binary-heap agenda of
callbacks.  Ties on the clock are broken by a monotonically increasing
sequence number, which makes execution order fully deterministic for a
given schedule -- an essential property for the causal-consistency
experiments, which must be replayable from a seed.

The agenda holds ``(time, seq, event)`` tuples, so ``heapq`` orders it
with C tuple comparisons; ``seq`` is unique, so the comparison never
reaches the :class:`Event` itself.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


class Event:
    """A scheduled callback, executed in ``(time, seq)`` order."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "done")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., None], args: tuple = ()
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.done = False

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, "
            f"callback={self.callback!r}, cancelled={self.cancelled!r})"
        )


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Allows a pending event to be cancelled without disturbing the heap.
    """

    __slots__ = ("_event", "_simulator")

    def __init__(self, event: Event, simulator: "Simulator") -> None:
        self._event = event
        self._simulator = simulator

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        event = self._event
        if event.cancelled or event.done:
            return  # cancelling twice, or after execution, is a no-op
        event.cancelled = True
        self._simulator._note_cancelled()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  All
        stochastic components (delay models, workloads) must draw from
        :attr:`rng` so a run is reproducible from this single seed.
    """

    #: Compact the agenda once at least this many cancelled events are
    #: buried in it (and they outnumber the live ones) -- keeps heap
    #: operations O(log live) under cancellation-heavy fault schedules.
    _COMPACT_MIN = 64

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self._agenda: List[Tuple[float, int, Event]] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._events_executed: int = 0
        self._live: int = 0
        self._cancelled_pending: int = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for budget accounting)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still on the agenda (including cancelled)."""
        return len(self._agenda)

    @property
    def live_events(self) -> int:
        """Number of non-cancelled events still on the agenda."""
        return self._live

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._cancelled_pending += 1
        # Lazy purge: cancelled events normally pop off the heap for free,
        # but if they pile up (mass link-down cancellations) rebuild once.
        agenda = self._agenda
        if (
            self._cancelled_pending >= self._COMPACT_MIN
            and self._cancelled_pending * 2 > len(agenda)
        ):
            # In place: run() holds a reference to the list.
            agenda[:] = [entry for entry in agenda if not entry[2].cancelled]
            heapq.heapify(agenda)
            self._cancelled_pending = 0

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        ``delay`` must be finite and non-negative: a NaN would compare
        false against every heap entry and run out of order, an infinite
        one would move the clock to infinity.
        """
        if not 0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative (delay={delay})"
            )
        seq = self._seq
        self._seq = seq + 1
        time = self._now + delay
        event = Event(time, seq, callback, args)
        _heappush(self._agenda, (time, seq, event))
        self._live += 1
        return EventHandle(event, self)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    def step(self) -> bool:
        """Execute the next event.  Returns False when the agenda is empty."""
        agenda = self._agenda
        while agenda:
            time, _, event = _heappop(agenda)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            event.done = True
            self._live -= 1
            self._now = time
            self._events_executed += 1
            event.callback(*event.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the agenda drains (or a budget is reached).

        Parameters
        ----------
        until:
            Stop once the clock would pass this virtual time.  Events at
            exactly ``until`` still execute.
        max_events:
            Stop after executing this many events (guards against
            accidental livelock in experiments).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        agenda = self._agenda
        step = self.step
        executed = 0
        try:
            while agenda:
                if max_events is not None and executed >= max_events:
                    return
                time, _, event = agenda[0]
                if event.cancelled:
                    _heappop(agenda)
                    self._cancelled_pending -= 1
                    continue
                if until is not None and time > until:
                    return
                step()
                executed += 1
        finally:
            self._running = False

    def drained(self) -> bool:
        """True when no live (non-cancelled) event remains.  O(1)."""
        return self._live == 0
