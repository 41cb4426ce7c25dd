"""Open-loop load generator for the TCP cluster.

Arrivals are Poisson at a fixed offered rate and are sent when due
whether or not earlier requests were answered, as independent users
would send them.  Each connection is pipelined: the server answers a
connection's requests in order, so replies are matched to requests
first-in, first-out.  Every latency is timed from the request's *due*
time, so a stalled reply charges its wait to every request queued
behind it, and a generator that ran late charges its own lateness too.

The generator needs an event loop whose timers fire on time.  The
default selector on Linux, ``epoll``, rounds every timeout up to a
whole millisecond; :func:`precise_loop` builds a loop over ``select``,
whose timeout has microsecond resolution.
"""

from __future__ import annotations

import asyncio
import random
import selectors
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Op:
    """One scheduled client request."""

    due: float  # seconds after the start of the window
    conn: int  # index of the connection (entry replica) it goes to
    kind: str  # "write" or "read"
    register: str
    value: str = ""


@dataclass(frozen=True)
class Entry:
    """One entry replica: the registers clients write and read there."""

    name: str
    writes: Tuple[str, ...]
    reads: Tuple[str, ...]


def make_schedule(
    seed: int,
    rate: float,
    seconds: float,
    entries: Sequence[Entry],
    read_share: float,
) -> List[Op]:
    """A seeded Poisson schedule spread uniformly over ``entries``."""
    if rate <= 0 or seconds <= 0 or not entries:
        raise ValueError("need rate > 0, seconds > 0 and an entry replica")
    rng = random.Random(seed)
    ops: List[Op] = []
    clock = 0.0
    writes = 0
    while True:
        clock += rng.expovariate(rate)
        if clock >= seconds:
            return ops
        conn = rng.randrange(len(entries))
        entry = entries[conn]
        if rng.random() < read_share:
            ops.append(Op(clock, conn, "read", rng.choice(entry.reads)))
        else:
            writes += 1
            ops.append(
                Op(clock, conn, "write", rng.choice(entry.writes), f"s{seed}w{writes}")
            )


def precise_loop() -> asyncio.AbstractEventLoop:
    """An event loop whose timers wake within microseconds, not milliseconds."""
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


@dataclass
class Outcome:
    """What happened to one request."""

    op: Op
    latency: float  # seconds from due time to reply
    reply: Dict[str, Any]

    @property
    def ok(self) -> bool:
        return bool(self.reply.get("ok"))


@dataclass
class WindowResult:
    """All requests of one window and how the generator kept time."""

    outcomes: List[Outcome] = field(default_factory=list)
    #: Seconds each request was sent after its due time.
    lateness: List[float] = field(default_factory=list)
    #: Requests sent but unanswered when the last one was sent.
    backlog_end: int = 0
    #: Requests never answered before the reply timeout.
    timed_out: int = 0
    attempted: int = 0
    #: Loop time of the window's offset 0 (due times are relative to it).
    start: float = 0.0
    #: Connection errors that ended a receiver early.
    errors: List[str] = field(default_factory=list)


Encode = Any  # (Op) -> bytes
ReadReply = Any  # async (StreamReader) -> dict


async def run_window(
    schedule: Sequence[Op],
    conns: Sequence[Tuple[asyncio.StreamReader, asyncio.StreamWriter]],
    encode: Encode,
    read_reply: ReadReply,
    reply_timeout: float = 10.0,
    start: Optional[float] = None,
) -> WindowResult:
    """Send ``schedule`` open-loop over ``conns``; time every reply.

    ``start`` is the loop time of offset 0 (default: shortly from now).
    """
    loop = asyncio.get_running_loop()
    if start is None:
        start = loop.time() + 0.02
    result = WindowResult(attempted=len(schedule), start=start)
    inflight: List[Deque[Tuple[Op, float]]] = [deque() for _ in conns]
    remaining = [0] * len(conns)
    for op in schedule:
        remaining[op.conn] += 1

    async def receive(index: int) -> None:
        reader = conns[index][0]
        queue = inflight[index]
        while remaining[index]:
            reply = await read_reply(reader)
            now = loop.time()
            op, due = queue.popleft()
            result.outcomes.append(Outcome(op, now - due, reply))
            remaining[index] -= 1

    receivers = [asyncio.ensure_future(receive(i)) for i in range(len(conns))]
    try:
        for op in schedule:
            due = start + op.due
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = loop.time()
            result.lateness.append(max(0.0, sent - due))
            inflight[op.conn].append((op, due))
            conns[op.conn][1].write(encode(op))
        result.backlog_end = sum(len(q) for q in inflight)
        await asyncio.wait(receivers, timeout=reply_timeout)
    finally:
        for task in receivers:
            if not task.done():
                task.cancel()
        await asyncio.gather(*receivers, return_exceptions=True)
    for task in receivers:
        if not task.cancelled() and task.exception() is not None:
            result.errors.append(repr(task.exception()))
    result.timed_out = sum(len(q) for q in inflight)
    return result
