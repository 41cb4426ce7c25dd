"""The open-loop generator: seeded schedules and due-time accounting."""

import asyncio

from loadgen import Entry, Op, make_schedule, precise_loop, run_window

ENTRIES = [
    Entry("1", writes=("x1", "x2"), reads=("p1", "x1", "x2")),
    Entry("2", writes=("x3",), reads=("p2", "x3")),
]


def test_schedule_is_a_function_of_its_seed():
    first = make_schedule(7, 600.0, 5.0, ENTRIES, 0.3)
    assert first == make_schedule(7, 600.0, 5.0, ENTRIES, 0.3)
    assert first != make_schedule(8, 600.0, 5.0, ENTRIES, 0.3)
    dues = [op.due for op in first]
    assert dues == sorted(dues) and 0 < dues[0] and dues[-1] < 5.0
    assert 2700 < len(first) < 3300  # Poisson at 600/s for 5 s
    reads = [op for op in first if op.kind == "read"]
    assert 0.25 < len(reads) / len(first) < 0.35
    for op in first:
        entry = ENTRIES[op.conn]
        assert op.register in (entry.reads if op.kind == "read" else entry.writes)
    values = [op.value for op in first if op.kind == "write"]
    assert len(set(values)) == len(values)


def _serve(stall_index: int, stall_s: float, handlers: list):
    """A pipelined echo server: answers in order, stalling one reply."""
    seen = {"n": 0}

    async def handle(reader, writer):
        handlers.append(asyncio.current_task())
        try:
            while True:
                header = await reader.readexactly(4)
                await reader.readexactly(int.from_bytes(header, "big"))
                if seen["n"] == stall_index:
                    await asyncio.sleep(stall_s)
                seen["n"] += 1
                writer.write(b"ok")
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    return handle


def test_a_stalled_reply_charges_its_wait_to_the_requests_behind_it():
    stall, gap = 0.100, 0.005
    schedule = [Op(k * gap, 0, "write", "x1") for k in range(30)]

    async def scenario():
        handlers: list = []
        server = await asyncio.start_server(_serve(5, stall, handlers), "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        conn = await asyncio.open_connection("127.0.0.1", port)

        async def read_reply(reader):
            await reader.readexactly(2)
            return {"ok": True}

        try:
            return await run_window(
                schedule, [conn], lambda op: b"\x00\x00\x00\x01w", read_reply
            )
        finally:
            conn[1].close()
            await conn[1].wait_closed()
            server.close()
            await server.wait_closed()
            await asyncio.gather(*handlers)

    loop = precise_loop()
    try:
        result = loop.run_until_complete(scenario())
    finally:
        loop.close()

    assert result.timed_out == 0 and not result.errors
    latency = {round(o.op.due / gap): o.latency for o in result.outcomes}
    assert sorted(latency) == list(range(30))
    # Open loop: requests due during the stall were still sent on time.
    assert max(result.lateness[6:20]) < stall / 2
    # They wait for the stalled reply, timed from their due time:
    # request 5+j is due j gaps after the stalled one, so it waits at
    # least (stall - j * gap).
    for j in range(20):
        assert latency[5 + j] >= stall - j * gap
    assert max(latency[k] for k in range(5)) < stall / 2
    assert latency[29] < stall / 2
