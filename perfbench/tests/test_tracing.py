"""Span accounting of the layer tracer."""

import importlib

from tracing import Tracer, install


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 5

    def helper():  # same layer as ``middle``: not a boundary
        clock.now += 4

    def middle():
        clock.now += 3
        leaf_t()
        helper_t()
        clock.now += 2

    def outer():
        clock.now += 10
        middle_t()
        clock.now += 1
        middle_t()

    leaf_t = tracer.wrap("c", "leaf", leaf)
    helper_t = tracer.wrap("b", "helper", helper)
    middle_t = tracer.wrap("b", "middle", middle)
    outer_t = tracer.wrap("a", "outer", outer)
    outer_t()

    assert clock.now == 11 + 2 * (3 + 5 + 4 + 2)
    assert tracer.self_ns == {"a": 11, "b": 2 * (3 + 4 + 2), "c": 2 * 5}
    assert sum(tracer.self_ns.values()) == clock.now
    # Calls are counted where a layer is entered from another layer;
    # ``helper`` ran inside layer b and is neither timed nor counted.
    assert dict(tracer.counts) == {"a.calls.outer": 1, "b.calls.middle": 2, "c.calls.leaf": 2}


def test_counts_are_recorded_at_the_span_boundary_and_cost_no_parent_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def slow_count(t, args, result):
        clock.now += 100  # bookkeeping cost: charged to no layer
        t.add("child.bytes", len(result))

    child = tracer.wrap("child", "encode", lambda n: b"x" * n, count=slow_count)

    def parent():
        clock.now += 7
        child(3)
        child(4)

    tracer.wrap("parent", "run", parent)()
    assert tracer.counts["child.bytes"] == 7
    assert tracer.counts["child.calls.encode"] == 2
    assert tracer.self_ns["parent"] == 7
    assert tracer.self_ns["child"] == 0


def test_inner_counts_run_inside_the_same_layer():
    tracer = Tracer(clock=FakeClock())
    sends = tracer.wrap("net", "_transmit", lambda: None, count=lambda t, a, r: t.add("net.tx"), inner=True)

    def send():
        sends()
        sends()

    tracer.wrap("net", "send", send)()
    assert tracer.counts["net.tx"] == 2
    assert tracer.counts["net.calls.send"] == 1
    assert "net.calls._transmit" not in tracer.counts


def test_patch_function_rebinds_every_import_and_uninstall_restores():
    codec = importlib.import_module("repro.wire.codec")
    core = importlib.import_module("repro.core.engine.core")
    original = codec.timestamp_wire_bytes
    assert core.timestamp_wire_bytes is original
    tracer = Tracer()
    tracer.patch_function(codec, "timestamp_wire_bytes", "codec")
    try:
        assert core.timestamp_wire_bytes is codec.timestamp_wire_bytes
        assert core.timestamp_wire_bytes is not original
    finally:
        tracer.uninstall()
    assert codec.timestamp_wire_bytes is original
    assert core.timestamp_wire_bytes is original


def test_wrappers_must_be_installed_before_a_system_is_wired():
    """The engine binds the policy's fast paths once, when it is built."""
    from repro.core.system import DSMSystem
    from repro.workloads import ring_placements

    def advance_calls(system) -> int:
        start = tracer.counts.get("policy.calls.advance_delta", 0)
        system.client(1).write("s1_2", 1)
        system.run()
        return tracer.counts.get("policy.calls.advance_delta", 0) - start

    tracer = Tracer()
    before = DSMSystem(ring_placements(4), seed=1)
    install(tracer)
    try:
        assert advance_calls(before) == 0
        after = DSMSystem(ring_placements(4), seed=1)
        assert advance_calls(after) == 1
        assert after.check().ok
    finally:
        tracer.uninstall()
