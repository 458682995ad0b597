"""Span arithmetic and the wrappers' hygiene."""

import asyncio

import pytest

from bench import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_subtract_child_coverage():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    tracer.enter("outer", "net.simulator")       # 0 .. 10
    clock.now = 1.0
    tracer.enter("middle", "dataplane.switch")   # 1 .. 7
    clock.now = 2.0
    tracer.enter("inner", "crypto")              # 2 .. 5
    clock.now = 5.0
    tracer.exit()
    clock.now = 7.0
    tracer.exit()
    clock.now = 10.0
    tracer.exit()
    assert tracer.self_s("crypto") == pytest.approx(3.0)
    assert tracer.self_s("dataplane.switch") == pytest.approx(6.0 - 3.0)
    assert tracer.self_s("net.simulator") == pytest.approx(10.0 - 6.0)
    assert tracer.covered_s() == pytest.approx(10.0)
    assert [tracer.calls(layer) for layer in
            ("crypto", "dataplane.switch", "net.simulator")] == [1, 1, 1]


def test_sibling_spans_and_same_layer_nesting():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    tracer.enter("root", "core.controller")      # 0 .. 9
    for start, end in ((1.0, 2.0), (4.0, 6.5)):  # two siblings
        clock.now = start
        tracer.enter("digest", "crypto")
        clock.now = end
        tracer.exit()
    clock.now = 7.0
    tracer.enter("sign", "crypto")               # crypto inside crypto
    clock.now = 7.5
    tracer.enter("digest", "crypto")
    clock.now = 8.5
    tracer.exit()
    clock.now = 9.0
    tracer.exit()
    tracer.exit()
    assert tracer.self_s("crypto") == pytest.approx(1.0 + 2.5 + 2.0)
    assert tracer.self_s("core.controller") == pytest.approx(9.0 - 5.5)
    assert tracer.calls("crypto") == 4
    # The list-based arithmetic agrees with the on-the-fly totals.
    by_layer = spans.layer_self_times(tracer.spans)
    assert by_layer["crypto"] == pytest.approx(tracer.self_s("crypto"))
    assert by_layer["core.controller"] == pytest.approx(
        tracer.self_s("core.controller"))


def test_parent_and_root_ids():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    tracer.enter("a", "x")
    tracer.enter("b", "y")
    tracer.exit()
    tracer.exit()
    tracer.enter("c", "x")
    tracer.exit()
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["b"][5] == by_name["a"][0]          # parent
    assert by_name["b"][6] == by_name["a"][0]          # shared root
    assert by_name["a"][5] == -1 and by_name["c"][5] == -1
    assert by_name["c"][6] == by_name["c"][0] != by_name["a"][6]


def test_keep_limit_bounds_the_span_list_not_the_totals():
    tracer = spans.Tracer(clock=FakeClock(), keep=3)
    for _ in range(10):
        tracer.enter("s", "x")
        tracer.exit()
    assert len(tracer.spans) == 3 and tracer.calls("x") == 10


def test_install_wraps_and_uninstall_restores_the_originals():
    from repro.core import wire
    from repro.core.messages import build_reg_read_request
    from repro.crypto.halfsiphash import HalfSipHash
    from repro.dataplane.pipeline import Pipeline
    from repro.net.simulator import EventSimulator

    originals = (EventSimulator.__dict__["run"],
                 HalfSipHash.__dict__["digest"],
                 Pipeline.__dict__["add_stage"], wire.serialize_message)
    expected_tag = HalfSipHash().digest(7, b"abc")
    packet = build_reg_read_request(1, 2, 3)
    expected_wire = wire.serialize_message(packet)

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert EventSimulator.__dict__["run"] is not originals[0]
        tracer.enabled = True
        assert HalfSipHash().digest(7, b"abc") == expected_tag
        assert wire.serialize_message(packet) == expected_wire
        sim = EventSimulator()
        fired = []
        sim.schedule(1.0, fired.append, "x")
        assert sim.run() == 1 and fired == ["x"]
        tracer.enabled = False
        assert tracer.calls("crypto") >= 1
        assert tracer.calls("core.wire") == 1
        assert tracer.calls("net.simulator") == 1
        with pytest.raises(RuntimeError):
            spans.install(tracer)
    finally:
        spans.uninstall()
    assert (EventSimulator.__dict__["run"], HalfSipHash.__dict__["digest"],
            Pipeline.__dict__["add_stage"],
            wire.serialize_message) == originals
    assert spans.ACTIVE is None


def test_stage_functions_are_mapped_to_layers_by_name():
    assert spans.stage_layer("p4auth_verify") == "core.auth_dataplane"
    assert spans.stage_layer("hula") == "systems"
    assert spans.stage_layer("plain_regop") == "runtime"


def test_coroutine_steps_keep_value_exception_and_one_call():
    tracer = spans.Tracer()

    async def inner(fail):
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        if fail:
            raise ValueError("boom")
        return 42

    traced = spans._wrap_async(tracer, inner, "inner", "service.daemon")
    tracer.enabled = True
    assert asyncio.run(traced(False)) == 42
    with pytest.raises(ValueError):
        asyncio.run(traced(True))
    tracer.enabled = False
    assert tracer.calls("service.daemon") == 2      # calls, not steps
    assert len(tracer.spans) == 6                   # three steps each
    assert not tracer._stack
