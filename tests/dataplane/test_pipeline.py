"""Pipeline and context: stage ordering, verdicts, short-circuiting."""

import pytest

from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import (
    Drop,
    Emit,
    Pipeline,
    PipelineContext,
    ToController,
)
from repro.dataplane.switch import DataplaneSwitch
from repro.telemetry import Telemetry


def run(pipeline, packet=None, port=1):
    ctx = PipelineContext(switch=DataplaneSwitch("s1"),
                          packet=packet or Packet(),
                          ingress_port=port)
    return pipeline.run(ctx), ctx


def test_stages_run_in_order():
    trace = []
    pipeline = Pipeline()
    pipeline.add_stage("a", lambda ctx: trace.append("a"))
    pipeline.add_stage("b", lambda ctx: trace.append("b"))
    run(pipeline)
    assert trace == ["a", "b"]


def test_insert_stage_at_front():
    trace = []
    pipeline = Pipeline()
    pipeline.add_stage("b", lambda ctx: trace.append("b"))
    pipeline.insert_stage(0, "a", lambda ctx: trace.append("a"))
    run(pipeline)
    assert trace == ["a", "b"]
    assert pipeline.stage_names() == ["a", "b"]


def test_duplicate_stage_name_rejected():
    pipeline = Pipeline()
    pipeline.add_stage("a", lambda ctx: None)
    with pytest.raises(ValueError):
        pipeline.add_stage("a", lambda ctx: None)
    with pytest.raises(ValueError):
        pipeline.insert_stage(0, "a", lambda ctx: None)


def test_drop_short_circuits():
    trace = []
    pipeline = Pipeline()
    pipeline.add_stage("a", lambda ctx: ctx.drop("bad"))
    pipeline.add_stage("b", lambda ctx: trace.append("b"))
    actions, ctx = run(pipeline)
    assert trace == []
    assert len(actions) == 1
    assert isinstance(actions[0], Drop)
    assert actions[0].reason == "bad"


def test_stop_skips_remaining_without_drop():
    trace = []
    pipeline = Pipeline()
    pipeline.add_stage("a", lambda ctx: ctx.stop())
    pipeline.add_stage("b", lambda ctx: trace.append("b"))
    actions, _ = run(pipeline)
    assert trace == []
    assert actions == []


def test_emit_records_port_and_packet():
    pipeline = Pipeline()
    pipeline.add_stage("a", lambda ctx: ctx.emit(3))
    actions, ctx = run(pipeline)
    assert isinstance(actions[0], Emit)
    assert actions[0].port == 3
    assert actions[0].packet is ctx.packet


def test_emit_alternate_packet():
    other = Packet()
    pipeline = Pipeline()
    pipeline.add_stage("a", lambda ctx: ctx.emit(2, other))
    actions, _ = run(pipeline)
    assert actions[0].packet is other


def test_to_controller():
    pipeline = Pipeline()
    pipeline.add_stage("a", lambda ctx: ctx.to_controller(reason="r"))
    actions, _ = run(pipeline)
    assert isinstance(actions[0], ToController)
    assert actions[0].reason == "r"


def test_drop_attributed_to_its_stage():
    switch = DataplaneSwitch("s1")
    switch.telemetry = Telemetry()
    switch.pipeline.add_stage("a", lambda ctx: None)
    switch.pipeline.add_stage("b", lambda ctx: ctx.drop("bad"))
    switch.pipeline.add_stage("c", lambda ctx: None)
    switch.process(Packet(), 1)
    assert [(m.labels, m.value) for m in
            switch.telemetry.metrics.with_name("dataplane_drop_total")] \
        == [((("reason", "bad"), ("stage", "b"), ("switch", "s1")), 1)]
    # Before any stage runs, a drop belongs to no stage.
    _, ctx = run(Pipeline())
    assert ctx.stage == "unstaged"


def test_multiple_emits_for_multicast():
    pipeline = Pipeline()

    def multicast(ctx):
        for port in (1, 2, 3):
            ctx.emit(port, ctx.packet.copy())

    pipeline.add_stage("mc", multicast)
    actions, _ = run(pipeline)
    assert [a.port for a in actions] == [1, 2, 3]
    ids = {a.packet.packet_id for a in actions}
    assert len(ids) == 3
