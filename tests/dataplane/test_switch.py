"""DataplaneSwitch: processing, pass counting, port validation."""

import pytest

from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import Drop, Emit
from repro.dataplane.switch import DataplaneSwitch
from repro.dataplane.tables import MatchActionTable, MatchKind
from repro.telemetry import Telemetry


def test_process_returns_final_actions():
    switch = DataplaneSwitch("s1", num_ports=4)
    switch.pipeline.add_stage("fwd", lambda ctx: ctx.emit(2))
    actions = switch.process(Packet(), ingress_port=1)
    assert len(actions) == 1
    assert isinstance(actions[0], Emit)
    assert actions[0].port == 2


def test_invalid_ingress_port_rejected():
    switch = DataplaneSwitch("s1", num_ports=2)
    with pytest.raises(ValueError):
        switch.process(Packet(), ingress_port=3)
    with pytest.raises(ValueError):
        switch.process(Packet(), ingress_port=-1)


def test_cpu_port_always_valid():
    switch = DataplaneSwitch("s1", num_ports=2)
    switch.pipeline.add_stage("noop", lambda ctx: None)
    assert switch.process(Packet(), DataplaneSwitch.CPU_PORT) == []


def test_each_packet_takes_one_pass():
    switch = DataplaneSwitch("s1", num_ports=2)
    runs = []

    def stage(ctx):
        runs.append(ctx.ingress_port)
        ctx.emit(1)

    switch.pipeline.add_stage("fwd", stage)
    switch.process(Packet(), 1)
    switch.process(Packet(), 2)
    assert runs == [1, 2]
    assert switch.pipeline_passes == 2


def test_drop_counted():
    switch = DataplaneSwitch("s1", num_ports=2)
    switch.pipeline.add_stage("drop", lambda ctx: ctx.drop("x"))
    actions = switch.process(Packet(), 1)
    assert isinstance(actions[0], Drop)
    assert switch.packets_dropped == 1


def test_tables_registry():
    switch = DataplaneSwitch("s1", num_ports=2)
    table = MatchActionTable("t", [("k", MatchKind.EXACT, 8)])
    switch.add_table(table)
    assert switch.table("t") is table
    with pytest.raises(ValueError):
        switch.add_table(MatchActionTable("t", [("k", MatchKind.EXACT, 8)]))
    with pytest.raises(KeyError):
        switch.table("nope")


def test_needs_at_least_one_port():
    with pytest.raises(ValueError):
        DataplaneSwitch("s1", num_ports=0)


def test_packet_counters():
    switch = DataplaneSwitch("s1", num_ports=2)
    switch.pipeline.add_stage("noop", lambda ctx: None)
    switch.process(Packet(), 1)
    switch.process(Packet(), 2)
    assert switch.packets_processed == 2


def test_rebinding_telemetry_rebinds_every_handle():
    switch = DataplaneSwitch("s1")
    bound = []
    switch.on_telemetry_bound.append(bound.append)
    switch.pipeline.add_stage("a", lambda ctx: None)
    switch.process(Packet(), 1)  # counted into the null registry
    telemetry = Telemetry()
    switch.telemetry = telemetry
    switch.pipeline.add_stage("b", lambda ctx: None)
    switch.process(Packet(), 1)
    metrics = telemetry.metrics
    assert bound == [telemetry]
    assert metrics.value("dataplane_pipeline_passes_total",
                         switch="s1") == 1
    assert [(m.labels, m.value) for m in
            metrics.with_name("dataplane_stage_packets_total")] == [
        ((("stage", "a"), ("switch", "s1")), 1),
        ((("stage", "b"), ("switch", "s1")), 1)]
