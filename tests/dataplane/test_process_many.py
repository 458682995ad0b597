"""``DataplaneSwitch.process_many``: strict conformance to ``process``.

Batch execution is an amortization of Python overhead, not a semantic
mode: for any packet sequence it must produce the same actions, the same
register mutations, the same drop attribution, the same hash-extern
invocation counts, and the same telemetry totals as calling ``process``
once per packet.  Two identically-programmed switches run the same
workload — one per-packet, one batched — and every observable is diffed.
"""

import random

import pytest

from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import Drop, Emit
from repro.dataplane.switch import DataplaneSwitch
from repro.telemetry import Telemetry


def build_switch(name="s1", telemetry=None):
    """A pipeline exercising registers, the hash extern and drops — every
    per-packet side effect the batch must preserve."""
    switch = DataplaneSwitch(name, num_ports=4, seed=7)
    switch.registers.define("hits", 64, 8)

    def stage(ctx):
        payload = ctx.packet.payload
        lead = payload[0] if payload else 0
        tag = ctx.switch.hash.compute_digest_bytes(0xA5, payload)
        ctx.switch.registers.get("hits").read_modify_write(
            lead % 8, lambda v: (v + 1 + (tag & 1)))
        if lead % 3 == 0:
            ctx.drop("mod3")
            return
        ctx.emit(1 + (tag % ctx.switch.num_ports))

    switch.pipeline.add_stage("work", stage)
    if telemetry is not None:
        switch.telemetry = telemetry
    return switch


def workload(count, seed=0xBA7C4):
    rng = random.Random(seed)
    packets = []
    for i in range(count):
        length = rng.randrange(0, 32)
        payload = bytes([0xFE]) + rng.randbytes(length) if i % 7 == 0 \
            else rng.randbytes(length)
        packets.append((Packet(payload=payload), 1 + (i % 4)))
    return packets


def project(actions):
    """Comparable view of an action list (packet ids intentionally not
    compared — each run builds its own packets)."""
    out = []
    for action in actions:
        kind = type(action).__name__
        port = getattr(action, "port", None)
        reason = getattr(action, "reason", None)
        out.append((kind, port, reason, action.packet.payload,
                    dict(action.packet.metadata)))
    return out


def clone_workload(batch):
    return [(packet.copy(), port) for packet, port in batch]


@pytest.mark.parametrize("count", [1, 2, 17, 100])
def test_process_many_matches_per_packet_loop(count):
    batch = workload(count)
    one = build_switch()
    many = build_switch()
    expected = [one.process(p, port) for p, port in clone_workload(batch)]
    got = many.process_many(clone_workload(batch))
    assert [project(a) for a in got] == [project(a) for a in expected]
    # Register state is bit-identical.
    assert many.registers.get("hits").snapshot() \
        == one.registers.get("hits").snapshot()
    # Counters and drop attribution are identical.
    assert many.packets_processed == one.packets_processed == count
    assert many.packets_dropped == one.packets_dropped
    assert many.pipeline_passes == one.pipeline_passes
    assert many.drop_reasons == one.drop_reasons
    # Every packet still pays its own hash-extern invocations.
    assert many.hash.invocations == one.hash.invocations


def test_process_many_telemetry_totals_match():
    batch = workload(60)
    tel_one, tel_many = Telemetry(enabled=True), Telemetry(enabled=True)
    one = build_switch(telemetry=tel_one)
    many = build_switch(telemetry=tel_many)
    for p, port in clone_workload(batch):
        one.process(p, port)
    many.process_many(clone_workload(batch))
    passes = "dataplane_pipeline_passes_total"
    assert tel_many.metrics.value(passes, switch="s1") \
        == tel_one.metrics.value(passes, switch="s1")
    drops = [(m.labels, m.value)
             for m in tel_one.metrics.with_name("dataplane_drop_total")]
    assert [(m.labels, m.value)
            for m in tel_many.metrics.with_name("dataplane_drop_total")] \
        == drops
    # The batch entry points are themselves observable.
    assert tel_many.metrics.value("dataplane_process_batches_total",
                                  switch="s1") == 1


def test_process_many_empty_batch():
    telemetry = Telemetry(enabled=True)
    switch = build_switch(telemetry=telemetry)
    assert switch.process_many([]) == []
    assert switch.packets_processed == 0
    # An empty batch adds no pipeline passes...
    assert telemetry.metrics.get("dataplane_pipeline_passes_total") is None \
        or telemetry.metrics.value("dataplane_pipeline_passes_total",
                                   switch="s1") == 0
    # ...but the batch call itself is still counted.
    assert telemetry.metrics.value("dataplane_process_batches_total",
                                   switch="s1") == 1


def test_process_many_invalid_port_raises_like_process():
    switch = build_switch()
    with pytest.raises(ValueError):
        switch.process_many([(Packet(payload=b"\x01"), 9)])


def test_process_many_mixed_verdict_ordering():
    """Results stay aligned with submission order even when verdicts
    interleave drops and emits."""
    switch = build_switch()
    batch = [(Packet(payload=bytes([value])), 1)
             for value in (0x00, 0x01, 0xFE, 0x03, 0x04)]
    results = switch.process_many(batch)
    assert len(results) == 5
    assert isinstance(results[0][0], Drop)          # 0x00 % 3 == 0
    assert isinstance(results[1][0], (Emit, Drop))  # hash-dependent port
    assert isinstance(results[2][0], Emit)          # 0xFE % 3 != 0
    assert isinstance(results[3][0], Drop)          # 0x03 % 3 == 0
    assert switch.pipeline_passes == 5              # one per packet
