"""Link output queues: serialization ordering and queueing delay."""

import pytest

from repro.net.links import Link


def make_link(bandwidth_bps=8e6):  # 1 byte/us
    return Link(("a", 1), ("b", 1), latency_s=0.0,
                bandwidth_bps=bandwidth_bps)


def test_single_packet_no_queueing():
    link = make_link()
    delay = link.transmit_delay(100, "a->b", now=0.0)
    assert delay == pytest.approx(100e-6)
    assert link.max_queue_delay_s == 0.0


def test_back_to_back_packets_queue():
    link = make_link()
    first = link.transmit_delay(100, "a->b", now=0.0)
    second = link.transmit_delay(100, "a->b", now=0.0)
    assert first == pytest.approx(100e-6)
    assert second == pytest.approx(200e-6)  # waits behind the first
    assert link.max_queue_delay_s == pytest.approx(100e-6)


def test_spaced_packets_do_not_queue():
    link = make_link()
    link.transmit_delay(100, "a->b", now=0.0)
    delay = link.transmit_delay(100, "a->b", now=500e-6)
    assert delay == pytest.approx(100e-6)


def test_directions_have_independent_queues():
    link = make_link()
    link.transmit_delay(100, "a->b", now=0.0)
    reverse = link.transmit_delay(100, "b->a", now=0.0)
    assert reverse == pytest.approx(100e-6)


def test_sustained_overload_grows_queue():
    link = make_link()
    delays = [link.transmit_delay(100, "a->b", now=index * 50e-6)
              for index in range(10)]
    # Arrivals every 50 us, service 100 us: each packet waits ~50 us more.
    assert delays[-1] > delays[0] + 400e-6


def test_latency_added_after_queueing():
    link = Link(("a", 1), ("b", 1), latency_s=1e-3, bandwidth_bps=8e6)
    delay = link.transmit_delay(100, "a->b", now=0.0)
    assert delay == pytest.approx(1e-3 + 100e-6)


class TestEndToEndQueueing:
    def test_burst_through_switch_experiences_queueing(self):
        from repro.dataplane.packet import Packet
        from repro.dataplane.switch import DataplaneSwitch
        from repro.net.network import Network
        from repro.net.simulator import EventSimulator
        sim = EventSimulator()
        net = Network(sim)
        switch = DataplaneSwitch("s1", num_ports=2)
        switch.pipeline.add_stage("fwd", lambda ctx: ctx.emit(2))
        net.add_switch(switch)
        host = net.add_host("h")
        net.connect("s1", 2, "h", 1).bandwidth_bps = 1e6  # slow egress
        node = net.nodes["s1"]
        for _ in range(5):
            sim.schedule(0.0, node.receive, Packet(payload=bytes(1250)), 1)
        sim.run()
        arrivals = [t for t, _ in host.received]
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        # 1250 B at 1 Mb/s = 10 ms serialization: arrivals are spaced out.
        assert all(gap == pytest.approx(10e-3, rel=0.01) for gap in gaps)
