"""The per-port plan built in ``connect()`` agrees with the link it caches.

``Network.transmit`` reads one plan per packet instead of asking the link
who the peer is.  The plan may only hold what wiring fixes; ``link.up``,
``link.taps``, ``delivery_shaper`` and ``nodes[...]`` are read live, and
every vanish path still lands on the same ``drop_counts`` key.
"""

import pytest

from repro.dataplane.packet import Packet
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import (
    DROP_FAULT_INJECTED,
    DROP_LINK_DOWN,
    DROP_NODE_DOWN,
    DROP_TAP,
    DROP_UNWIRED_PORT,
    Network,
)
from repro.net.simulator import EventSimulator
from repro.net.topology import hula_fig3_topology
from repro.telemetry import Telemetry


@pytest.fixture
def net():
    network = Network(EventSimulator(telemetry=Telemetry(enabled=True)))
    network.add_switch(DataplaneSwitch("s1", num_ports=2))
    network.add_host("h1")
    network.add_host("h2")
    network.connect("h1", 1, "s1", 1)
    network.connect("s1", 2, "h2", 1)
    return network


def test_every_wired_port_has_a_plan_that_agrees_with_its_link():
    network, _extras = hula_fig3_topology()
    assert len(network._ports) == 2 * len(network.links)
    for link in network.links:
        for name, port in (link.end_a, link.end_b):
            plan = network._ports[(name, port)]
            assert plan.link is link
            assert plan.direction == link.direction_from(name, port)
            assert (plan.peer_name, plan.peer_port) == link.peer_of(name, port)


def test_plan_counters_are_the_registrys(net):
    metrics = net.telemetry.metrics
    for (name, port), plan in net._ports.items():
        labels = {"link": plan.link.label, "direction": plan.direction}
        assert plan.packets_counter is metrics.counter(
            "net_link_packets_total", **labels)
        assert plan.bytes_counter is metrics.counter(
            "net_link_bytes_total", **labels)
    packet = Packet(payload=b"x" * 40)
    net.transmit("h1", 1, packet)
    link = net.link_between("h1", "s1")
    assert metrics.value("net_link_packets_total", link=link.label,
                         direction="a->b") == 1
    assert metrics.value("net_link_bytes_total", link=link.label,
                         direction="a->b") == 40
    assert metrics.value("net_link_bytes_total", link=link.label,
                         direction="b->a") == 0


def test_a_wired_port_cannot_be_wired_twice(net):
    with pytest.raises(ValueError, match="port 1 on 's1' is already wired"):
        net.connect("s1", 1, "h2", 2)


def test_each_vanish_path_keeps_its_drop_key(net):
    link = net.link_between("h1", "s1")
    net.transmit("s1", 7, Packet())
    assert net.drop_counts == {DROP_UNWIRED_PORT: 1}

    # The plan caches the link object, never its `up` flag ...
    net.set_link_up(link, False)
    net.transmit("h1", 1, Packet())
    assert net.drop_counts[DROP_LINK_DOWN] == 1
    net.set_link_up(link, True)

    # ... nor its tap list ...
    def kill(packet, direction):
        return None
    link.add_tap(kill)
    net.transmit("h1", 1, Packet())
    assert net.drop_counts[DROP_TAP] == 1
    assert link.packets_dropped_by_taps == 1
    link.remove_tap(kill)

    # ... nor the delivery shaper ...
    net.delivery_shaper = lambda link, direction, packet, delay: []
    net.transmit("h1", 1, Packet())
    assert net.drop_counts[DROP_FAULT_INJECTED] == 1
    net.delivery_shaper = None

    # ... nor the peer node's state.
    net.nodes["s1"].up = False
    net.transmit("h1", 1, Packet())
    net.sim.run()
    assert net.drop_counts == {
        DROP_UNWIRED_PORT: 1, DROP_LINK_DOWN: 1, DROP_TAP: 1,
        DROP_FAULT_INJECTED: 1, DROP_NODE_DOWN: 1}
    assert link.packets_carried == 2  # the shaped and the node-down one


def test_peer_node_is_looked_up_at_transmit_time(net):
    arrivals = []

    class Probe:
        def receive(self, packet, ingress_port):
            arrivals.append((packet, ingress_port))

    packet = Packet()
    net.nodes["h2"] = Probe()  # swapped after connect()
    net.transmit("s1", 2, packet)
    net.sim.run()
    assert arrivals == [(packet, 1)]


def test_a_tap_resized_packet_is_counted_at_its_new_size(net):
    def pad(packet, direction):
        packet.payload += b"y" * 10
        return packet
    link = net.link_between("h1", "s1")
    link.add_tap(pad)
    net.transmit("h1", 1, Packet(payload=b"x" * 5))
    assert link.bytes_carried == 15
    assert net.telemetry.metrics.value(
        "net_link_bytes_total", link=link.label, direction="a->b") == 15
