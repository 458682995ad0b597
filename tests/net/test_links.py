"""Links and control channels: taps, drops, delay math."""

import pytest

from repro.dataplane.packet import Packet
from repro.net.links import ControlChannel, Link


def make_link(**kwargs):
    return Link(("a", 1), ("b", 2), **kwargs)


def test_peer_resolution():
    link = make_link()
    assert link.peer_of("a", 1) == ("b", 2)
    assert link.peer_of("b", 2) == ("a", 1)
    with pytest.raises(ValueError):
        link.peer_of("c", 1)


def test_direction_naming():
    link = make_link()
    assert link.direction_from("a", 1) == "a->b"
    assert link.direction_from("b", 2) == "b->a"
    # A foreign endpoint has no direction (it used to read as "b->a").
    for name, port in (("c", 1), ("a", 2), ("b", 1)):
        with pytest.raises(ValueError,
                           match="is not an endpoint of this link"):
            link.direction_from(name, port)


def test_transit_without_taps_passes():
    link = make_link()
    packet = Packet()
    assert link.transit(packet, "a->b") is packet
    assert link.packets_carried == 1


def test_tap_can_modify():
    link = make_link()
    packet = Packet(payload=b"orig")

    def tap(pkt, direction):
        pkt.payload = b"tampered"
        return pkt

    link.add_tap(tap)
    survivor = link.transit(packet, "a->b")
    assert survivor.payload == b"tampered"


def test_tap_can_drop():
    link = make_link()
    link.add_tap(lambda pkt, d: None)
    assert link.transit(Packet(), "a->b") is None
    assert link.packets_dropped_by_taps == 1


def test_taps_chain_in_order():
    link = make_link()
    order = []
    link.add_tap(lambda pkt, d: (order.append(1), pkt)[1])
    link.add_tap(lambda pkt, d: (order.append(2), pkt)[1])
    link.transit(Packet(), "a->b")
    assert order == [1, 2]


def test_remove_tap():
    link = make_link()
    tap = lambda pkt, d: None
    link.add_tap(tap)
    link.remove_tap(tap)
    assert link.transit(Packet(), "a->b") is not None


def test_delay_includes_serialization():
    link = make_link(latency_s=1e-6, bandwidth_bps=8e6)  # 1 byte/us
    assert link.transmit_delay(100, "a->b", 0.0) == pytest.approx(
        1e-6 + 100e-6)


def test_bytes_accounting():
    link = make_link()
    link.transit(Packet(payload=b"x" * 50), "a->b")
    assert link.bytes_carried == 50


def test_invalid_parameters():
    with pytest.raises(ValueError):
        make_link(latency_s=-1)
    with pytest.raises(ValueError):
        make_link(bandwidth_bps=0)


class TestControlChannel:
    def test_directions_validated(self):
        channel = ControlChannel("s1")
        with pytest.raises(ValueError):
            channel.transit(Packet(), "a->b")

    def test_tap_applies_per_direction(self):
        channel = ControlChannel("s1")
        seen = []
        channel.add_tap(lambda pkt, d: (seen.append(d), pkt)[1])
        channel.transit(Packet(), "c->dp")
        channel.transit(Packet(), "dp->c")
        assert seen == ["c->dp", "dp->c"]

    def test_drop_counted(self):
        channel = ControlChannel("s1")
        channel.add_tap(lambda pkt, d: None)
        assert channel.transit(Packet(), "c->dp") is None
        assert channel.messages_dropped_by_taps == 1
