"""Packets: header stack manipulation, sizing, copying."""

import pytest

from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet

ETH = HeaderType("eth", [("dst", 48), ("src", 48), ("etype", 16)])
V4 = HeaderType("v4", [("src", 32), ("dst", 32)])


def test_push_and_get():
    packet = Packet()
    packet.push("eth", ETH.instantiate(etype=0x800))
    assert packet.has("eth")
    assert packet.get("eth")["etype"] == 0x800


def test_duplicate_header_rejected():
    packet = Packet()
    packet.push("eth", ETH.instantiate())
    with pytest.raises(ValueError):
        packet.push("eth", ETH.instantiate())


def test_remove_header():
    packet = Packet()
    packet.push("eth", ETH.instantiate())
    removed = packet.remove("eth")
    assert removed.header_type.name == "eth"
    assert not packet.has("eth")
    with pytest.raises(KeyError):
        packet.remove("eth")


def test_get_missing_raises():
    with pytest.raises(KeyError):
        Packet().get("eth")


def test_lookup_errors_keep_their_messages():
    packet = Packet()
    packet.push("eth", ETH.instantiate())
    with pytest.raises(ValueError,
                       match=r"^packet already carries header 'eth'$"):
        packet.push("eth", ETH.instantiate())
    for lookup in (packet.get, packet.remove):
        with pytest.raises(KeyError) as raised:
            lookup("v4")
        assert raised.value.args == ("packet has no header 'v4'",)
    assert packet.header_names() == ["eth"]


def test_size_counts_headers_and_payload():
    packet = Packet(payload=b"x" * 100)
    packet.push("eth", ETH.instantiate())
    packet.push("v4", V4.instantiate())
    assert packet.size_bytes == 14 + 8 + 100


def test_serialize_outer_to_inner():
    packet = Packet(payload=b"PAY")
    packet.push("eth", ETH.instantiate(etype=0x800))
    packet.push("v4", V4.instantiate(src=1, dst=2))
    wire = packet.serialize()
    assert wire[:14] == ETH.instantiate(etype=0x800).serialize()
    assert wire[14:22] == V4.instantiate(src=1, dst=2).serialize()
    assert wire[22:] == b"PAY"


def test_copy_deep_copies_headers_and_metadata():
    packet = Packet()
    packet.push("v4", V4.instantiate(src=1))
    packet.metadata["mark"] = True
    clone = packet.copy()
    clone.get("v4")["src"] = 9
    clone.metadata["mark"] = False
    assert packet.get("v4")["src"] == 1
    assert packet.metadata["mark"] is True


def test_copy_equals_the_original_and_stays_independent():
    packet = Packet(payload=b"PAY")
    packet.push("eth", ETH.instantiate(etype=0x800))
    packet.push("v4", V4.instantiate(src=1, dst=2))
    clone = packet.copy()
    assert clone.serialize() == packet.serialize()
    assert clone.size_bytes == packet.size_bytes
    assert clone.header_names() == packet.header_names()
    clone.remove("v4")
    clone.push("v4", V4.instantiate(src=3))
    assert packet.get("v4")["src"] == 1
    assert packet.size_bytes == 14 + 8 + 3
    with pytest.raises(ValueError):
        clone.push("eth", ETH.instantiate())
    with pytest.raises(ValueError):
        clone.get("eth")["etype"] = 1 << 16


def test_copy_gets_fresh_packet_id():
    packet = Packet()
    assert packet.copy().packet_id != packet.packet_id


def test_header_names_in_order():
    packet = Packet()
    packet.push("eth", ETH.instantiate())
    packet.push("v4", V4.instantiate())
    assert packet.header_names() == ["eth", "v4"]
