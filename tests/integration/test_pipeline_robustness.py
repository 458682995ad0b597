"""Fuzz-style robustness: arbitrary inputs never crash or authenticate.

The verify stage faces untrusted input on every port.  These tests feed
it randomized packets — random header combinations, random field values,
random digests — and assert two invariants:

1. the pipeline never raises (hostile input cannot wedge the switch);
2. nothing unauthenticated ever reaches a register write or the
   application stages behind the P4Auth boundary.
"""

from hypothesis import given, settings, strategies as st

from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.constants import (
    ADHKD_HEADER,
    ALERT_HEADER,
    EAK_HEADER,
    KEYCTL_HEADER,
    P4AUTH,
    P4AUTH_HEADER,
    REG_OP_HEADER,
)
from repro.dataplane.packet import Packet
from repro.dataplane.switch import DataplaneSwitch

PAYLOAD_TYPES = {
    "reg_op": REG_OP_HEADER,
    "eak": EAK_HEADER,
    "adhkd": ADHKD_HEADER,
    "keyctl": KEYCTL_HEADER,
    "alert": ALERT_HEADER,
}


def fresh_switch():
    switch = DataplaneSwitch("s1", num_ports=4)
    switch.registers.define("app", 64, 4)
    dataplane = P4AuthDataplane(
        switch, k_seed=0xF0F0,
        config=P4AuthConfig(protected_headers={"hula_probe"})).install()
    dataplane.map_register("app")
    dataplane.keys.install_at(0, 0x10CA1, 0)
    dataplane.keys.install_at(1, 0x9991, 0)
    return switch, dataplane


@st.composite
def hostile_packets(draw):
    packet = Packet(payload=draw(st.binary(max_size=32)))
    if draw(st.booleans()):
        values = {
            fname: draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
            for fname, bits in P4AUTH_HEADER.fields
        }
        packet.push(P4AUTH, P4AUTH_HEADER.instantiate(**values))
    payload_name = draw(st.sampled_from(sorted(PAYLOAD_TYPES) + ["none"]))
    if payload_name != "none":
        header_type = PAYLOAD_TYPES[payload_name]
        values = {
            fname: draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
            for fname, bits in header_type.fields
        }
        packet.push(payload_name, header_type.instantiate(**values))
    return packet


@given(hostile_packets(), st.integers(min_value=0, max_value=4))
@settings(max_examples=200, deadline=None)
def test_hostile_packets_never_crash_or_write(packet, port):
    switch, dataplane = fresh_switch()
    before = switch.registers.get("app").snapshot()
    switch.process(packet, port)  # must not raise
    # A random digest (2^-32 forgery odds) must never drive a write.
    assert switch.registers.get("app").snapshot() == before


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
@settings(max_examples=100, deadline=None)
def test_random_digests_never_authenticate(digest):
    from repro.core.messages import build_reg_write_request
    switch, dataplane = fresh_switch()
    forged = build_reg_write_request(
        switch.registers.id_of("app"), 0, 0x41, 1)
    forged.get(P4AUTH)["digest"] = digest
    switch.process(forged, 0)
    assert switch.registers.get("app").read(0) == 0
    assert dataplane.stats.regops_served == 0


@given(st.binary(min_size=0, max_size=64),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_raw_garbage_passes_through_harmlessly(payload, port):
    switch, dataplane = fresh_switch()
    switch.process(Packet(payload=payload), port)
    assert dataplane.stats.regops_served == 0
