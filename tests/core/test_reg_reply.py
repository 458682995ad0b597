"""The data plane's register-op replies, pinned to the fresh-packet reply.

A verified request is answered by rewriting the packet the switch parsed;
a request whose digest failed is answered with a freshly built nAck that
echoes nothing but ``regId``, ``index`` and ``seqNum``.  Both must equal,
byte for byte, ``build_reg_response`` signed under the key that
authenticated the exchange.
"""

import pytest

from repro.attacks.control_plane import ReplayAttacker
from repro.core.auth_dataplane import (
    FLAG_ENCRYPTED,
    P4AuthConfig,
    P4AuthDataplane,
)
from repro.core.confidentiality import derive_session_keys, encrypt_value
from repro.core.constants import P4AUTH, REG_OP, HdrType, RegOpType
from repro.core.digest import DigestEngine
from repro.core.keys import LOCAL_KEY_INDEX
from repro.core.messages import (
    build_reg_read_request,
    build_reg_response,
    build_reg_write_request,
)
from repro.dataplane.headers import HeaderType
from repro.dataplane.pipeline import ToController
from repro.dataplane.switch import DataplaneSwitch

K_SEED = 0x5EED_5EED_5EED_5EED
#: One local key per version slot.
KEYS = {0: 0x10CA1_0CA1, 1: 0x2_0CA1_0CA1}
STORED = 0x1234_5678_9ABC
WRITTEN = 0xBEEF_F00D


def make_dataplane(encrypt_regops: bool):
    switch = DataplaneSwitch("s1", num_ports=2)
    switch.registers.define("demo", 64, 8)
    dataplane = P4AuthDataplane(
        switch, K_SEED,
        config=P4AuthConfig(encrypt_regops=encrypt_regops)).install()
    dataplane.map_register("demo")
    for version, key in KEYS.items():
        dataplane.keys.install_at(LOCAL_KEY_INDEX, key, version)
    switch.registers.get("demo").write(3, STORED)
    return switch, dataplane


def request(kind: str, reg_id: int, seq: int, key_ver: int,
            encrypted: bool):
    """A signed readReq / writeReq as the controller composes it."""
    value = WRITTEN
    if encrypted:
        value = encrypt_value(derive_session_keys(KEYS[key_ver]), seq, value)
    if kind == "read":
        packet = build_reg_read_request(reg_id, 3, seq, key_ver=key_ver)
    else:
        packet = build_reg_write_request(reg_id, 3, value, seq,
                                         key_ver=key_ver)
    if encrypted:
        packet.get(P4AUTH)["flags"] = FLAG_ENCRYPTED
    return DigestEngine().sign(KEYS[key_ver], packet)


def fresh_reply(ok: bool, reg_id: int, seq: int, key_ver: int, value: int,
                encrypted: bool):
    """The reply the switch built before it answered in place."""
    if encrypted:
        value = encrypt_value(derive_session_keys(KEYS[key_ver]), seq, value,
                              response=True)
    packet = build_reg_response(ok=ok, reg_id=reg_id, index=3, value=value,
                                seq_num=seq, key_ver=key_ver)
    if encrypted:
        packet.get(P4AUTH)["flags"] = FLAG_ENCRYPTED
    return DigestEngine().sign(KEYS[key_ver], packet)


def reg_replies(actions):
    return [action.packet for action in actions
            if isinstance(action, ToController)
            and action.packet.get(P4AUTH)["hdrType"] == HdrType.REGISTER_OP]


def assert_same_reply(got, expected):
    assert got.header_names() == [P4AUTH, REG_OP]
    assert got.serialize() == expected.serialize()
    assert (got.get(P4AUTH)["digest"]
            == expected.get(P4AUTH)["digest"] != 0)


CASES = pytest.mark.parametrize(
    "kind, key_ver, encrypt_regops, flagged",
    [(kind, key_ver, encrypt_regops, flagged)
     for kind in ("read", "write")
     for key_ver in (0, 1)
     for encrypt_regops in (False, True)
     # The reply is encrypted only when both are set.
     for flagged in (False, True)])


@CASES
def test_ack_equals_the_fresh_reply(kind, key_ver, encrypt_regops, flagged):
    switch, _dataplane = make_dataplane(encrypt_regops)
    reg_id = switch.registers.id_of("demo")
    (reply,) = reg_replies(switch.process(
        request(kind, reg_id, 7, key_ver, flagged), DataplaneSwitch.CPU_PORT))
    result = STORED if kind == "read" else WRITTEN
    assert_same_reply(reply, fresh_reply(
        True, reg_id, 7, key_ver, result, flagged and encrypt_regops))


@CASES
def test_replay_nack_equals_the_fresh_reply(kind, key_ver, encrypt_regops,
                                            flagged):
    switch, dataplane = make_dataplane(encrypt_regops)
    reg_id = switch.registers.id_of("demo")
    switch.process(request(kind, reg_id, 9, key_ver, flagged),
                   DataplaneSwitch.CPU_PORT)
    (reply,) = reg_replies(switch.process(
        request(kind, reg_id, 8, key_ver, flagged), DataplaneSwitch.CPU_PORT))
    assert dataplane.stats.replays_detected == 1
    assert_same_reply(reply, fresh_reply(
        False, reg_id, 8, key_ver, 0, flagged and encrypt_regops))


@CASES
def test_unknown_register_nack_equals_the_fresh_reply(kind, key_ver,
                                                      encrypt_regops, flagged):
    switch, dataplane = make_dataplane(encrypt_regops)
    (reply,) = reg_replies(switch.process(
        request(kind, 999, 7, key_ver, flagged), DataplaneSwitch.CPU_PORT))
    assert dataplane.stats.unknown_register == 1
    assert_same_reply(reply, fresh_reply(
        False, 999, 7, key_ver, 0, flagged and encrypt_regops))


EXTRA = HeaderType("extra", [("x", 32)])


def test_digest_failure_nack_is_a_fresh_packet():
    """A request that failed verification is attacker-shaped: its nAck
    carries none of its extra headers, payload bytes, flags or length."""
    switch, dataplane = make_dataplane(encrypt_regops=True)
    reg_id = switch.registers.id_of("demo")
    tampered = request("write", reg_id, 7, 1, encrypted=False)
    tampered.get(P4AUTH)["flags"] = 0xFF
    tampered.get(P4AUTH)["length"] = 99
    tampered.push("extra", EXTRA.instantiate(x=0xDEAD))
    tampered.payload = b"attacker bytes"

    (nack,) = reg_replies(switch.process(tampered, DataplaneSwitch.CPU_PORT))
    assert dataplane.stats.digest_fail_cdp == 1
    assert nack is not tampered
    assert nack.header_names() == [P4AUTH, REG_OP]
    assert nack.payload == b""
    assert nack.get(P4AUTH)["flags"] == 0
    assert nack.get(P4AUTH)["length"] == 16
    assert nack.get(P4AUTH)["msgType"] == RegOpType.NACK
    # Signed under the switch's active local key version (here 1).
    assert_same_reply(nack, fresh_reply(False, reg_id, 7, 1, 0, False))


def test_a_recorded_request_replays_after_the_switch_answered(single_switch):
    dep = single_switch
    on_the_wire = []
    dep.net.control_channels["s1"].add_tap(
        lambda packet, direction: on_the_wire.append(
            (direction, packet.serialize())) or packet)
    replayer = ReplayAttacker(lambda packet: packet.has(REG_OP))
    replayer.attach(dep.net.control_channels["s1"])
    results = []
    dep.controller.write_register("s1", "demo", 0, 0xAA,
                                  lambda ok, value: results.append(ok))
    dep.run(1.0)
    assert results == [True]

    (recorded,) = replayer.recordings
    assert recorded.get(P4AUTH)["msgType"] == RegOpType.WRITE_REQ
    assert [frame for direction, frame in on_the_wire
            if direction == "c->dp"] == [recorded.serialize()]
    assert replayer.replay(dep.net, "s1") == 1
    dep.run(1.0)
    assert dep.dataplanes["s1"].stats.replays_detected == 1
