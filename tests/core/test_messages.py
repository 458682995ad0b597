"""Wire formats: builders, digest material, Table III message sizes."""

import pytest

from repro.core.constants import (
    AlertCode,
    HdrType,
    KeyExchType,
    P4AUTH_HEADER,
    RegOpType,
)
from repro.core.messages import (
    build_adhkd_message,
    build_alert,
    build_eak_message,
    build_keyctl_message,
    build_reg_read_request,
    build_reg_write_request,
    build_reg_response,
    digest_material,
)


def test_p4auth_header_is_14_bytes():
    """The header size drives every Table III byte count."""
    assert P4AUTH_HEADER.byte_width == 14


class TestTableIIIMessageSizes:
    """EAK=22B, ADHKD=30B, portKeyInit/Update=18B (DESIGN.md calibration)."""

    def test_eak_is_22_bytes(self):
        message = build_eak_message(KeyExchType.EAK_SALT1, 0x1234, 1)
        assert message.size_bytes == 22

    def test_adhkd_is_30_bytes(self):
        message = build_adhkd_message(KeyExchType.ADHKD_MSG1, 1, 2, 1)
        assert message.size_bytes == 30

    def test_keyctl_is_18_bytes(self):
        for msg_type in (KeyExchType.PORT_KEY_INIT,
                         KeyExchType.PORT_KEY_UPDATE):
            assert build_keyctl_message(msg_type, 1, 1).size_bytes == 18

    def test_local_init_totals_104_bytes(self):
        total = (2 * build_eak_message(KeyExchType.EAK_SALT1, 0, 1).size_bytes
                 + 2 * build_adhkd_message(KeyExchType.ADHKD_MSG1, 0, 0,
                                           1).size_bytes)
        assert total == 104

    def test_port_init_totals_138_bytes(self):
        total = (build_keyctl_message(KeyExchType.PORT_KEY_INIT, 1,
                                      1).size_bytes
                 + 4 * build_adhkd_message(KeyExchType.ADHKD_MSG1, 0, 0,
                                           1).size_bytes)
        assert total == 138


def test_read_request_fields():
    message = build_reg_read_request(reg_id=7, index=3, seq_num=42)
    hdr = message.get("p4auth")
    assert hdr["hdrType"] == HdrType.REGISTER_OP
    assert hdr["msgType"] == RegOpType.READ_REQ
    assert hdr["seqNum"] == 42
    assert hdr["digest"] == 0
    payload = message.get("reg_op")
    assert payload["regId"] == 7 and payload["index"] == 3


def test_write_request_carries_value():
    message = build_reg_write_request(7, 3, 0xDEAD, 42)
    assert message.get("reg_op")["value"] == 0xDEAD
    assert message.get("p4auth")["msgType"] == RegOpType.WRITE_REQ


def test_response_ack_nack():
    ack = build_reg_response(True, 7, 3, 5, 42)
    nack = build_reg_response(False, 7, 3, 0, 42)
    assert ack.get("p4auth")["msgType"] == RegOpType.ACK
    assert nack.get("p4auth")["msgType"] == RegOpType.NACK


def test_alert_fields():
    alert = build_alert(AlertCode.REPLAY_SUSPECTED, 99, 5)
    assert alert.get("p4auth")["hdrType"] == HdrType.ALERT
    assert alert.get("alert")["code"] == AlertCode.REPLAY_SUSPECTED
    assert alert.get("alert")["detail"] == 99


def test_builders_reject_wrong_types():
    with pytest.raises(ValueError):
        build_eak_message(KeyExchType.ADHKD_MSG1, 0, 1)
    with pytest.raises(ValueError):
        build_adhkd_message(KeyExchType.EAK_SALT1, 0, 0, 1)
    with pytest.raises(ValueError):
        build_keyctl_message(KeyExchType.ADHKD_MSG2, 1, 1)


def test_length_field_matches_payload():
    message = build_adhkd_message(KeyExchType.ADHKD_MSG1, 1, 2, 1)
    assert message.get("p4auth")["length"] == 16


def _material_field_by_field(packet):
    """Eqn 4's byte string the way it was first written: every covered
    p4auth field at 8 bytes little-endian, then every other header's
    bytes by name, then the payload.  ``digest_material`` packs the same
    bytes in one ``Struct`` call and one pass over the stack."""
    material = bytearray()
    header = packet.get("p4auth")
    values = header.fields()
    for fname, _bits in header.header_type.fields:
        if fname != "digest":
            material += int(values[fname]).to_bytes(8, "little")
    for name in packet.header_names():
        if name != "p4auth":
            material += packet.get(name).serialize()
    return bytes(material + packet.payload)


def _dpdp_probe():
    """A HULA probe with the DP-DP p4auth header pushed *after* it."""
    from repro.systems.hula import make_probe
    probe = make_probe(5, 1, path_util=10)
    probe.push("p4auth", P4AUTH_HEADER.instantiate(
        hdrType=int(HdrType.DP_FEEDBACK), seqNum=0xFFFFFFFF, keyVer=0xFF,
        flags=0xFF, length=0xFFFF, digest=0xDEADBEEF))
    return probe


def _with_residual_payload():
    message = build_reg_write_request(7, 15, (1 << 64) - 1, 0xFFFFFFFF,
                                      key_ver=255)
    message.payload = bytes(range(37))
    return message


@pytest.mark.parametrize("build", [
    lambda: build_reg_read_request(7, 3, 0x01020304, key_ver=2),
    lambda: build_reg_write_request(7, 3, 0x1122334455667788, 9, key_ver=1),
    lambda: build_reg_response(True, 7, 3, 5, 9),
    lambda: build_reg_response(False, 7, 3, 0, 9, key_ver=3),
    lambda: build_eak_message(KeyExchType.EAK_SALT2, (1 << 64) - 1, 4),
    lambda: build_adhkd_message(KeyExchType.UPD_MSG2, 1 << 63, 0x5A17, 5),
    lambda: build_keyctl_message(KeyExchType.PORT_KEY_UPDATE, 0xFFFFFFFF, 6),
    lambda: build_alert(AlertCode.REPLAY_SUSPECTED, (1 << 56) - 1, 7),
    _dpdp_probe,
    _with_residual_payload,
], ids=["read_req", "write_req", "ack", "nack", "eak", "adhkd", "keyctl",
        "alert", "dpdp_hula_probe", "residual_payload"])
def test_digest_material_bytes_match_the_field_by_field_form(build):
    packet = build()
    material = digest_material(packet)
    assert material == _material_field_by_field(packet)
    # The six covered p4auth words come first, wherever the header sits.
    assert material[:48] == b"".join(
        packet.get("p4auth")[name].to_bytes(8, "little") for name in
        ("hdrType", "msgType", "seqNum", "keyVer", "flags", "length"))


def test_digest_material_needs_a_p4auth_header():
    from repro.systems.hula import make_probe
    with pytest.raises(KeyError, match="p4auth"):
        digest_material(make_probe(5, 1, path_util=10))


class TestDigestMaterial:
    def test_excludes_digest_field(self):
        message = build_reg_read_request(1, 0, 1)
        before = digest_material(message)
        message.get("p4auth")["digest"] = 0xFFFFFFFF
        assert digest_material(message) == before

    def test_covers_header_fields(self):
        a = build_reg_read_request(1, 0, seq_num=1)
        b = build_reg_read_request(1, 0, seq_num=2)
        assert digest_material(a) != digest_material(b)

    def test_covers_payload(self):
        a = build_reg_write_request(1, 0, 5, 1)
        b = build_reg_write_request(1, 0, 6, 1)
        assert digest_material(a) != digest_material(b)

    def test_covers_extra_protected_headers(self):
        """A probe body riding with the P4Auth header is covered too."""
        from repro.systems.hula import make_probe
        from repro.core.constants import P4AUTH
        probe = make_probe(5, 1, path_util=10)
        probe.push(P4AUTH, P4AUTH_HEADER.instantiate(
            hdrType=int(HdrType.DP_FEEDBACK)))
        before = digest_material(probe)
        probe.get("hula_probe")["path_util"] = 99
        assert digest_material(probe) != before

    def test_covers_raw_payload_bytes(self):
        message = build_reg_read_request(1, 0, 1)
        before = digest_material(message)
        message.payload = b"extra"
        assert digest_material(message) != before
