"""Builders and digest material for P4Auth protocol messages.

A P4Auth message is a packet carrying the 14-byte ``p4auth`` header plus
one payload header (``reg_op``, ``eak``, ``adhkd``, ``keyctl``, or
``alert``).  The digest (Eqn. 4) is computed over every p4auth header
field except ``digest`` itself, concatenated with the serialized payload:

    digest = HMAC_K(p4Auth_h || p4Auth_payload)

Builders return packets with ``digest = 0``; callers sign them with a
:class:`repro.core.digest.DigestEngine` (the data plane's sign stage, the
controller's compose path, or the KMP).
"""

from __future__ import annotations

from operator import itemgetter
from struct import Struct

from repro.core.constants import (
    ADHKD,
    ADHKD_HEADER,
    ALERT,
    ALERT_HEADER,
    EAK,
    EAK_HEADER,
    KEYCTL,
    KEYCTL_HEADER,
    P4AUTH,
    P4AUTH_HEADER,
    REG_OP,
    REG_OP_HEADER,
    AlertCode,
    HdrType,
    KeyExchType,
    RegOpType,
)
from repro.dataplane.packet import Packet


def _base_packet(hdr_type: HdrType, msg_type: int, seq_num: int,
                 key_ver: int, payload_name: str, payload) -> Packet:
    packet = Packet()
    p4auth = P4AUTH_HEADER.instantiate(
        hdrType=int(hdr_type),
        msgType=int(msg_type),
        seqNum=seq_num,
        keyVer=key_ver,
        flags=0,
        length=payload.header_type.byte_width,
        digest=0,
    )
    packet.push(P4AUTH, p4auth)
    packet.push(payload_name, payload)
    return packet


def build_reg_read_request(reg_id: int, index: int, seq_num: int,
                           key_ver: int = 0) -> Packet:
    """``readReq``: controller asks the data plane for a register value."""
    payload = REG_OP_HEADER.instantiate(regId=reg_id, index=index, value=0)
    return _base_packet(HdrType.REGISTER_OP, RegOpType.READ_REQ, seq_num,
                        key_ver, REG_OP, payload)


def build_reg_write_request(reg_id: int, index: int, value: int,
                            seq_num: int, key_ver: int = 0) -> Packet:
    """``writeReq``: controller writes a register cell in the data plane."""
    payload = REG_OP_HEADER.instantiate(regId=reg_id, index=index, value=value)
    return _base_packet(HdrType.REGISTER_OP, RegOpType.WRITE_REQ, seq_num,
                        key_ver, REG_OP, payload)


def build_reg_response(ok: bool, reg_id: int, index: int, value: int,
                       seq_num: int, key_ver: int = 0) -> Packet:
    """``ack`` / ``nAck``: data plane's response, echoing the request seq."""
    payload = REG_OP_HEADER.instantiate(regId=reg_id, index=index, value=value)
    msg_type = RegOpType.ACK if ok else RegOpType.NACK
    return _base_packet(HdrType.REGISTER_OP, msg_type, seq_num, key_ver,
                        REG_OP, payload)


def build_eak_message(msg_type: KeyExchType, salt: int, seq_num: int,
                      key_ver: int = 0) -> Packet:
    """EAK salt exchange message (Fig 11); total wire size 22 bytes."""
    if msg_type not in (KeyExchType.EAK_SALT1, KeyExchType.EAK_SALT2):
        raise ValueError(f"{msg_type!r} is not an EAK message type")
    payload = EAK_HEADER.instantiate(salt=salt)
    return _base_packet(HdrType.KEY_EXCHANGE, msg_type, seq_num, key_ver,
                        EAK, payload)


def build_adhkd_message(msg_type: KeyExchType, pk: int, salt: int,
                        seq_num: int, key_ver: int = 0) -> Packet:
    """ADHKD / updKeyExch message (Fig 12, Fig 14); wire size 30 bytes."""
    if msg_type not in (KeyExchType.ADHKD_MSG1, KeyExchType.ADHKD_MSG2,
                        KeyExchType.UPD_MSG1, KeyExchType.UPD_MSG2):
        raise ValueError(f"{msg_type!r} is not an ADHKD message type")
    payload = ADHKD_HEADER.instantiate(pk=pk, salt=salt)
    return _base_packet(HdrType.KEY_EXCHANGE, msg_type, seq_num, key_ver,
                        ADHKD, payload)


def build_keyctl_message(msg_type: KeyExchType, port: int, seq_num: int,
                         key_ver: int = 0) -> Packet:
    """portKeyInit / portKeyUpdate (Fig 14); total wire size 18 bytes."""
    if msg_type not in (KeyExchType.PORT_KEY_INIT, KeyExchType.PORT_KEY_UPDATE):
        raise ValueError(f"{msg_type!r} is not a key-control message type")
    payload = KEYCTL_HEADER.instantiate(port=port)
    return _base_packet(HdrType.KEY_EXCHANGE, msg_type, seq_num, key_ver,
                        KEYCTL, payload)


def build_alert(code: AlertCode, detail: int, seq_num: int,
                key_ver: int = 0) -> Packet:
    """Alert from the data plane toward the controller (§VIII)."""
    payload = ALERT_HEADER.instantiate(code=int(code), detail=detail)
    return _base_packet(HdrType.ALERT, 0, seq_num, key_ver, ALERT, payload)


#: The p4auth fields the digest covers: all but ``digest``, in
#: declaration order.  Fields have mixed widths; each is serialized at
#: 8 bytes little-endian for a fixed, unambiguous layout (this mirrors
#: PHV container granularity).
_COVERED_FIELDS = [name for name, _bits in P4AUTH_HEADER.fields
                   if name != "digest"]
_COVERED = itemgetter(*_COVERED_FIELDS)
_COVERED_WORDS = Struct("<%dQ" % len(_COVERED_FIELDS))


def digest_material(packet: Packet) -> bytes:
    """The byte string the digest is computed over (Eqn. 4).

    All p4auth header fields except ``digest``, serialized in declaration
    order, followed by the serialized payload header and any residual
    payload bytes.  Protected non-P4Auth headers riding on the same packet
    (e.g., a HULA probe being authenticated DP-DP) are also covered, so a
    MitM cannot tamper with the probe body while leaving the P4Auth
    fields intact.  The p4auth words come first wherever the header sits
    on the stack.
    """
    parts = [_COVERED_WORDS.pack(*_COVERED(packet.get(P4AUTH).fields()))]
    for name, header in packet.headers():
        if name != P4AUTH:
            parts.append(header.serialize())
    parts.append(packet.payload)
    return b"".join(parts)
