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
    ADHKD_HEADER,
    EAK_HEADER,
    KEYCTL_HEADER,
    MESSAGE_GRAMMAR,
    P4AUTH,
    P4AUTH_HEADER,
    AlertCode,
    HdrType,
    KeyExchType,
    RegOpType,
    payload_of,
)
from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet


def _base_packet(hdr_type: HdrType, msg_type: int, seq_num: int,
                 key_ver: int, **payload_fields: int) -> Packet:
    """The P4Auth header plus the payload the grammar names for it."""
    payload_type = payload_of(hdr_type, msg_type)
    packet = Packet()
    p4auth = P4AUTH_HEADER.instantiate(
        hdrType=int(hdr_type),
        msgType=int(msg_type),
        seqNum=seq_num,
        keyVer=key_ver,
        flags=0,
        length=payload_type.byte_width,
        digest=0,
    )
    packet.push(P4AUTH, p4auth)
    packet.push(payload_type.name, payload_type.instantiate(**payload_fields))
    return packet


def _key_exchange_packet(msg_type: KeyExchType, carries: HeaderType,
                         kind: str, seq_num: int, key_ver: int,
                         **payload_fields: int) -> Packet:
    if MESSAGE_GRAMMAR.get((HdrType.KEY_EXCHANGE, msg_type)) is not carries:
        raise ValueError(f"{msg_type!r} is not {kind} message type")
    return _base_packet(HdrType.KEY_EXCHANGE, msg_type, seq_num, key_ver,
                        **payload_fields)


def build_reg_read_request(reg_id: int, index: int, seq_num: int,
                           key_ver: int = 0) -> Packet:
    """``readReq``: controller asks the data plane for a register value."""
    return _base_packet(HdrType.REGISTER_OP, RegOpType.READ_REQ, seq_num,
                        key_ver, regId=reg_id, index=index, value=0)


def build_reg_write_request(reg_id: int, index: int, value: int,
                            seq_num: int, key_ver: int = 0) -> Packet:
    """``writeReq``: controller writes a register cell in the data plane."""
    return _base_packet(HdrType.REGISTER_OP, RegOpType.WRITE_REQ, seq_num,
                        key_ver, regId=reg_id, index=index, value=value)


def build_reg_response(ok: bool, reg_id: int, index: int, value: int,
                       seq_num: int, key_ver: int = 0) -> Packet:
    """``ack`` / ``nAck``: data plane's response, echoing the request seq."""
    msg_type = RegOpType.ACK if ok else RegOpType.NACK
    return _base_packet(HdrType.REGISTER_OP, msg_type, seq_num, key_ver,
                        regId=reg_id, index=index, value=value)


def build_eak_message(msg_type: KeyExchType, salt: int, seq_num: int,
                      key_ver: int = 0) -> Packet:
    """EAK salt exchange message (Fig 11); total wire size 22 bytes."""
    return _key_exchange_packet(msg_type, EAK_HEADER, "an EAK", seq_num,
                                key_ver, salt=salt)


def build_adhkd_message(msg_type: KeyExchType, pk: int, salt: int,
                        seq_num: int, key_ver: int = 0) -> Packet:
    """ADHKD / updKeyExch message (Fig 12, Fig 14); wire size 30 bytes."""
    return _key_exchange_packet(msg_type, ADHKD_HEADER, "an ADHKD", seq_num,
                                key_ver, pk=pk, salt=salt)


def build_keyctl_message(msg_type: KeyExchType, port: int, seq_num: int,
                         key_ver: int = 0) -> Packet:
    """portKeyInit / portKeyUpdate (Fig 14); total wire size 18 bytes."""
    return _key_exchange_packet(msg_type, KEYCTL_HEADER, "a key-control",
                                seq_num, key_ver, port=port)


def build_alert(code: AlertCode, detail: int, seq_num: int,
                key_ver: int = 0) -> Packet:
    """Alert from the data plane toward the controller (§VIII)."""
    return _base_packet(HdrType.ALERT, 0, seq_num, key_ver,
                        code=int(code), detail=detail)


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
    # Read in place: ``fields()`` would copy the dict on every digest.
    parts = [_COVERED_WORDS.pack(*_COVERED(packet.get(P4AUTH)._values))]
    for name, header in packet.headers():
        if name != P4AUTH:
            parts.append(header.serialize())
    parts.append(packet.payload)
    return b"".join(parts)
