"""Wire codec: serialize and parse P4Auth messages as byte strings.

:meth:`repro.dataplane.packet.Packet.serialize` already flattens a packet
to bytes; this module provides the inverse for P4Auth protocol messages,
reconstructing the header stack from the ``hdrType``/``msgType`` fields
by reading :data:`repro.core.constants.MESSAGE_GRAMMAR` — the table the
data plane's structural check and the emitted P4 parser read too.
Byte counts produced here are exactly the Table III message sizes.

No simulated path parses bytes: messages travel between controller,
switches and adversaries as :class:`Packet` objects.  This is a codec
for tests, benchmark probes and external tooling.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.constants import (
    P4AUTH,
    P4AUTH_HEADER,
    P4AUTH_HEADERS,
    HdrType,
    payload_of,
)
from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet


class WireFormatError(ValueError):
    """The byte string is not a well-formed P4Auth message."""


def wire_header_layouts() -> Dict[str, HeaderType]:
    """Authoritative name -> layout map for every P4Auth wire header.

    The static invariant checker (:mod:`repro.verify.invariants`)
    compares each program's declared header layouts against this map, so
    an IR declaration cannot silently disagree with the codec.
    """
    return {header_type.name: header_type for header_type in P4AUTH_HEADERS}


def serialize_message(packet: Packet) -> bytes:
    """Flatten a P4Auth message to its wire bytes."""
    if not packet.has(P4AUTH):
        raise WireFormatError("packet carries no p4auth header")
    return packet.serialize()


def parse_message(data: bytes,
                  feedback_header: Optional[HeaderType] = None) -> Packet:
    """Reconstruct a P4Auth protocol message from wire bytes.

    ``feedback_header`` supplies the application header type for
    ``DP_FEEDBACK`` messages (the parser of the protected in-network
    system, e.g. the HULA probe header).
    """
    if len(data) < P4AUTH_HEADER.byte_width:
        raise WireFormatError(
            f"need at least {P4AUTH_HEADER.byte_width} bytes, "
            f"got {len(data)}")
    hdr = P4AUTH_HEADER.parse(data)
    offset = P4AUTH_HEADER.byte_width
    packet = Packet()
    packet.push(P4AUTH, hdr)
    try:
        header_type = payload_of(hdr["hdrType"], hdr["msgType"])
    except KeyError:
        if hdr["hdrType"] == HdrType.KEY_EXCHANGE:
            raise WireFormatError(
                f"unknown key-exchange msgType {hdr['msgType']}") from None
        raise WireFormatError(f"unknown hdrType {hdr['hdrType']}") from None
    if header_type is not None:
        name = header_type.name
        if len(data) - offset < header_type.byte_width:
            raise WireFormatError(
                f"truncated {name} payload: need {header_type.byte_width} "
                f"bytes, got {len(data) - offset}")
        if hdr["length"] != header_type.byte_width:
            raise WireFormatError(
                f"length field {hdr['length']} does not match "
                f"{name} payload width {header_type.byte_width}")
        packet.push(name, header_type.parse(data[offset:]))
        offset += header_type.byte_width
    elif feedback_header is not None:
        if len(data) - offset < feedback_header.byte_width:
            raise WireFormatError("truncated feedback payload")
        packet.push(feedback_header.name, feedback_header.parse(data[offset:]))
        offset += feedback_header.byte_width
    packet.payload = data[offset:]
    return packet
