"""P4Auth wire formats and protocol constants (paper Fig 7).

The P4Auth header is 14 bytes:

======== ====== =========================================================
field    bits   meaning
======== ====== =========================================================
hdrType    8    message class: register op / alert / key exchange
msgType    8    class-specific subtype (readReq, ack, EAK salt, ...)
seqNum    32    request/response correlation + replay defense (§VIII)
keyVer     8    which key version authenticated this message (§VI-C)
flags      8    reserved
length    16    payload byte length
digest    32    HMAC over header (sans digest) + payload (Eqn. 4)
======== ====== =========================================================

Payload formats are sized so the per-exchange byte totals reproduce
Table III exactly: EAK = 22 B, ADHKD = 30 B, portKeyInit/Update = 18 B
(see DESIGN.md, "Message-size calibration").
"""

from __future__ import annotations

import enum

from repro.dataplane.headers import HeaderType


class HdrType(enum.IntEnum):
    """Top-level message class carried in ``hdrType``."""

    REGISTER_OP = 1
    ALERT = 2
    KEY_EXCHANGE = 3
    DP_FEEDBACK = 4  # DP-DP in-network control message protection


class RegOpType(enum.IntEnum):
    """``msgType`` values when ``hdrType == REGISTER_OP`` (Fig 7)."""

    READ_REQ = 1
    WRITE_REQ = 2
    ACK = 3
    NACK = 4


class KeyExchType(enum.IntEnum):
    """``msgType`` values when ``hdrType == KEY_EXCHANGE`` (Fig 14)."""

    EAK_SALT1 = 1       # C -> DP, carries S1
    EAK_SALT2 = 2       # DP -> C, carries S2
    ADHKD_MSG1 = 3      # initiator -> responder: PK1, S1
    ADHKD_MSG2 = 4      # responder -> initiator: PK2, S2
    PORT_KEY_INIT = 5   # C -> DP: start port-key ADHKD via controller
    PORT_KEY_UPDATE = 6  # C -> DP: start port-key ADHKD directly over link
    UPD_MSG1 = 7        # updKeyExch leg 1: local-key update (K_local auth)
    UPD_MSG2 = 8        # updKeyExch leg 2


class AlertCode(enum.IntEnum):
    """Why the data plane raised an alert."""

    DIGEST_MISMATCH_CDP = 1
    DIGEST_MISMATCH_DPDP = 2
    REPLAY_SUSPECTED = 3
    UNKNOWN_REGISTER = 4
    KEY_EXCHANGE_TAMPER = 5
    UNAUTHENTICATED_REG_OP = 6


# ---------------------------------------------------------------------------
# Header type declarations
# ---------------------------------------------------------------------------

#: The 14-byte P4Auth header (Fig 7).
P4AUTH_HEADER = HeaderType("p4auth", [
    ("hdrType", 8),
    ("msgType", 8),
    ("seqNum", 32),
    ("keyVer", 8),
    ("flags", 8),
    ("length", 16),
    ("digest", 32),
])

#: Register read/write payload: identifier, index, and (for writes/acks)
#: the 64-bit value.  16 bytes.
REG_OP_HEADER = HeaderType("reg_op", [
    ("regId", 32),
    ("index", 32),
    ("value", 64),
])

#: EAK payload: one 64-bit salt.  8 bytes (message total 22 B).
EAK_HEADER = HeaderType("eak", [
    ("salt", 64),
])

#: ADHKD payload: public key + salt.  16 bytes (message total 30 B).
ADHKD_HEADER = HeaderType("adhkd", [
    ("pk", 64),
    ("salt", 64),
])

#: portKeyInit / portKeyUpdate payload: the local port whose key to
#: (re-)establish.  4 bytes (message total 18 B).
KEYCTL_HEADER = HeaderType("keyctl", [
    ("port", 32),
])

#: Alert payload: code + detail word.  8 bytes.
ALERT_HEADER = HeaderType("alert", [
    ("code", 8),
    ("detail", 56),
])

#: Name under which the P4Auth header rides on a packet's header stack;
#: every payload rides under its header type's name.
P4AUTH = "p4auth"
REG_OP = "reg_op"
EAK = "eak"
ADHKD = "adhkd"
KEYCTL = "keyctl"
ALERT = "alert"

#: The six wire headers: the P4Auth header, then its five payloads.
P4AUTH_HEADERS = (P4AUTH_HEADER, REG_OP_HEADER, EAK_HEADER, ADHKD_HEADER,
                  KEYCTL_HEADER, ALERT_HEADER)

#: The message grammar (Fig 7, Fig 14): which payload header follows the
#: P4Auth header, by ``(hdrType, msgType)``.  ``msgType`` ``None`` is
#: "any"; a ``None`` payload is "no fixed payload" (the protected
#: system's own headers follow).  The builders, the wire parser, the
#: data plane's structural check and the emitted P4 parser all read this
#: table; its row order is the P4 parser's ``select`` order.
MESSAGE_GRAMMAR = {
    (HdrType.REGISTER_OP, None): REG_OP_HEADER,
    (HdrType.ALERT, None): ALERT_HEADER,
    (HdrType.KEY_EXCHANGE, KeyExchType.EAK_SALT1): EAK_HEADER,
    (HdrType.KEY_EXCHANGE, KeyExchType.EAK_SALT2): EAK_HEADER,
    (HdrType.KEY_EXCHANGE, KeyExchType.ADHKD_MSG1): ADHKD_HEADER,
    (HdrType.KEY_EXCHANGE, KeyExchType.ADHKD_MSG2): ADHKD_HEADER,
    (HdrType.KEY_EXCHANGE, KeyExchType.UPD_MSG1): ADHKD_HEADER,
    (HdrType.KEY_EXCHANGE, KeyExchType.UPD_MSG2): ADHKD_HEADER,
    (HdrType.KEY_EXCHANGE, KeyExchType.PORT_KEY_INIT): KEYCTL_HEADER,
    (HdrType.KEY_EXCHANGE, KeyExchType.PORT_KEY_UPDATE): KEYCTL_HEADER,
    (HdrType.DP_FEEDBACK, None): None,
}


def payload_of(hdr_type: int, msg_type: int):
    """The payload header type a ``(hdrType, msgType)`` message carries.

    ``None`` when the message has no fixed payload; ``KeyError`` when the
    pair is not a P4Auth message at all.
    """
    any_msg_type = (hdr_type, None)
    return MESSAGE_GRAMMAR[any_msg_type if any_msg_type in MESSAGE_GRAMMAR
                           else (hdr_type, msg_type)]


#: Key version slots (two-version consistent updates, §VI-C).
KEY_VERSIONS = 2
