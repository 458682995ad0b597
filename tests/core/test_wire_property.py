"""Property battery for the wire codec (chaos-run prerequisite).

Before fault injection corrupts bytes in flight, pin the parser contract:
every well-formed message round-trips byte-exactly for *arbitrary* field
values, and every truncation or bit flip of a valid message either parses
or raises :class:`WireFormatError` with a named reason — never any other
exception, never a hang, never a partial crash.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constants import (
    AlertCode,
    KeyExchType,
    P4AUTH,
    RegOpType,
)
from repro.core.messages import (
    build_adhkd_message,
    build_alert,
    build_eak_message,
    build_keyctl_message,
    build_reg_read_request,
    build_reg_response,
    build_reg_write_request,
)
from repro.core.wire import WireFormatError, parse_message, serialize_message

U8 = st.integers(min_value=0, max_value=(1 << 8) - 1)
U32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
U56 = st.integers(min_value=0, max_value=(1 << 56) - 1)
U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)

EXCHANGE_TYPES = st.sampled_from([KeyExchType.EAK_SALT1,
                                  KeyExchType.EAK_SALT2])
ADHKD_TYPES = st.sampled_from([KeyExchType.ADHKD_MSG1, KeyExchType.ADHKD_MSG2,
                               KeyExchType.UPD_MSG1, KeyExchType.UPD_MSG2])
KEYCTL_TYPES = st.sampled_from([KeyExchType.PORT_KEY_INIT,
                                KeyExchType.PORT_KEY_UPDATE])


@st.composite
def messages(draw):
    """An arbitrary well-formed P4Auth message of any kind."""
    kind = draw(st.integers(min_value=0, max_value=6))
    if kind == 6:
        return build_reg_response(draw(st.booleans()), draw(U32), draw(U32),
                                  draw(U64), draw(U32), key_ver=draw(U8))
    if kind == 0:
        return build_reg_read_request(draw(U32), draw(U32), draw(U32),
                                      key_ver=draw(U8))
    if kind == 1:
        return build_reg_write_request(draw(U32), draw(U32), draw(U64),
                                       draw(U32), key_ver=draw(U8))
    if kind == 2:
        return build_eak_message(draw(EXCHANGE_TYPES), draw(U64), draw(U32))
    if kind == 3:
        return build_adhkd_message(draw(ADHKD_TYPES), draw(U64), draw(U64),
                                   draw(U32), key_ver=draw(U8))
    if kind == 4:
        return build_keyctl_message(draw(KEYCTL_TYPES), draw(U32), draw(U32),
                                    key_ver=draw(U8))
    return build_alert(draw(st.sampled_from(list(AlertCode))), draw(U56),
                       draw(U32))


@given(messages())
@settings(max_examples=200, deadline=None)
def test_any_message_roundtrips_byte_exactly(message):
    wire = serialize_message(message)
    parsed = parse_message(wire)
    assert parsed.serialize() == wire
    assert parsed.header_names() == message.header_names()
    assert parsed.get(P4AUTH) == message.get(P4AUTH)


@given(st.booleans(), U32, U32, U64, U32, U8)
@settings(max_examples=200, deadline=None)
def test_reg_response_roundtrips(ok, reg_id, index, value, seq, key_ver):
    """ACK/NACK responses (PR 2's coverage gap) round-trip byte-exactly
    and keep the ok bit in the message type across the wire."""
    message = build_reg_response(ok, reg_id, index, value, seq,
                                 key_ver=key_ver)
    wire = serialize_message(message)
    parsed = parse_message(wire)
    assert parsed.serialize() == wire
    expected = RegOpType.ACK if ok else RegOpType.NACK
    assert parsed.get(P4AUTH)["msgType"] == int(expected)


@given(messages(), st.data())
@settings(max_examples=200, deadline=None)
def test_truncation_never_crashes(message, data):
    """Every strict prefix parses or rejects with a named reason."""
    wire = serialize_message(message)
    cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    try:
        parse_message(wire[:cut])
    except WireFormatError as exc:
        assert str(exc)  # rejection carries a reason, not a bare raise


@given(messages(), st.data())
@settings(max_examples=200, deadline=None)
def test_bit_flip_never_crashes(message, data):
    """A single flipped bit parses (caught later by the digest) or is
    rejected as malformed — no other exception may escape."""
    wire = bytearray(serialize_message(message))
    position = data.draw(st.integers(min_value=0, max_value=len(wire) * 8 - 1))
    wire[position // 8] ^= 1 << (position % 8)
    try:
        parsed = parse_message(bytes(wire))
    except WireFormatError as exc:
        assert str(exc)
    else:
        # A structurally valid mutation must re-serialize to what was
        # parsed (parse is a left inverse of serialize on its range).
        assert parsed.serialize() == bytes(wire)


def test_every_prefix_of_each_kind_is_handled():
    """Exhaustive (not sampled) truncation sweep over one of each kind."""
    samples = [
        build_reg_read_request(1, 2, 3),
        build_reg_write_request(1, 2, 3, 4),
        build_reg_response(True, 1, 2, 3, 4),
        build_reg_response(False, 1, 2, 3, 4),
        build_eak_message(KeyExchType.EAK_SALT1, 0xABCD, 1),
        build_adhkd_message(KeyExchType.ADHKD_MSG1, 7, 8, 2),
        build_keyctl_message(KeyExchType.PORT_KEY_UPDATE, 3, 5),
        build_alert(AlertCode.REPLAY_SUSPECTED, 99, 6),
    ]
    for message in samples:
        wire = serialize_message(message)
        for cut in range(len(wire)):
            with pytest.raises(WireFormatError):
                parse_message(wire[:cut])
        assert parse_message(wire).serialize() == wire


# ---------------------------------------------------------------------
# One grammar, pinned from both ends: everything below enumerates
# MESSAGE_GRAMMAR, so a reader that stops reading the table fails here.
# ---------------------------------------------------------------------

from repro.core.auth_dataplane import P4AuthDataplane  # noqa: E402
from repro.core.constants import (  # noqa: E402
    MESSAGE_GRAMMAR,
    P4AUTH_HEADER,
    P4AUTH_HEADERS,
    HdrType,
)
from repro.dataplane.packet import Packet  # noqa: E402

PAYLOAD_TYPES = {header.name: header for header in P4AUTH_HEADERS[1:]}
HDR_TYPES = range(0, 10)
MSG_TYPES = range(0, 12)

def _build_reg_op(msg_type):
    if msg_type == RegOpType.READ_REQ:
        return build_reg_read_request(1, 2, 4)
    if msg_type == RegOpType.WRITE_REQ:
        return build_reg_write_request(1, 2, 3, 4)
    return build_reg_response(msg_type == RegOpType.ACK, 1, 2, 3, 4)


#: The public builder of each payload, called with the row's msgType.
BUILDERS = {
    "reg_op": _build_reg_op,
    "alert": lambda m: build_alert(AlertCode.REPLAY_SUSPECTED, 9, 4),
    "eak": lambda m: build_eak_message(m, 0xABCD, 4),
    "adhkd": lambda m: build_adhkd_message(m, 7, 8, 4),
    "keyctl": lambda m: build_keyctl_message(m, 3, 4),
}


def _grammar_rows():
    """Every ``(hdrType, msgType, payload type)`` the table admits, a
    wildcard row expanded over its enum (REGISTER_OP) or ``MSG_TYPES``."""
    for (hdr_type, msg_type), payload in MESSAGE_GRAMMAR.items():
        if msg_type is not None:
            yield hdr_type, msg_type, payload
        else:
            for any_type in MSG_TYPES:
                yield hdr_type, any_type, payload


def _raw(hdr_type, msg_type, payload_name, length=None):
    """A message assembled header by header, bypassing the builders."""
    packet = Packet()
    payload = PAYLOAD_TYPES.get(payload_name)
    width = payload.byte_width if payload is not None else 0
    packet.push(P4AUTH, P4AUTH_HEADER.instantiate(
        hdrType=hdr_type, msgType=msg_type, seqNum=1, keyVer=0, flags=0,
        length=width if length is None else length, digest=0))
    if payload is not None:
        packet.push(payload_name, payload.instantiate())
    return packet


def test_every_grammar_row_roundtrips_through_its_builder():
    built = 0
    for (hdr_type, msg_type), payload in MESSAGE_GRAMMAR.items():
        if payload is None:
            continue
        msg_types = ([msg_type] if msg_type is not None
                     else list(RegOpType) if hdr_type == HdrType.REGISTER_OP
                     else [0])
        for one in msg_types:
            message = BUILDERS[payload.name](one)
            hdr = message.get(P4AUTH)
            assert (hdr["hdrType"], hdr["msgType"]) == (hdr_type, one)
            assert message.header_names() == [P4AUTH, payload.name]
            wire = serialize_message(message)
            parsed = parse_message(wire)
            assert parsed.header_names() == message.header_names()
            assert parsed.serialize() == wire
            built += 1
    assert built == 4 + 1 + 8


def test_wrong_payload_or_length_is_a_wire_format_error():
    for hdr_type, msg_type, payload in _grammar_rows():
        if payload is None:
            continue
        for wrong in PAYLOAD_TYPES.values():
            # Same-width payloads are the same bytes; the parser cannot
            # (and need not) tell them apart.
            if wrong.byte_width == payload.byte_width:
                continue
            with pytest.raises(WireFormatError):
                parse_message(_raw(hdr_type, msg_type, wrong.name).serialize())
        for length in (0, payload.byte_width - 1, payload.byte_width + 1):
            with pytest.raises(WireFormatError):
                parse_message(_raw(hdr_type, msg_type, payload.name,
                                   length=length).serialize())


def test_parser_and_data_plane_admit_exactly_the_table():
    """The triples ``parse_message`` accepts, the triples the data
    plane's structural check lets past, and the table are one set."""
    present = P4AuthDataplane._payload_present
    parser, dataplane, bare_parser, bare_dataplane = set(), set(), set(), set()
    for hdr_type in HDR_TYPES:
        for msg_type in MSG_TYPES:
            bare = _raw(hdr_type, msg_type, None)
            try:
                if parse_message(bare.serialize()).header_names() == [P4AUTH]:
                    bare_parser.add((hdr_type, msg_type))
            except WireFormatError:
                pass
            if present(bare, bare.get(P4AUTH)):
                bare_dataplane.add((hdr_type, msg_type))
            for name in PAYLOAD_TYPES:
                packet = _raw(hdr_type, msg_type, name)
                try:
                    parsed = parse_message(packet.serialize())
                except WireFormatError:
                    pass
                else:
                    if parsed.header_names() == [P4AUTH, name]:
                        parser.add((hdr_type, msg_type, name))
                # "Requires this payload": let past with it, not without.
                if (present(packet, packet.get(P4AUTH))
                        and (hdr_type, msg_type) not in bare_dataplane):
                    dataplane.add((hdr_type, msg_type, name))
    rows = list(_grammar_rows())
    table = {(int(h), int(m), p.name) for h, m, p in rows if p is not None}
    no_fixed_payload = {(int(h), int(m)) for h, m, p in rows if p is None}
    assert parser == dataplane == table
    assert bare_parser == bare_dataplane == no_fixed_payload
    assert len(table) == 12 + 12 + 8 and len(no_fixed_payload) == 12
