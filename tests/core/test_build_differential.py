"""Struct-packed headers and template-built messages against the slow forms.

A header type whose fields are all 8, 16, 32 or 64 bits serializes
through one ``Struct``; every other layout shifts field by field.  The
message builders copy a cached p4auth header per ``(hdrType, msgType)``
instead of instantiating one.  Eqn 4 material is those bytes, so each
fast form must equal its slow form bit for bit: for every header type
declared in the package, and for every ``MESSAGE_GRAMMAR`` row with a
payload (wire bytes, header stack and digest), with each field's
maximum among the drawn values.  Range errors keep their text, and a
built packet shares no state with the next build.
"""

import importlib
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.constants import (
    MESSAGE_GRAMMAR,
    P4AUTH,
    P4AUTH_HEADER,
    HdrType,
    RegOpType,
    payload_of,
)
from repro.core.digest import DigestEngine
from repro.core.messages import (
    _base_packet,
    build_reg_read_request,
    build_reg_write_request,
)
from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet


def _declared_header_types():
    """Every module-level ``HeaderType`` in the package, by name."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        for value in vars(importlib.import_module(info.name)).values():
            if isinstance(value, HeaderType):
                found[value.name] = value
    return [found[name] for name in sorted(found)]


HEADER_TYPES = _declared_header_types()


def _field_values(fields):
    """Each field from 0 to its maximum, the maximum drawn often."""
    return st.fixed_dictionaries({
        name: st.one_of(st.just((1 << bits) - 1),
                        st.integers(0, (1 << bits) - 1))
        for name, bits in fields})


def _shifted(header):
    """``header`` serialized by the shift loop, the Struct path off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(header.header_type, "_struct", None)
        return header.serialize()


def test_every_p4auth_header_but_alert_packs_through_a_struct():
    packed = {header_type.name for header_type in HEADER_TYPES
              if header_type._struct is not None}
    assert {"p4auth", "reg_op", "eak", "adhkd", "keyctl"} <= packed
    assert "alert" not in packed
    assert len(HEADER_TYPES) >= 18


@pytest.mark.parametrize("header_type", HEADER_TYPES,
                         ids=[header_type.name
                              for header_type in HEADER_TYPES])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_struct_path_equals_shift_loop(header_type, data):
    header = header_type.instantiate(**data.draw(_field_values(
        header_type.fields)))
    wire = header.serialize()
    assert wire == _shifted(header)
    assert len(wire) == header_type.byte_width
    assert header_type.parse(wire) == header


def _instantiated(hdr_type, msg_type, seq_num, key_ver, **payload_fields):
    """``_base_packet`` as it was before templates: two fresh headers."""
    payload_type = payload_of(hdr_type, msg_type)
    packet = Packet()
    packet.push(P4AUTH, P4AUTH_HEADER.instantiate(
        hdrType=int(hdr_type), msgType=int(msg_type), seqNum=seq_num,
        keyVer=key_ver, flags=0, length=payload_type.byte_width, digest=0))
    packet.push(payload_type.name, payload_type.instantiate(**payload_fields))
    return packet


#: Every grammar row with a payload, a wildcard msgType spelled out.
ROWS = sorted({
    (int(hdr_type), int(msg_type))
    for (hdr_type, grammar_msg), payload_type in MESSAGE_GRAMMAR.items()
    if payload_type is not None
    for msg_type in ((grammar_msg,) if grammar_msg is not None
                     else RegOpType if hdr_type == HdrType.REGISTER_OP
                     else (0,))})


@pytest.mark.parametrize("row", ROWS, ids=[f"{h}-{m}" for h, m in ROWS])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), key=st.integers(0, (1 << 64) - 1))
def test_template_build_equals_instantiate_build(row, data, key):
    hdr_type, msg_type = row
    seq_num = data.draw(st.one_of(st.just((1 << 32) - 1),
                                  st.integers(0, (1 << 32) - 1)))
    key_ver = data.draw(st.one_of(st.just(255), st.integers(0, 255)))
    payload = data.draw(_field_values(payload_of(hdr_type, msg_type).fields))
    built = _base_packet(HdrType(hdr_type), msg_type, seq_num, key_ver,
                         **payload)
    reference = _instantiated(HdrType(hdr_type), msg_type, seq_num, key_ver,
                              **payload)
    assert built.header_names() == reference.header_names()
    assert built.serialize() == reference.serialize()
    engine = DigestEngine()
    assert engine.compute(key, built) == engine.compute(key, reference)


@pytest.mark.parametrize("args,text", [
    ((3, 1, 5, 1 << 32, 0), "value 0x100000000 does not fit field 'seqNum' "
                            "(32 bits)"),
    ((3, 1, 5, -1, 0), "value -0x1 does not fit field 'seqNum' (32 bits)"),
    ((3, 1, 5, 7, 256), "value 0x100 does not fit field 'keyVer' (8 bits)"),
    ((3, 1, 1 << 64, 7, 0), "value 0x10000000000000000 does not fit field "
                            "'value' (64 bits)"),
    ((1 << 32, 1, 5, 7, 0), "value 0x100000000 does not fit field 'regId' "
                            "(32 bits)"),
])
def test_out_of_range_fields_raise_the_same_text(args, text):
    reg_id, index, value, seq_num, key_ver = args
    with pytest.raises(ValueError) as built:
        build_reg_write_request(reg_id, index, value, seq_num, key_ver)
    with pytest.raises(ValueError) as reference:
        _instantiated(HdrType.REGISTER_OP, RegOpType.WRITE_REQ, seq_num,
                      key_ver, regId=reg_id, index=index, value=value)
    assert str(built.value) == str(reference.value) == text


def test_a_mutated_packet_does_not_leak_into_the_next_build():
    first = build_reg_read_request(3, 1, seq_num=10, key_ver=1)
    p4auth = first.get(P4AUTH)
    for field in ("hdrType", "msgType", "flags", "length", "digest"):
        p4auth[field] = 0xFF
    p4auth["seqNum"] = 99
    first.get("reg_op")["value"] = 0xAB
    second = build_reg_read_request(3, 1, seq_num=11, key_ver=1)
    assert second.serialize() == _instantiated(
        HdrType.REGISTER_OP, RegOpType.READ_REQ, 11, 1, regId=3, index=1,
        value=0).serialize()
    assert second.get(P4AUTH) is not p4auth
