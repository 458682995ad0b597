"""The wiring-time memos cannot drift from what they summarise.

``Packet.size_bytes`` is a running total kept by ``push``/``remove``;
``HeaderType`` answers width questions from tables built at declaration.
Both are checked here against the slow definition (serialize and count),
and every validation they sit behind keeps its exception and message.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet
from repro.dataplane.registers import Register

TYPES = {
    "eth": HeaderType("eth", [("dst", 48), ("src", 48), ("etype", 16)]),
    "v4": HeaderType("v4", [("src", 32), ("dst", 32)]),
    "tag": HeaderType("tag", [("id", 8)]),
    "wide": HeaderType("wide", [(f"f{i}", 24) for i in range(16)]),
}

#: One step of a packet's life: (operation, argument).
STEPS = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(sorted(TYPES))),
    st.tuples(st.just("remove"), st.sampled_from(sorted(TYPES))),
    st.tuples(st.just("payload"), st.binary(max_size=64)),
    st.tuples(st.just("copy"), st.none()),
)


@given(st.lists(st.sampled_from(sorted(TYPES)), unique=True, max_size=3),
       st.binary(max_size=32), st.lists(STEPS, max_size=24))
@settings(max_examples=200, deadline=None)
def test_size_bytes_is_the_serialized_length(initial, payload, steps):
    packet = Packet([(name, TYPES[name].instantiate()) for name in initial],
                    payload)
    assert packet.size_bytes == len(packet.serialize())
    for operation, argument in steps:
        if operation == "push":
            if packet.has(argument):
                with pytest.raises(ValueError, match="already carries"):
                    packet.push(argument, TYPES[argument].instantiate())
            else:
                packet.push(argument, TYPES[argument].instantiate())
        elif operation == "remove":
            if packet.has(argument):
                packet.remove(argument)
            else:
                with pytest.raises(KeyError):
                    packet.remove(argument)
        elif operation == "payload":
            packet.payload = argument
        else:
            original, packet = packet, packet.copy()
            assert original.size_bytes == len(original.serialize())
        assert packet.size_bytes == len(packet.serialize())


@given(st.lists(st.sampled_from(sorted(TYPES)), unique=True, max_size=3),
       st.lists(STEPS, max_size=24))
@settings(max_examples=200, deadline=None)
def test_header_map_behaves_as_a_stack(initial, steps):
    """Headers keyed by name still read back as an outer-to-inner stack:
    checked step by step against a list of ``(name, header)`` pairs."""
    model = [(name, TYPES[name].instantiate()) for name in initial]
    packet = Packet(list(model))
    for operation, argument in steps:
        names = [name for name, _ in model]
        if operation == "push" and argument not in names:
            header = TYPES[argument].instantiate()
            packet.push(argument, header)
            model.append((argument, header))
        elif operation == "remove" and argument in names:
            removed = packet.remove(argument)
            assert removed is model.pop(names.index(argument))[1]
        elif operation == "payload":
            packet.payload = argument
        elif operation == "copy":
            packet = packet.copy()
            model = list(packet.headers())
        assert packet.header_names() == [name for name, _ in model]
        assert list(packet.headers()) == model
        assert all(packet.has(name) and packet.get(name) is header
                   for name, header in model)
        wire = b"".join(header.serialize() for _, header in model)
        assert packet.serialize() == wire + packet.payload
        assert packet.size_bytes == len(wire) + len(packet.payload)


def test_constructor_rejects_a_duplicate_header_like_push():
    header = TYPES["v4"].instantiate()
    with pytest.raises(ValueError,
                       match="packet already carries header 'v4'"):
        Packet([("v4", header), ("v4", header)])


def test_header_type_fields_are_immutable():
    declared = [("a", 8), ("b", 8)]
    header_type = HeaderType("h", declared)
    assert header_type.fields == (("a", 8), ("b", 8))
    with pytest.raises(AttributeError):
        header_type.fields.append(("c", 8))
    with pytest.raises(TypeError):
        header_type.fields[0] = ("a", 16)
    # The caller's list is not aliased either.
    declared.append(("c", 16))
    assert header_type.byte_width == 2
    with pytest.raises(KeyError):
        header_type.field_width("c")


def test_width_tables_match_the_declaration():
    for header_type in TYPES.values():
        assert header_type.byte_width * 8 == header_type.bit_width == sum(
            bits for _, bits in header_type.fields)
        for fname, bits in header_type.fields:
            assert header_type.field_width(fname) == bits
            header = header_type.instantiate()
            header[fname] = (1 << bits) - 1
            with pytest.raises(ValueError):
                header[fname] = 1 << bits


def test_unknown_and_out_of_range_fields_keep_their_messages():
    header = TYPES["v4"].instantiate()
    with pytest.raises(KeyError, match="header 'v4' has no field 'ttl'"):
        TYPES["v4"].field_width("ttl")
    with pytest.raises(KeyError, match="header 'v4' has no field 'ttl'"):
        header["ttl"]
    with pytest.raises(KeyError, match="header 'v4' has no field 'ttl'"):
        header["ttl"] = 1
    with pytest.raises(KeyError, match="header 'v4' has no field 'ttl'"):
        TYPES["v4"].instantiate(ttl=1)
    with pytest.raises(
            ValueError,
            match=r"value 0x100000000 does not fit field 'src' \(32 bits\)"):
        header["src"] = 1 << 32
    with pytest.raises(ValueError,
                       match=r"value -0x1 does not fit field 'src'"):
        header["src"] = -1
    assert header["src"] == 0


def test_register_range_checks_keep_their_messages():
    register = Register("util", width_bits=8, size=4)
    assert register.mask == 0xFF
    for index in (-1, 4):
        message = (rf"index {index} out of range for register 'util' "
                   r"\(size 4\)")
        with pytest.raises(IndexError, match=message):
            register.read(index)
        with pytest.raises(IndexError, match=message):
            register.write(index, 0)
        with pytest.raises(IndexError, match=message):
            register.read_modify_write(index, lambda value: value)
    for value in (-1, 0x100):
        with pytest.raises(
                ValueError,
                match=r"does not fit register 'util' \(8 bits\)"):
            register.write(0, value)
    assert (register.read_count, register.write_count) == (0, 0)
    register.write(3, 0xFF)
    assert register.read(3) == 0xFF
