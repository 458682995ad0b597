"""Header types: field packing, parsing, validation."""

import pytest
from hypothesis import given, strategies as st

from repro.dataplane.headers import Header, HeaderType

DEMO = HeaderType("demo", [("a", 8), ("b", 16), ("c", 8)])


def test_bit_and_byte_width():
    assert DEMO.bit_width == 32
    assert DEMO.byte_width == 4


def test_instantiate_defaults_to_zero():
    header = DEMO.instantiate()
    assert header["a"] == 0 and header["b"] == 0 and header["c"] == 0


def test_serialize_big_endian_order():
    header = DEMO.instantiate(a=0x12, b=0x3456, c=0x78)
    assert header.serialize() == bytes([0x12, 0x34, 0x56, 0x78])


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=65535),
       st.integers(min_value=0, max_value=255))
def test_serialize_parse_roundtrip(a, b, c):
    header = DEMO.instantiate(a=a, b=b, c=c)
    parsed = DEMO.parse(header.serialize())
    assert parsed == header


def test_parse_ignores_trailing_bytes():
    header = DEMO.instantiate(a=1, b=2, c=3)
    parsed = DEMO.parse(header.serialize() + b"extra")
    assert parsed == header


def test_parse_rejects_short_input():
    with pytest.raises(ValueError):
        DEMO.parse(b"\x00\x01")


def test_field_value_must_fit():
    header = DEMO.instantiate()
    with pytest.raises(ValueError):
        header["a"] = 256
    with pytest.raises(ValueError):
        header["b"] = -1


def test_unknown_field_rejected():
    header = DEMO.instantiate()
    with pytest.raises(KeyError):
        header["nope"]
    with pytest.raises(KeyError):
        DEMO.field_width("nope")


def test_duplicate_fields_rejected():
    with pytest.raises(ValueError):
        HeaderType("bad", [("x", 8), ("x", 8)])


def test_unaligned_header_rejected():
    with pytest.raises(ValueError):
        HeaderType("bad", [("x", 7)])


def test_zero_width_field_rejected():
    with pytest.raises(ValueError):
        HeaderType("bad", [("x", 0), ("y", 8)])


def test_empty_header_rejected():
    with pytest.raises(ValueError):
        HeaderType("bad", [])


def test_copy_is_independent():
    header = DEMO.instantiate(a=1)
    clone = header.copy()
    clone["a"] = 2
    assert header["a"] == 1


def test_copy_equals_the_original():
    header = DEMO.instantiate(a=1, b=2, c=3)
    clone = header.copy()
    assert clone == header and clone is not header
    assert clone.serialize() == header.serialize()
    assert clone.header_type is header.header_type


def test_copy_still_validates_later_stores():
    clone = DEMO.instantiate(a=1).copy()
    with pytest.raises(ValueError):
        clone["a"] = 1 << DEMO.field_width("a")
    with pytest.raises(KeyError):
        clone["nosuch"] = 0
    assert clone["a"] == 1


def test_instantiate_error_texts():
    with pytest.raises(KeyError, match=r"header 'demo' has no field 'nope'"):
        DEMO.instantiate(nope=1)
    with pytest.raises(ValueError,
                       match=r"value 0x100 does not fit field 'a' \(8 bits\)"):
        DEMO.instantiate(a=0x100)
    with pytest.raises(ValueError,
                       match=r"value -0x1 does not fit field 'b' \(16 bits\)"):
        DEMO.instantiate(b=-1)


def test_store_error_texts_match_instantiate():
    header = DEMO.instantiate()
    with pytest.raises(KeyError, match=r"header 'demo' has no field 'nope'"):
        header["nope"] = 1
    with pytest.raises(ValueError,
                       match=r"value 0x100 does not fit field 'c' \(8 bits\)"):
        header["c"] = 0x100
    assert header == DEMO.instantiate()


def test_header_does_not_share_the_values_it_was_built_from():
    values = {"a": 1, "b": 2}
    header = Header(DEMO, values)
    values["a"] = 0xFF
    values["c"] = 7
    assert (header["a"], header["b"], header["c"]) == (1, 2, 0)
    assert header.serialize() == bytes([1, 0, 2, 0])
    assert list(DEMO.instantiate(c=1, a=2).fields()) == ["a", "b", "c"]
