"""CRC32 engine: bit-exactness with zlib and keyed-digest behavior.

``Crc32.compute`` executes ``zlib.crc32`` when its parameters are the
IEEE ones; the table walk ``Crc32._walk`` is the specification (and what
a custom polynomial runs).  Pinned three ways: walk == zlib == compute.
"""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto.crc import Crc32, crc32


@given(st.binary(max_size=256))
def test_matches_zlib(data):
    assert Crc32()._walk(data) == zlib.crc32(data) == crc32(data)


# Up to four 0xFF bytes cancel the all-ones init byte by byte and each
# index table[0] == 0, so these inputs have the IEEE CRC under every
# polynomial: the one place another polynomial cannot differ from zlib.
_POLYNOMIAL_BLIND = {b"\xff" * k for k in range(1, 5)}


@given(st.binary(min_size=1, max_size=64))
def test_only_the_ieee_parameters_take_zlib(data):
    """Any other polynomial, init or xor_out keeps the table walk."""
    castagnoli = Crc32(polynomial=0x82F63B78)
    for engine in (castagnoli, Crc32(init=0), Crc32(xor_out=0)):
        assert engine.compute(data) == engine._walk(data)
        if engine is castagnoli and data in _POLYNOMIAL_BLIND:
            assert engine.compute(data) == zlib.crc32(data)
        else:
            assert engine.compute(data) != zlib.crc32(data)


def test_known_vector():
    # The classic "123456789" check value for CRC-32/IEEE.
    assert crc32(b"123456789") == 0xCBF43926


def test_empty_input():
    assert crc32(b"") == 0


def test_custom_polynomial_differs():
    castagnoli = Crc32(polynomial=0x82F63B78)
    assert castagnoli.compute(b"123456789") != crc32(b"123456789")
    # CRC-32C check value.
    assert castagnoli.compute(b"123456789") == 0xE3069283


def test_keyed_digest_depends_on_key():
    engine = Crc32()
    assert (engine.compute_keyed(1, b"data")
            != engine.compute_keyed(2, b"data"))


def test_keyed_digest_depends_on_data():
    engine = Crc32()
    assert (engine.compute_keyed(1, b"data")
            != engine.compute_keyed(1, b"datb"))


def test_keyed_rejects_oversized_key():
    engine = Crc32()
    with pytest.raises(ValueError):
        engine.compute_keyed(1 << 64, b"x")


def test_keyed_equals_prefixed_plain():
    engine = Crc32()
    key = 0x1122334455667788
    assert (engine.compute_keyed(key, b"abc")
            == engine.compute(key.to_bytes(8, "little") + b"abc"))


@given(st.binary(max_size=64), st.binary(min_size=1, max_size=8))
def test_append_changes_crc(data, suffix):
    # CRC of data differs from CRC of data+suffix unless suffix makes the
    # same remainder — astronomically unlikely at these sizes, and a
    # systematic equality would mean a broken table.
    if suffix.strip(b"\x00") or data == b"":
        assert crc32(data) != crc32(data + suffix) or suffix == b""
