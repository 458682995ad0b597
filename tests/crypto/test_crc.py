"""CRC32 engine: bit-exactness with zlib and keyed-digest behavior.

``Crc32.compute`` executes ``zlib.crc32``; the table walk
``Crc32._walk`` is the specification.  Pinned three ways: walk == zlib
== compute.
"""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto.crc import Crc32, crc32


@given(st.binary(max_size=256))
def test_matches_zlib(data):
    engine = Crc32()
    assert engine._walk(data) == zlib.crc32(data) == engine.compute(data) \
        == crc32(data)


def test_known_vector():
    # The classic "123456789" check value for CRC-32/IEEE.
    assert crc32(b"123456789") == 0xCBF43926


def test_empty_input():
    assert crc32(b"") == 0


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
