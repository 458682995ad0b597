"""KDF: extract-and-expand behavior, known answers, input validation."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto.kdf import Kdf, kdf

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def _fig13_oracle(key_in: int, salt: int) -> int:
    """Fig 13 written out from ``zlib.crc32``: PRK = PRF(salt || K_in),
    T1 = PRF(PRK || 1), T2 = PRF(PRK || T1 || 2), key = T1 || T2, all
    little-endian, one round."""
    prk = zlib.crc32(salt.to_bytes(8, "little") + key_in.to_bytes(8, "little"))
    prk_bytes = prk.to_bytes(4, "little")
    t1 = zlib.crc32(prk_bytes + bytes([1]))
    t2 = zlib.crc32(prk_bytes + t1.to_bytes(4, "little") + bytes([2]))
    return (t1 << 32) | t2


@pytest.mark.parametrize("key_in, salt, expected", [
    (0, 0, 0x3603F51DA553F529),
    (1, 99, 0xF3A2C6524A11D197),
    ((1 << 64) - 1, (1 << 64) - 1, 0x579593077A66304A),
])
def test_known_answers(key_in, salt, expected):
    assert kdf(key_in, salt) == expected
    assert Kdf().derive(key_in, salt) == expected


@given(U64, U64)
def test_matches_fig13_oracle(key_in, salt):
    assert kdf(key_in, salt) == _fig13_oracle(key_in, salt)


@given(U64, U64)
def test_output_is_64_bit(key_in, salt):
    assert 0 <= kdf(key_in, salt) < (1 << 64)


@given(U64, U64)
def test_deterministic(key_in, salt):
    assert kdf(key_in, salt) == kdf(key_in, salt)


def test_key_sensitivity():
    assert kdf(1, 99) != kdf(2, 99)


def test_salt_sensitivity():
    assert kdf(99, 1) != kdf(99, 2)


def test_rejects_oversized_inputs():
    with pytest.raises(ValueError):
        kdf(1 << 64, 0)
    with pytest.raises(ValueError):
        kdf(0, 1 << 64)


@given(U64)
def test_zero_salt_still_randomizes_across_keys(key_in):
    # Even with a degenerate salt the output must track the input key.
    if key_in != key_in ^ 0xFFFF:
        assert kdf(key_in, 0) != kdf(key_in ^ 0xFFFF, 0)


def test_output_distribution_rough_uniformity():
    # Over many sequential inputs, top-bit should be set ~half the time —
    # a smoke check on "close-to-random keys" (paper §VI-D).
    top_bits = sum((kdf(i, i * 31 + 7) >> 63) & 1 for i in range(512))
    assert 150 < top_bits < 362
