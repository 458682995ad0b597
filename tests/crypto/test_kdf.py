"""KDF: extract-and-expand behavior, pluggable PRFs, input validation."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.halfsiphash import HalfSipHash
from repro.crypto.kdf import Kdf, crc32_prf, kdf

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


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


def test_prf_choice_changes_output():
    def halfsiphash_prf(data: bytes) -> int:
        return HalfSipHash().digest(0x5034417574685052, data)

    crc_kdf = Kdf(prf=crc32_prf)
    hsh_kdf = Kdf(prf=halfsiphash_prf)
    assert crc_kdf.derive(7, 8) != hsh_kdf.derive(7, 8)


def test_extra_rounds_change_output():
    assert Kdf(rounds=1).derive(7, 8) != Kdf(rounds=2).derive(7, 8)


def test_rounds_must_be_positive():
    with pytest.raises(ValueError):
        Kdf(rounds=0)


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
