"""Stream cipher (the §XI encryption extension's cipher half)."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.halfsiphash import HalfSipHash
from repro.crypto.stream import crypt_word, keystream, xor_crypt

KEY = 0x1122334455667788
U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(U64, st.binary(max_size=128))
def test_involutive(nonce, data):
    assert xor_crypt(KEY, nonce, xor_crypt(KEY, nonce, data)) == data


@given(U64, st.binary(min_size=8, max_size=64))
def test_ciphertext_differs_from_plaintext(nonce, data):
    # For >= 8-byte inputs an identity keystream would be a 2^-64 fluke;
    # shorter inputs can legitimately hit single-byte coincidences.
    assert xor_crypt(KEY, nonce, data) != data


def test_nonce_sensitivity():
    data = b"secret register value"
    assert xor_crypt(KEY, 1, data) != xor_crypt(KEY, 2, data)


def test_key_sensitivity():
    data = b"secret register value"
    assert xor_crypt(KEY, 1, data) != xor_crypt(KEY ^ 1, 1, data)


def test_keystream_deterministic_and_extendable():
    short = keystream(KEY, 9, 8)
    long = keystream(KEY, 9, 16)
    assert long[:8] == short


def test_keystream_is_halfsiphash_in_counter_mode():
    """Word ``i`` is HalfSipHash(key, nonce || i), for every length
    residue."""
    nonce = 0x1122334455667788
    for length in range(18):
        words = b"".join(
            HalfSipHash().digest(
                KEY, nonce.to_bytes(8, "little") + i.to_bytes(4, "little")
            ).to_bytes(4, "little")
            for i in range((length + 3) // 4))
        assert keystream(KEY, nonce, length) == words[:length]


def test_keystream_nonzero():
    assert any(keystream(KEY, 3, 32))


def test_nonce_reuse_leaks_xor():
    """Documented stream-cipher property: same (key, nonce) leaks the
    XOR of plaintexts — which is why P4Auth's nonces are sequence-unique."""
    a, b = b"AAAAAAAA", b"BBBBBBBB"
    ca = xor_crypt(KEY, 5, a)
    cb = xor_crypt(KEY, 5, b)
    leaked = bytes(x ^ y for x, y in zip(ca, cb))
    assert leaked == bytes(x ^ y for x, y in zip(a, b))


@given(U64, U64)
def test_crypt_word_involutive(nonce, word):
    assert crypt_word(KEY, nonce, crypt_word(KEY, nonce, word)) == word


def test_crypt_word_respects_width():
    out = crypt_word(KEY, 1, 0xFF, bits=8)
    assert 0 <= out < 256
    with pytest.raises(ValueError):
        crypt_word(KEY, 1, 256, bits=8)


def test_input_validation():
    with pytest.raises(ValueError):
        keystream(1 << 64, 0, 4)
    with pytest.raises(ValueError):
        keystream(0, 1 << 64, 4)
    with pytest.raises(ValueError):
        keystream(0, 0, -1)
