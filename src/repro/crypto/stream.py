"""Data-plane-feasible stream cipher (the §XI encryption extension).

The paper's discussion (§XI) notes P4Auth "can be extended to support
symmetric key encryption and decryption of C-DP and DP-DP communication
by deriving more symmetric keys from the master secret using KDF".  This
module provides the cipher half: HalfSipHash in counter mode.  Each
32-bit keystream word is ``HalfSipHash(k_enc, nonce || counter)``; the
plaintext is XORed with the keystream — only hash-unit and XOR
operations, so the construction fits the same switch constraints as the
digest path.

Nonce discipline is the caller's job (P4Auth's register-op values use
the message sequence number plus a request/response bit, unique per key
epoch); reusing a
(key, nonce) pair leaks the XOR of the two plaintexts, like any stream
cipher.
"""

from __future__ import annotations

from repro.crypto.halfsiphash import HalfSipHash
from repro.crypto.ops import MASK64

_engine = HalfSipHash()


def keystream(key: int, nonce: int, length: int) -> bytes:
    """``length`` bytes of keystream for (key, nonce)."""
    if not 0 <= nonce <= MASK64:
        raise ValueError("nonce must be a 64-bit unsigned integer")
    if length < 0:
        raise ValueError("length must be non-negative")
    state = _engine.key_schedule(key)
    prefix = nonce.to_bytes(8, "little")
    out = bytearray()
    for counter in range((length + 3) // 4):
        word = _engine.digest_from_state(
            state, prefix + counter.to_bytes(4, "little"))
        out += word.to_bytes(4, "little")
    return bytes(out[:length])


def xor_crypt(key: int, nonce: int, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` (XOR with the keystream; involutive)."""
    stream = keystream(key, nonce, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


def crypt_word(key: int, nonce: int, word: int, bits: int = 64) -> int:
    """Encrypt/decrypt a fixed-width register value (involutive)."""
    if not 0 <= word < (1 << bits):
        raise ValueError(f"word does not fit in {bits} bits")
    width = (bits + 7) // 8
    out = xor_crypt(key, nonce, word.to_bytes(width, "little"))
    return int.from_bytes(out, "little") & ((1 << bits) - 1)
