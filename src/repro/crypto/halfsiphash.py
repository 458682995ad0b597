"""HalfSipHash — the keyed hash used for P4Auth digests on BMv2.

The paper (§VII, "Digest computation") selects HalfSipHash as the HMAC
algorithm because prior work showed it is implementable on Tofino with
AND/XOR/rotate/add and performs well for short inputs.  This module
implements HalfSipHash-c-d exactly as specified by Aumasson & Bernstein's
reference (the 32-bit-word variant of SipHash): a 64-bit key, 32-bit state
words, and a 32-bit tag.

Two forms of the SipRound live here.  :meth:`HalfSipHash._sip_round` is
the *specification*: one round written exclusively in terms of the
restricted ALU helpers in :mod:`repro.crypto.ops`, which is what the
data-plane feasibility claim rests on; nothing in ``src/`` executes it, and
``tests/crypto`` assembles a whole digest from it.
:meth:`HalfSipHash.digest_from_state` is what the host *executes*: the same
round inlined as masked integer expressions, because a Python call per
32-bit ALU op (~650 per C-DP digest) was most of this repo's host time.
The differential tests pin the two bit-for-bit for every ``(c, d)``.
Round counts ``c`` and ``d`` are constructor constants — on the switch they
are unrolled across pipeline stages, never looped at packet time.
"""

from __future__ import annotations

from struct import unpack_from
from typing import Iterable, Tuple

from repro.crypto.ops import MASK32, add32, rotl32, xor32

_V2_INIT = 0x6C796765
_V3_INIT = 0x74656462


def pack_words(words: Iterable[int], word_bits: int = 32) -> bytes:
    """Serialize unsigned words little-endian at a byte-multiple width."""
    if word_bits % 8 != 0:
        raise ValueError("word_bits must be a multiple of 8")
    width = word_bits // 8
    buf = bytearray()
    for word in words:
        if not 0 <= word < (1 << word_bits):
            raise ValueError(f"word {word:#x} does not fit in {word_bits} bits")
        buf += int(word).to_bytes(width, "little")
    return bytes(buf)


class HalfSipHash:
    """HalfSipHash-c-d keyed pseudorandom function.

    Parameters
    ----------
    compression_rounds:
        Number of SipRounds per 4-byte message block (``c``; default 2).
    finalization_rounds:
        Number of SipRounds in finalization (``d``; default 4).
    """

    def __init__(self, compression_rounds: int = 2, finalization_rounds: int = 4):
        if compression_rounds < 1 or finalization_rounds < 1:
            raise ValueError("round counts must be positive")
        self.compression_rounds = compression_rounds
        self.finalization_rounds = finalization_rounds

    @staticmethod
    def _sip_round(v0: int, v1: int, v2: int, v3: int) -> Tuple[int, int, int, int]:
        v0 = add32(v0, v1)
        v1 = rotl32(v1, 5)
        v1 = xor32(v1, v0)
        v0 = rotl32(v0, 16)
        v2 = add32(v2, v3)
        v3 = rotl32(v3, 8)
        v3 = xor32(v3, v2)
        v0 = add32(v0, v3)
        v3 = rotl32(v3, 7)
        v3 = xor32(v3, v0)
        v2 = add32(v2, v1)
        v1 = rotl32(v1, 13)
        v1 = xor32(v1, v2)
        v2 = rotl32(v2, 16)
        return v0, v1, v2, v3

    def key_schedule(self, key: int) -> Tuple[int, int, int, int]:
        """Precompute the initial state words ``(v0, v1, v2, v3)`` for a key.

        The schedule depends only on the key, so callers signing or
        verifying many messages under one key (a pipelined batch of C-DP
        requests) can compute it once and reuse it via
        :meth:`digest_from_state` — same tag, fewer per-message XORs.
        """
        if not 0 <= key < (1 << 64):
            raise ValueError("key must be a 64-bit unsigned integer")
        k0 = key & MASK32
        k1 = (key >> 32) & MASK32
        return (k0, k1, xor32(_V2_INIT, k0), xor32(_V3_INIT, k1))

    def digest(self, key: int, message: bytes) -> int:
        """Compute the 32-bit HalfSipHash tag of ``message`` under ``key``.

        ``key`` is a 64-bit integer; its low 32 bits form k0 and high 32
        bits form k1, matching the little-endian reference layout.
        """
        return self.digest_from_state(self.key_schedule(key), message)

    def digest_from_state(self, state: Tuple[int, int, int, int],
                          message: bytes) -> int:
        """Tag ``message`` starting from a precomputed key schedule.

        The body is :meth:`_sip_round` inlined (see the module docstring);
        ``message`` may be any bytes-like object.
        """
        v0, v1, v2, v3 = state
        length = len(message)
        nblocks = length >> 2
        # Final block: remaining bytes plus the length byte in the top lane.
        last = (int.from_bytes(message[nblocks << 2:], "little")
                | (length & 0xFF) << 24)
        rounds = range(self.compression_rounds)
        # ``None`` stands for finalization: no message word, ``d`` rounds.
        for block in (*unpack_from("<%dI" % nblocks, message), last, None):
            if block is None:
                block, rounds = 0, range(self.finalization_rounds)
                v2 ^= 0xFF
            v3 ^= block
            for _ in rounds:
                v0 = (v0 + v1) & MASK32
                v1 = (v1 << 5 & MASK32 | v1 >> 27) ^ v0
                v2 = (v2 + v3) & MASK32
                v3 = (v3 << 8 & MASK32 | v3 >> 24) ^ v2
                v0 = ((v0 << 16 & MASK32 | v0 >> 16) + v3) & MASK32
                v3 = (v3 << 7 & MASK32 | v3 >> 25) ^ v0
                v2 = (v2 + v1) & MASK32
                v1 = (v1 << 13 & MASK32 | v1 >> 19) ^ v2
                v2 = v2 << 16 & MASK32 | v2 >> 16
            v0 ^= block
        return v1 ^ v3

    def digest_words(self, key: int, words: Iterable[int], word_bits: int = 32) -> int:
        """Digest an iterable of fixed-width unsigned words.

        Convenience for data-plane callers, which hash header fields (PHV
        containers) rather than byte strings.  Each word is serialized
        little-endian at its declared width.
        """
        return self.digest(key, pack_words(words, word_bits))


_DEFAULT = HalfSipHash()


def halfsiphash(key: int, message: bytes) -> int:
    """HalfSipHash-2-4 of ``message`` under 64-bit ``key`` (32-bit tag)."""
    return _DEFAULT.digest(key, message)
