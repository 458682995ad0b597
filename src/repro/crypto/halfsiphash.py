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
:meth:`HalfSipHash._rounds` is what the host *executes*: the same round
inlined as integer expressions, because a Python call per 32-bit ALU op
(~650 per C-DP digest) was most of this repo's host time.  It rests on two
exact identities: high bits above 31 are harmless until a right shift, so
a word is masked only before a rotate (lazy masks); and a masked ``x``
times ``0x1_0000_0001`` holds ``x`` twice, so one shift of it is a rotate
(doubled word).
The differential tests pin the two bit-for-bit for every ``(c, d)``.
Round counts ``c`` and ``d`` are constructor constants — on the switch they
are unrolled across pipeline stages, never looped at packet time.

**Midstate.**  Eqn 4 material opens with the ``hdrType`` and ``msgType``
words, 8 bytes each, so its first :data:`PREFIX` bytes (four blocks, 8 of
a 64-byte message's 38 SipRounds) take few values per key.  :meth:`digest`
caches the state after them, keyed by the key and every prefix byte, and
runs only the rest.  The cache holds a pure function of (key, prefix),
never a tag: a verifier still recomputes Eqn 4 over every byte, and a
flipped prefix bit is another entry.  It clears at
:attr:`HalfSipHash.KEY_CACHE_MAX`; shorter messages start from the key.
"""

from __future__ import annotations

from struct import unpack_from
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.crypto.ops import MASK32, add32, rotl32, xor32

_V2_INIT = 0x6C796765
_V3_INIT = 0x74656462
_DOUBLE = 0x1_0000_0001

#: Bytes in a cached midstate: Eqn 4's ``hdrType`` and ``msgType``.
PREFIX = 16

State = Tuple[int, int, int, int]


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

    #: Midstate cache bound: a guard against key churn, cleared at the cap.
    KEY_CACHE_MAX = 1024

    def __init__(self, compression_rounds: int = 2, finalization_rounds: int = 4):
        if compression_rounds < 1 or finalization_rounds < 1:
            raise ValueError("round counts must be positive")
        self.compression_rounds = compression_rounds
        self.finalization_rounds = finalization_rounds
        self._midstates: Dict[Tuple[int, bytes], State] = {}
        self.hits = self.misses = 0

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

    def key_schedule(self, key: int) -> State:
        """The initial state words ``(v0, v1, v2, v3)`` for a key."""
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
        if len(message) < PREFIX:
            return self.digest_from_state(self.key_schedule(key), message)
        return self.digest_from_state(self.midstate(key, message), message,
                                      PREFIX)

    def midstate(self, key: int, message: bytes) -> State:
        """The cached state after ``message[:PREFIX]`` under ``key``
        (``ValueError`` for a message shorter than :data:`PREFIX`)."""
        entry = (key, bytes(message[:PREFIX]))
        state = self._midstates.get(entry)
        if state is None:
            if len(entry[1]) < PREFIX:
                raise ValueError(f"a midstate needs {PREFIX} message bytes")
            self.misses += 1
            if len(self._midstates) >= self.KEY_CACHE_MAX:
                self._midstates.clear()
            state = self._midstates[entry] = self._rounds(
                self.key_schedule(key), unpack_from("<4I", entry[1]))
        else:
            self.hits += 1
        return state

    def digest_from_state(self, state: State, message: bytes,
                          start: int = 0) -> int:
        """Tag ``message`` (any bytes-like) from ``state``, which has
        absorbed its first ``start`` bytes: the key schedule at 0, a
        :meth:`midstate` at :data:`PREFIX`."""
        length = len(message)
        nblocks = length >> 2
        # Final block: remaining bytes plus the length byte in the top lane.
        last = (int.from_bytes(message[nblocks << 2:], "little")
                | (length & 0xFF) << 24)
        _v0, v1, _v2, v3 = self._rounds(state, (
            *unpack_from("<%dI" % (nblocks - (start >> 2)), message, start),
            last, None))
        return v1 ^ v3

    def _rounds(self, state: State, blocks: Sequence[Optional[int]]) -> State:
        """Absorb ``blocks`` into ``state``: :meth:`_sip_round` inlined, the
        one round body every path runs.  ``None`` stands for finalization:
        no message word, ``d`` rounds.

        Adds and xors run unmasked: bits above 31 reach bits 0-31 only
        through a right shift, so a word is masked right before it is
        rotated and all four once at return.  ``v1`` and ``v3`` keep that
        mask, taken just before the add that reads them, so no word's high
        bits flow back into itself.  A rotate is ``x * _DOUBLE >> 32 - r``
        on a masked ``x``: ``x * _DOUBLE`` is ``x`` twice side by side, its
        low 32 bits after the shift are ``rotl32(x, r)``, and the next mask
        drops the rest.  So a round is 26 int operations, and nothing grows
        across rounds: every product is below 2**64, every word below 2**52
        (50 bits measured, 4 KiB messages included), given a ``state`` of
        four words below 2**32, which every state returned here is."""
        v0, v1, v2, v3 = state
        rounds = range(self.compression_rounds)
        for block in blocks:
            if block is None:
                block, rounds = 0, range(self.finalization_rounds)
                v2 ^= 0xFF
            v3 ^= block
            for _ in rounds:
                v1 &= MASK32
                v0 += v1
                v1 = (v1 * _DOUBLE >> 27) ^ v0
                v3 &= MASK32
                v2 += v3
                v3 = (v3 * _DOUBLE >> 24) ^ v2
                v0 = ((v0 & MASK32) * _DOUBLE >> 16) + v3
                v3 = ((v3 & MASK32) * _DOUBLE >> 25) ^ v0
                v2 += v1
                v1 = ((v1 & MASK32) * _DOUBLE >> 19) ^ v2
                v2 = (v2 & MASK32) * _DOUBLE >> 16
            v0 ^= block
        return v0 & MASK32, v1 & MASK32, v2 & MASK32, v3 & MASK32

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
