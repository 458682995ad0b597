"""Digest lanes in plain integers: many messages per call, bit-identical tags.

HalfSipHash is add / xor / rotate on 32-bit words, and CPython's ``int``
does all three on any number of words at once.  Word *i* of every message
of a batch sits at a 64-bit stride inside **one** ``int`` (32 value bits
under 32 guard bits), and the scalar kernel's nine statements advance
every lane together under one mask ``M`` (``0xFFFFFFFF`` in every lane):

- an add's carry lands in the lane's own guard bit 32;
- a rotate is ``(v << r | v >> 32 - r) & M``: the left shift overflows
  into the lane's own guard bits, the right shift drops the low bits
  into the guard bits of the lane below, and ``M`` clears both.

Messages are grouped by byte length so every lane of a group walks one
block schedule; C-DP material is fixed-width, so a burst is one group.
The lane pays from two messages (DESIGN.md, "Vectorized digest lane").
Eqn 4 holds only if controller and switch agree on every tag bit:
``tests/crypto/test_vector_differential.py`` pins the lanes against the
scalar class, independent references and saturated words.

CRC-32 has no lane: a table gather has no integer-lane form, and
``zlib.crc32`` behind :meth:`Crc32.compute` beats one anyway.
"""

from __future__ import annotations

from functools import lru_cache
from struct import Struct, unpack_from
from typing import Dict, List, Optional, Sequence

from repro.crypto.crc import Crc32
from repro.crypto.halfsiphash import PREFIX, HalfSipHash, State

_CRC = Crc32()

#: One long-lived hasher per ``(c, d)``, so its midstates outlive a call.
_hasher = lru_cache(maxsize=None)(HalfSipHash)


def digest_many(key: int, messages: Sequence[bytes],
                hasher: Optional[HalfSipHash] = None) -> List[int]:
    """HalfSipHash tags for every message under one 64-bit ``key``.

    Bit-identical to ``[hasher.digest(key, m) for m in messages]``
    (default: a shared HalfSipHash-2-4), computed lane-parallel from
    ``hasher``'s cached midstates.
    """
    hasher = hasher or _hasher(2, 4)
    states = [hasher.midstate(key, m) if len(m) >= PREFIX
              else hasher.key_schedule(key) for m in messages]
    return digest_many_from_state(states, messages, hasher.compression_rounds,
                                  hasher.finalization_rounds, PREFIX)


def digest_many_from_state(states: Sequence[State],
                           messages: Sequence[bytes],
                           compression_rounds: int = 2,
                           finalization_rounds: int = 4,
                           start: int = 0) -> List[int]:
    """Tag ``messages[i]`` from ``states[i]``, which has absorbed its first
    ``start`` bytes (a multiple of 4) wherever it is that long: the key
    schedule at 0, a :meth:`~HalfSipHash.midstate` at :data:`PREFIX`.

    One state per lane: four packed state columns cost the same whether
    the lanes share a key or not.
    """
    if len(states) != len(messages):
        raise ValueError("one state per message")
    hasher = _hasher(compression_rounds, finalization_rounds)
    groups: Dict[int, List[int]] = {}
    for position, message in enumerate(messages):
        groups.setdefault(len(message), []).append(position)
    out: List[int] = [0] * len(messages)
    for length, positions in groups.items():
        tags = _digest_lanes(hasher, [states[p] for p in positions],
                             [messages[p] for p in positions],
                             start if length >= start else 0)
        for position, tag in zip(positions, tags):
            out[position] = tag
    return out


def _digest_lanes(hasher: HalfSipHash, states: Sequence[State],
                  messages: Sequence[bytes], start: int) -> Sequence[int]:
    """``hasher.digest_from_state(state, message, start)`` over
    equal-length messages, every lane in one ``int`` (layout in the
    module docstring)."""
    n = len(messages)
    if n == 1:  # one lane is the scalar kernel with packing on top
        return [hasher.digest_from_state(states[0], messages[0], start)]
    lanes = Struct("<%dQ" % n)

    def packed(column) -> int:
        return int.from_bytes(lanes.pack(*column), "little")

    one = packed([1] * n)  # the unit every per-lane constant scales
    mask = one * 0xFFFFFFFF
    v0, v1, v2, v3 = map(packed, zip(*states))
    length = len(messages[0])
    nblocks = length >> 2
    blocks = "<%dI" % (nblocks - (start >> 2))
    # Final block: remaining bytes plus the length byte in the top lane.
    tail, top = nblocks << 2, (length & 0xFF) << 24
    last = packed([int.from_bytes(m[tail:], "little") | top
                   for m in messages])
    rounds = range(hasher.compression_rounds)
    # ``None`` stands for finalization: no message word, ``d`` rounds.
    for block in (*map(packed, zip(*[unpack_from(blocks, m, start)
                                     for m in messages])), last, None):
        if block is None:
            block, rounds = 0, range(hasher.finalization_rounds)
            v2 ^= one * 0xFF
        v3 ^= block
        for _ in rounds:
            v0 = (v0 + v1) & mask
            v1 = ((v1 << 5 | v1 >> 27) & mask) ^ v0
            v2 = (v2 + v3) & mask
            v3 = ((v3 << 8 | v3 >> 24) & mask) ^ v2
            v0 = (((v0 << 16 | v0 >> 16) & mask) + v3) & mask
            v3 = ((v3 << 7 | v3 >> 25) & mask) ^ v0
            v2 = (v2 + v1) & mask
            v1 = ((v1 << 13 | v1 >> 19) & mask) ^ v2
            v2 = (v2 << 16 | v2 >> 16) & mask
        v0 ^= block
    return lanes.unpack((v1 ^ v3).to_bytes(8 * n, "little"))


def crc32_many(datas: Sequence[bytes]) -> List[int]:
    """Unkeyed CRC-32 of every message (``Crc32.compute`` each)."""
    compute = _CRC.compute
    return [compute(data) for data in datas]


def crc32_many_keyed(key: int, datas: Sequence[bytes]) -> List[int]:
    """Keyed CRC-32 of every message (``Crc32.compute_keyed`` each)."""
    compute_keyed = _CRC.compute_keyed
    return [compute_keyed(key, data) for data in datas]


__all__ = [
    "crc32_many",
    "crc32_many_keyed",
    "digest_many",
    "digest_many_from_state",
]
