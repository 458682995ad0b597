"""Vectorized digest lanes: many messages per call, bit-identical tags.

PR 5 made batched issue ~800x sequential, which moved the bottleneck to
host-CPU crypto: the controller signs and verifies every C-DP message
with a scalar Python HalfSipHash (BMv2 flavor) or CRC32 (Tofino flavor).
This module provides *lane* implementations that tag thousands of
messages per call:

- :func:`digest_many` / :func:`digest_many_from_state` — HalfSipHash-c-d
  over a batch of messages under one key, reusing the PR 5
  ``key_schedule`` / ``digest_from_state`` split;
- :func:`crc32_many` / :func:`crc32_many_keyed` — table-driven reflected
  CRC-32 over a batch (keyed form prepends the 64-bit key exactly like
  :meth:`repro.crypto.crc.Crc32.compute_keyed`).

The lanes are numpy, and this module is the package's only numpy
importer: it is imported where the vector lane is entered
(``DigestEngine.compute_many``, the ``digest_vector`` experiment), so a
process that never signs a vector batch never loads numpy.  The 32-bit
SipRound ALU ops and the CRC table step run across all message lanes at
once as ``uint32`` array arithmetic.  Messages are grouped by byte
length so every lane in a group walks the same block schedule — C-DP
signing is the best case (every register-op request has identical
material length).

Bit-identity with the scalar
:class:`~repro.crypto.halfsiphash.HalfSipHash` /
:class:`~repro.crypto.crc.Crc32` classes is load-bearing: P4Auth's
integrity guarantee (Eqn. 4) holds only if controller and switch agree
on every tag bit, so the differential battery in
``tests/crypto/test_vector_differential.py`` pins the lanes against the
scalar classes and against independent references.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.crc import Crc32
from repro.crypto.halfsiphash import HalfSipHash

# Default CRC engine: IEEE reflected CRC-32, the Tofino hash-unit flavor.
_CRC_DEFAULT = Crc32()


def _by_length(messages: Sequence[bytes]
               ) -> Iterator[Tuple[int, List[int], np.ndarray]]:
    """``(length, positions, lanes)`` per distinct message length.

    ``positions`` are the indices of the messages that long and
    ``lanes`` their bytes as an ``(n, length)`` uint8 array, so every
    lane in a group walks one block schedule.  C-DP material is
    fixed-width: signing a burst lands in a single group.
    """
    groups: dict = {}
    for position, message in enumerate(messages):
        groups.setdefault(len(message), []).append(position)
    for length, positions in groups.items():
        n = len(positions)
        if length:
            lanes = np.frombuffer(b"".join(messages[p] for p in positions),
                                  dtype=np.uint8).reshape(n, length)
        else:
            lanes = np.zeros((n, 0), dtype=np.uint8)
        yield length, positions, lanes


# ---------------------------------------------------------------------------
# HalfSipHash-c-d lanes
# ---------------------------------------------------------------------------


def digest_many(key: int, messages: Sequence[bytes],
                compression_rounds: int = 2,
                finalization_rounds: int = 4) -> List[int]:
    """HalfSipHash tags for every message under one 64-bit ``key``.

    Bit-identical to ``[HalfSipHash(c, d).digest(key, m) for m in
    messages]``, computed lane-parallel.
    """
    hasher = HalfSipHash(compression_rounds, finalization_rounds)
    return digest_many_from_state(hasher.key_schedule(key), messages,
                                  compression_rounds, finalization_rounds)


def digest_many_from_state(state: Tuple[int, int, int, int],
                           messages: Sequence[bytes],
                           compression_rounds: int = 2,
                           finalization_rounds: int = 4) -> List[int]:
    """Tag a batch starting from a precomputed key schedule."""
    out: List[int] = [0] * len(messages)
    for _length, positions, lanes in _by_length(messages):
        tags = _digest_group_numpy(state, lanes, compression_rounds,
                                   finalization_rounds)
        for lane, position in enumerate(positions):
            out[position] = int(tags[lane])
    return out


def _sip_rounds_numpy(v0, v1, v2, v3, rounds: int):
    """SipRound over uint32 lane arrays; wrap-around is the dtype's."""
    for _ in range(rounds):
        v0 = v0 + v1
        v1 = (v1 << np.uint32(5)) | (v1 >> np.uint32(27))
        v1 = v1 ^ v0
        v0 = (v0 << np.uint32(16)) | (v0 >> np.uint32(16))
        v2 = v2 + v3
        v3 = (v3 << np.uint32(8)) | (v3 >> np.uint32(24))
        v3 = v3 ^ v2
        v0 = v0 + v3
        v3 = (v3 << np.uint32(7)) | (v3 >> np.uint32(25))
        v3 = v3 ^ v0
        v2 = v2 + v1
        v1 = (v1 << np.uint32(13)) | (v1 >> np.uint32(19))
        v1 = v1 ^ v2
        v2 = (v2 << np.uint32(16)) | (v2 >> np.uint32(16))
    return v0, v1, v2, v3


def _digest_group_numpy(state: Tuple[int, int, int, int], lanes,
                        c: int, d: int):
    n, length = lanes.shape
    full = length - (length % 4)
    v0 = np.full(n, state[0], dtype=np.uint32)
    v1 = np.full(n, state[1], dtype=np.uint32)
    v2 = np.full(n, state[2], dtype=np.uint32)
    v3 = np.full(n, state[3], dtype=np.uint32)

    if full:
        blocks = np.ascontiguousarray(lanes[:, :full]).view("<u4")
        for column in range(full // 4):
            block = blocks[:, column]
            v3 = v3 ^ block
            v0, v1, v2, v3 = _sip_rounds_numpy(v0, v1, v2, v3, c)
            v0 = v0 ^ block

    # Final block: tail bytes little-endian plus the length byte on top.
    last = np.full(n, (length & 0xFF) << 24, dtype=np.uint32)
    for shift, column in enumerate(range(full, length)):
        last = last | (lanes[:, column].astype(np.uint32)
                       << np.uint32(8 * shift))
    v3 = v3 ^ last
    v0, v1, v2, v3 = _sip_rounds_numpy(v0, v1, v2, v3, c)
    v0 = v0 ^ last
    v2 = v2 ^ np.uint32(0xFF)
    v0, v1, v2, v3 = _sip_rounds_numpy(v0, v1, v2, v3, d)
    return v1 ^ v3


# ---------------------------------------------------------------------------
# CRC-32 lanes
# ---------------------------------------------------------------------------


def crc32_many(datas: Sequence[bytes],
               engine: Optional[Crc32] = None) -> List[int]:
    """Unkeyed CRC-32 of every message (matches ``Crc32.compute``)."""
    engine = engine or _CRC_DEFAULT
    return _crc32_many(datas, engine, engine.init)


def crc32_many_keyed(key: int, datas: Sequence[bytes],
                     engine: Optional[Crc32] = None) -> List[int]:
    """Keyed CRC-32 of every message (matches ``Crc32.compute_keyed``).

    The 8-byte little-endian key prefix is identical across lanes, so
    its CRC state is advanced once scalar and used as the lanes' shared
    initial state — the per-message work is data bytes only.
    """
    engine = engine or _CRC_DEFAULT
    if not 0 <= key < (1 << 64):
        raise ValueError("key must be a 64-bit unsigned integer")
    table = engine._table
    state = engine.init
    for byte in key.to_bytes(8, "little"):
        state = (state >> 8) ^ table[(state ^ byte) & 0xFF]
    return _crc32_many(datas, engine, state)


def _crc32_many(datas: Sequence[bytes], engine: Crc32,
                init_state: int) -> List[int]:
    table = np.asarray(engine._table, dtype=np.uint32)
    xor_out = np.uint32(engine.xor_out)
    out: List[int] = [0] * len(datas)
    for length, positions, lanes in _by_length(datas):
        crc = np.full(len(positions), init_state, dtype=np.uint32)
        for column in range(length):
            crc = (crc >> np.uint32(8)) ^ table[(crc ^ lanes[:, column])
                                                & np.uint32(0xFF)]
        crc = crc ^ xor_out
        for lane, position in enumerate(positions):
            out[position] = int(crc[lane])
    return out


__all__ = [
    "crc32_many",
    "crc32_many_keyed",
    "digest_many",
    "digest_many_from_state",
]
