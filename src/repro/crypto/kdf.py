"""Key derivation function (paper §VI-D, Fig 13).

P4Auth's KDF follows TLS 1.3's HKDF *Extract-and-Expand* principle with a
pluggable 32-bit PRF.  It takes a 64-bit input secret (``K_in``, either the
pre-shared seed or a DH pre-master secret) and a 64-bit public salt, and
produces a 64-bit key (``K_auth``, ``K_local`` or ``K_port``).  Because the
PRF emits 32 bits, the expand phase runs the PRF twice and concatenates
(the paper: "the KDF executes the PRF twice to produce the final 64-bit
secret").

The prototype uses CRC32 as the PRF with rounds set to one; the PRF is a
constructor parameter so stronger functions (e.g., HalfSipHash) can be
plugged in, matching the paper's "pluggable primitives" discussion (§XI).
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.crc import Crc32
from repro.crypto.ops import MASK64, concat32

# A PRF maps arbitrary bytes to a 32-bit unsigned integer.
Prf = Callable[[bytes], int]

_crc_engine = Crc32()


def crc32_prf(data: bytes) -> int:
    """The prototype PRF: one round of CRC32 (paper §VII)."""
    return _crc_engine.compute(data)


class Kdf:
    """Extract-and-Expand key derivation with a pluggable 32-bit PRF.

    Extract: ``PRK = PRF(salt || K_in)`` condenses the input keying
    material into a pseudorandom key.  Expand: ``T(i) = PRF(PRK || T(i-1)
    || i)`` for i = 1, 2; the output key is ``T(1) || T(2)`` (64 bits).

    ``rounds`` repeats the whole extract-expand cycle, feeding each round's
    output back as ``K_in``; the prototype sets rounds to one.
    """

    def __init__(self, prf: Prf = crc32_prf, rounds: int = 1):
        if rounds < 1:
            raise ValueError("rounds must be at least 1")
        self.prf = prf
        self.rounds = rounds

    def derive(self, key_in: int, salt: int) -> int:
        """Derive a 64-bit key from a 64-bit secret and a 64-bit salt."""
        if not 0 <= key_in <= MASK64:
            raise ValueError("key_in must be a 64-bit unsigned integer")
        if not 0 <= salt <= MASK64:
            raise ValueError("salt must be a 64-bit unsigned integer")
        key = key_in
        for _ in range(self.rounds):
            prk = self.prf(salt.to_bytes(8, "little") + key.to_bytes(8, "little"))
            t1 = self.prf(prk.to_bytes(4, "little") + b"\x01")
            t2 = self.prf(prk.to_bytes(4, "little") + t1.to_bytes(4, "little") + b"\x02")
            key = concat32(t1, t2)
        return key


_DEFAULT = Kdf()


def kdf(key_in: int, salt: int) -> int:
    """Derive a 64-bit key using the prototype KDF (CRC32 PRF, one round)."""
    return _DEFAULT.derive(key_in, salt)
