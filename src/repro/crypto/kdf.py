"""Key derivation function (paper §VI-D, Fig 13).

P4Auth's KDF follows TLS 1.3's HKDF *Extract-and-Expand* principle with a
32-bit PRF.  It takes a 64-bit input secret (``K_in``, either the
pre-shared seed or a DH pre-master secret) and a 64-bit public salt, and
produces a 64-bit key (``K_auth``, ``K_local`` or ``K_port``).  Because the
PRF emits 32 bits, the expand phase runs the PRF twice and concatenates
(the paper: "the KDF executes the PRF twice to produce the final 64-bit
secret").

As in the paper's prototype ("We implement our KDF with CRC32 as PRF and
set the rounds to one", §VII), the PRF is IEEE CRC-32 and the
extract-and-expand cycle runs once.
"""

from __future__ import annotations

from zlib import crc32

from repro.crypto.ops import MASK64, concat32


class Kdf:
    """Extract-and-Expand key derivation, CRC-32 as the PRF, one round.

    Extract: ``PRK = PRF(salt || K_in)`` condenses the input keying
    material into a pseudorandom key.  Expand: ``T(i) = PRF(PRK || T(i-1)
    || i)`` for i = 1, 2; the output key is ``T(1) || T(2)`` (64 bits).
    """

    def derive(self, key_in: int, salt: int) -> int:
        """Derive a 64-bit key from a 64-bit secret and a 64-bit salt."""
        if not 0 <= key_in <= MASK64:
            raise ValueError("key_in must be a 64-bit unsigned integer")
        if not 0 <= salt <= MASK64:
            raise ValueError("salt must be a 64-bit unsigned integer")
        prk = crc32(salt.to_bytes(8, "little") + key_in.to_bytes(8, "little"))
        t1 = crc32(prk.to_bytes(4, "little") + b"\x01")
        t2 = crc32(prk.to_bytes(4, "little") + t1.to_bytes(4, "little") + b"\x02")
        return concat32(t1, t2)


_DEFAULT = Kdf()


def kdf(key_in: int, salt: int) -> int:
    """Derive a 64-bit key using the prototype KDF (CRC32 PRF, one round)."""
    return _DEFAULT.derive(key_in, salt)
