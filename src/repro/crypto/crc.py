"""CRC32 — the hash/PRF available as a native primitive on Tofino.

The paper uses CRC32 in two places: as the digest algorithm on the Tofino
target (§VII) and as the PRF inside the KDF ("We implement our KDF with
CRC32 as PRF and set the rounds to one").  Tofino exposes CRC through its
hash distribution units, so using it costs hash units, not ALU stages —
which is why Table II shows hash-unit utilization jumping from 1.4% to
51.4% with P4Auth.  This reproduction signs with HalfSipHash only (the
BMv2 flavour); CRC32 serves as the KDF's PRF, the journal and snapshot
framing checksum, and RouteScout's bucket hash.

This is the standard reflected CRC-32 (polynomial 0xEDB88320), bit-exact
with ``zlib.crc32`` / IEEE 802.3.  Two forms live here, as in
:mod:`repro.crypto.halfsiphash`: :meth:`Crc32._walk` is the
*specification*, table-driven the way a switch's hash unit realizes it in
fixed hardware; :meth:`Crc32.compute` *executes* ``zlib.crc32``.
``tests/crypto/test_crc.py`` pins walk == zlib == compute.
"""

from __future__ import annotations

import zlib

_POLY_REFLECTED = 0xEDB88320
_ALL_ONES = 0xFFFFFFFF


def _build_table(poly: int) -> tuple:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


_TABLE = _build_table(_POLY_REFLECTED)


class Crc32:
    """The IEEE CRC-32 engine (zlib's): all-ones init and output XOR."""

    def compute(self, data: bytes) -> int:
        """CRC of ``data`` as a 32-bit unsigned integer."""
        return zlib.crc32(data)

    def _walk(self, data: bytes) -> int:
        """The table walk: one lookup per byte."""
        crc = _ALL_ONES
        for byte in data:
            crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
        return crc ^ _ALL_ONES

    def compute_keyed(self, key: int, data: bytes) -> int:
        """Keyed CRC, the paper's Tofino digest (P4Auth here signs with
        HalfSipHash; this form is the reference for ``crc32_many_keyed``).

        CRC itself is unkeyed; the prototype prepends the 64-bit secret key
        to the hashed material, which is how the P4 program feeds the key
        into the hash unit's input crossbar.
        """
        if not 0 <= key < (1 << 64):
            raise ValueError("key must be a 64-bit unsigned integer")
        return self.compute(key.to_bytes(8, "little") + data)


_DEFAULT = Crc32()


def crc32(data: bytes) -> int:
    """IEEE CRC-32 of ``data`` (matches ``zlib.crc32``)."""
    return _DEFAULT.compute(data)
