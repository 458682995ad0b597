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
fixed hardware, and what a custom polynomial runs; with the IEEE
parameters :meth:`Crc32.compute` *executes* ``zlib.crc32``.
``tests/crypto/test_crc.py`` pins walk == zlib == compute.
"""

from __future__ import annotations

import zlib

_POLY_REFLECTED = 0xEDB88320
_IEEE = (_POLY_REFLECTED, 0xFFFFFFFF, 0xFFFFFFFF)


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


class Crc32:
    """Parameterizable reflected CRC-32 engine.

    The default parameters match IEEE CRC-32 (zlib).  Switch targets let
    programs pick custom polynomials; the parameter exists so tests can
    exercise that path.
    """

    def __init__(self, polynomial: int = _POLY_REFLECTED, init: int = 0xFFFFFFFF,
                 xor_out: int = 0xFFFFFFFF):
        self.polynomial = polynomial
        self.init = init
        self.xor_out = xor_out
        self._table = _build_table(polynomial)
        self._ieee = (polynomial, init, xor_out) == _IEEE

    def compute(self, data: bytes) -> int:
        """CRC of ``data`` as a 32-bit unsigned integer."""
        if self._ieee:
            return zlib.crc32(data)
        return self._walk(data)

    def _walk(self, data: bytes) -> int:
        """The table walk: one lookup per byte, any parameters."""
        crc = self.init
        for byte in data:
            crc = (crc >> 8) ^ self._table[(crc ^ byte) & 0xFF]
        return crc ^ self.xor_out

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
