"""Data-plane-feasible cryptographic primitives used by P4Auth.

Every primitive in this package is implementable on a PISA-style
programmable switch: the only operations used are AND, OR, XOR, rotate,
shift, and 32-bit addition (see :mod:`repro.crypto.ops`).  There are no
loops over secret data at "packet time" — round counts are compile-time
constants, mirroring how the P4 prototype unrolls them across pipeline
stages.

Exports:

- :func:`halfsiphash` / :class:`HalfSipHash` — keyed short-input PRF used
  as the HMAC algorithm on the BMv2 target (paper §VII), and the one
  P4Auth digest here.
- :func:`crc32` — the PRF inside the KDF.
- :func:`dh_public`, :func:`dh_shared` — the modified Diffie-Hellman
  (DH' / DH'') that replaces exponentiation with AND and XOR (paper Fig 10).
- :func:`kdf` — TLS1.3-style Extract-and-Expand key derivation (Fig 13).
- :class:`XorShiftPrng` — deterministic PRNG modeling P4's ``random()``.
"""

from repro.crypto.crc import crc32, Crc32
from repro.crypto.halfsiphash import HalfSipHash, halfsiphash
from repro.crypto.kdf import Kdf, kdf
from repro.crypto.modified_dh import dh_public, dh_shared, DhParameters
from repro.crypto.prng import XorShiftPrng

__all__ = [
    "crc32",
    "Crc32",
    "HalfSipHash",
    "halfsiphash",
    "Kdf",
    "kdf",
    "dh_public",
    "dh_shared",
    "DhParameters",
    "XorShiftPrng",
]
