"""Data-plane-feasible cryptographic primitives used by P4Auth.

Every primitive in this package is implementable on a PISA-style
programmable switch: the only operations used are AND, OR, XOR, rotate,
shift, and 32-bit addition (see :mod:`repro.crypto.ops`).  There are no
loops over secret data at "packet time" — round counts are compile-time
constants, mirroring how the P4 prototype unrolls them across pipeline
stages.

Modules:

- :mod:`repro.crypto.halfsiphash` — keyed short-input PRF used as the
  HMAC algorithm on the BMv2 target (paper §VII), and the one P4Auth
  digest here.
- :mod:`repro.crypto.crc` — CRC-32, the PRF inside the KDF.
- :mod:`repro.crypto.modified_dh` — the modified Diffie-Hellman
  (DH' / DH'') that replaces exponentiation with AND and XOR (paper Fig 10).
- :mod:`repro.crypto.kdf` — TLS1.3-style Extract-and-Expand key
  derivation (Fig 13).
- :mod:`repro.crypto.prng` — deterministic PRNG modeling P4's
  ``random()``.
"""
