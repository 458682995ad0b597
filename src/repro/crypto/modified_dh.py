"""Modified Diffie-Hellman exchange (DH' / DH'') from the paper's Fig 10.

The standard DH exchange needs modular exponentiation, which PISA switches
cannot express.  The modified algorithm (due to Jeon & Gil, adopted by
DH-AES-P4 and by P4Auth) replaces exponentiation with AND and XOR:

- ``DH'``  — public key generation:  ``PK = (G AND R) XOR (P AND R)``
- ``DH''`` — shared secret derivation: ``K = (PK_other AND R) XOR P``

Correctness: because AND distributes over XOR,

    DH''(P, R1, DH'(P, G, R2)) = (G AND R1 AND R2) XOR (P AND R1 AND R2) XOR P
                               = DH''(P, R2, DH'(P, G, R1))

so both endpoints derive the same pre-master secret without ever sending
their private randoms.  The paper (§XI) notes XOR-based constructions are
only safe when private keys are random and never reused; P4Auth therefore
pipes the pre-master secret through the KDF and rolls keys periodically.
"""

from __future__ import annotations

from repro.crypto.ops import MASK64, and64, xor64

# The group parameters.  On the switch these are compile-time constants
# baked into the P4 binary; any odd-ish 64-bit constants work because the
# algebra is bitwise.  These values are arbitrary published nothing-up-my-
# sleeve digits (from pi and e).
PRIME = 0x243F6A8885A308D3
GENERATOR = 0xB7E151628AED2A6A


class DhParameters:
    """Group parameters (P, G) shared by both endpoints at compile time."""

    prime = PRIME
    generator = GENERATOR


def dh_public(params: DhParameters, private_random: int) -> int:
    """DH': derive the public key to transmit from a private random R."""
    if not 0 <= private_random <= MASK64:
        raise ValueError("private_random must be a 64-bit unsigned integer")
    return xor64(and64(params.generator, private_random),
                 and64(params.prime, private_random))


def dh_shared(params: DhParameters, private_random: int, peer_public: int) -> int:
    """DH'': derive the shared pre-master secret from the peer's public key."""
    if not 0 <= private_random <= MASK64:
        raise ValueError("private_random must be a 64-bit unsigned integer")
    if not 0 <= peer_public <= MASK64:
        raise ValueError("peer_public must be a 64-bit unsigned integer")
    return xor64(and64(peer_public, private_random), params.prime)
