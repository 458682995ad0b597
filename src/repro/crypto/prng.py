"""Deterministic PRNG modeling the P4 ``random()`` extern.

P4Auth generates private DH randoms and salts with the target's ``random()``
primitive (paper §VII).  The paper itself cautions (§XI) that switch PRNGs
are not guaranteed cryptographically strong, which is exactly why the KDF
post-processes every derived secret.  We model the switch PRNG with a
seedable xorshift64* generator: deterministic (so simulations and tests are
reproducible) and of the same "fast but not cryptographic" character as the
hardware unit.
"""

from __future__ import annotations

from repro.crypto.ops import MASK64


class XorShiftPrng:
    """xorshift64* pseudo-random generator with an explicit seed."""

    _MULT = 0x2545F4914F6CDD1D

    def __init__(self, seed: int = 0x9E3779B97F4A7C15):
        if seed == 0:
            # xorshift has an all-zero fixed point; remap like hardware
            # seeding logic would.
            seed = 0x9E3779B97F4A7C15
        self._state = seed & MASK64

    def next64(self) -> int:
        """Next 64-bit pseudo-random value."""
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * self._MULT) & MASK64

    def next_bits(self, bits: int) -> int:
        """Next pseudo-random value of the requested width (1..64 bits)."""
        if not 1 <= bits <= 64:
            raise ValueError("bits must be between 1 and 64")
        return self.next64() >> (64 - bits)

    def uniform(self) -> float:
        """Float in [0, 1) — used only by workload generators, never keys."""
        return self.next64() / float(1 << 64)

    def fork(self) -> "XorShiftPrng":
        """Derive an independent child stream (for per-entity generators)."""
        return XorShiftPrng(self.next64() ^ 0xA5A5A5A5A5A5A5A5)
