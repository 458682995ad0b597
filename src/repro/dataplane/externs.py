"""Target externs: the digest hash engine and the random() primitive.

The paper's prototype exposes digest computation as a BMv2 extern
(``compute_digest``).  :class:`HashExtern` is that extern over
HalfSipHash, counting its invocations so the resource/timing models can
account for hash-unit usage (Table II) and per-digest latency (Fig
18/19/21).
"""

from __future__ import annotations

from typing import Iterable

from repro.crypto.halfsiphash import HalfSipHash, pack_words
from repro.crypto.prng import XorShiftPrng


class HashExtern:
    """The keyed HalfSipHash digest extern, with invocation counting."""

    def __init__(self):
        self._compute = HalfSipHash().digest
        self.invocations = 0

    def compute_digest(self, key: int, words: Iterable[int],
                       word_bits: int = 32) -> int:
        """The ``compute_digest`` extern: keyed 32-bit digest over words.

        Matches the BMv2 extern signature from §VII: a 64-bit secret key
        and a variable list of arguments over which the digest is computed.
        """
        material = pack_words(words, word_bits)  # ValueError before counting
        self.invocations += 1
        return self._compute(key, material)

    def compute_digest_bytes(self, key: int, data: bytes) -> int:
        """Keyed 32-bit digest over raw bytes."""
        self.invocations += 1
        return self._compute(key, data)


class RandomExtern:
    """P4's ``random()``: uniform values of a declared bit width."""

    def __init__(self, seed: int = 1):
        self._prng = XorShiftPrng(seed)
        self.invocations = 0

    def random(self, bits: int = 64) -> int:
        self.invocations += 1
        return self._prng.next_bits(bits)
