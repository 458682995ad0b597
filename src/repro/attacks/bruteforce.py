"""Digest brute-force adversary (paper §VIII, "Digest size").

An attacker wanting to inject a crafted message without the key must
guess the 32-bit digest.  Every wrong guess triggers an alert at the
receiving data plane, revealing the attempt; the expected number of
trials (2^31) makes the attack both slow and loud.  This adversary mounts
a bounded version of that attack so tests and benches can measure the
detection rate.
"""

from __future__ import annotations

from typing import List

from repro.attacks.base import Adversary, forged_write
from repro.crypto.prng import XorShiftPrng
from repro.net.simulator import EventHandle


class DigestBruteForcer(Adversary):
    """Sends one crafted write request under many guessed digests."""

    def __init__(self, network, switch_name: str, reg_id: int, index: int,
                 value: int, seed: int = 0x5EED):
        super().__init__("digest-bruteforcer")
        self.network = network
        self.switch_name = switch_name
        self.reg_id = reg_id
        self.index = index
        self.value = value
        self._prng = XorShiftPrng(seed)
        self._queued: List[EventHandle] = []

    def attempt(self, guesses: int, seq_num: int = 1,
                spacing_s: float = 1e-4) -> None:
        """Schedule ``guesses`` forged messages, one digest guess each."""
        for trial in range(guesses):
            forged = forged_write(self.reg_id, self.index, self.value,
                                  seq_num, self._prng.next_bits(32))
            self._queued.append(self.inject(self.network, self.switch_name,
                                            forged, trial * spacing_s))

    def stop(self) -> None:
        """Withdraw (and uncount) every guess not yet delivered."""
        for handle in self._queued:
            if not handle.fired:
                handle.cancel()
                self.stats.injected -= 1
        self._queued = []

    @property
    def attempts(self) -> int:
        """Guesses delivered or still queued (alias of ``stats.injected``)."""
        return self.stats.injected

    @staticmethod
    def expected_trials() -> int:
        """Expected guesses to forge a 32-bit digest (2^31)."""
        return 1 << 31
