"""Pure endpoint logic for the EAK and ADHKD exchanges (paper §VI-A/B).

These classes hold no I/O: they compute salts, public keys, and derived
secrets.  The controller (:mod:`repro.core.kmp`) and the data plane
(:mod:`repro.core.auth_dataplane`) wrap them with message transport and
authentication.

EAK (Exchange of Authentication Key, Fig 11)::

    C:  S1 = random
    C -> DP:  S1                      (auth: K_seed)
    DP: S2 = random; S = S1 || S2; K_auth = KDF(K_seed, S)
    DP -> C:  S2                      (auth: K_seed)
    C:  S = S1 || S2; K_auth = KDF(K_seed, S)

ADHKD (Authenticated DH exchange + Key Derivation, Fig 12)::

    I:  R1, S1 = random; PK1 = DH'(P, G, R1)
    I -> R:  PK1, S1                  (auth: context key)
    R:  R2, S2 = random; PK2 = DH'(P, G, R2)
        K_pms = DH''(P, R2, PK1); K = KDF(K_pms, S1 || S2)
    R -> I:  PK2, S2                  (auth: context key)
    I:  K_pms = DH''(P, R1, PK2); K = KDF(K_pms, S1 || S2)

Salt combination: the KDF takes a 64-bit salt, so each endpoint
contributes 32 bits — ``S = lo32(S1) || lo32(S2)`` (DESIGN.md).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.crypto.kdf import kdf
from repro.crypto.modified_dh import DhParameters, dh_public, dh_shared
from repro.crypto.ops import concat32, lo32
from repro.crypto.prng import XorShiftPrng

#: The group (P, G) both endpoints are compiled with.
DH_PARAMS = DhParameters()


def combine_salts(salt1: int, salt2: int) -> int:
    """Concatenate the two endpoints' salt contributions (32 bits each)."""
    return concat32(lo32(salt1), lo32(salt2))


class EakEndpoint:
    """Either side of the EAK exchange."""

    def __init__(self, k_seed: int, prng: XorShiftPrng):
        self.k_seed = k_seed
        self._prng = prng
        self._salt1: Optional[int] = None

    # initiator (controller) side -------------------------------------------

    def start(self) -> int:
        """Generate and remember S1; returns it for transmission."""
        self._salt1 = self._prng.next64()
        return self._salt1

    def finish(self, salt2: int) -> int:
        """Derive K_auth from the responder's S2."""
        if self._salt1 is None:
            raise RuntimeError("EAK finish() before start()")
        k_auth = kdf(self.k_seed, combine_salts(self._salt1, salt2))
        self._salt1 = None
        return k_auth

    # responder (data plane) side ---------------------------------------------

    def respond(self, salt1: int) -> Tuple[int, int]:
        """Generate S2 and derive K_auth; returns (S2, K_auth)."""
        salt2 = self._prng.next64()
        k_auth = kdf(self.k_seed, combine_salts(salt1, salt2))
        return salt2, k_auth


class AdhkdEndpoint:
    """Either side of one ADHKD exchange instance.

    An instance is single-use on the initiator side (it remembers R1/S1
    between :meth:`start` and :meth:`finish`); the responder side is
    stateless and may be reused.
    """

    def __init__(self, prng: XorShiftPrng):
        self._prng = prng
        self._r1: Optional[int] = None
        self._salt1: Optional[int] = None

    # initiator side ---------------------------------------------------------

    def start(self) -> Tuple[int, int]:
        """Generate (PK1, S1) and remember the private state."""
        self._r1 = self._prng.next64()
        self._salt1 = self._prng.next64()
        pk1 = dh_public(DH_PARAMS, self._r1)
        return pk1, self._salt1

    def pending_state(self) -> Tuple[int, int]:
        """(R1, S1) for callers that persist state in registers."""
        if self._r1 is None or self._salt1 is None:
            raise RuntimeError("no ADHKD exchange in progress")
        return self._r1, self._salt1

    def resume(self, r1: int, salt1: int) -> None:
        """Restore initiator state persisted externally (DP registers)."""
        self._r1 = r1
        self._salt1 = salt1

    def finish(self, pk2: int, salt2: int) -> int:
        """Derive the master secret from the responder's reply."""
        if self._r1 is None or self._salt1 is None:
            raise RuntimeError("ADHKD finish() before start()")
        k_pms = dh_shared(DH_PARAMS, self._r1, pk2)
        master = kdf(k_pms, combine_salts(self._salt1, salt2))
        self._r1 = None
        self._salt1 = None
        return master

    # responder side ------------------------------------------------------------

    def respond(self, pk1: int, salt1: int) -> Tuple[int, int, int]:
        """Process (PK1, S1); returns (PK2, S2, master secret)."""
        r2 = self._prng.next64()
        salt2 = self._prng.next64()
        pk2 = dh_public(DH_PARAMS, r2)
        k_pms = dh_shared(DH_PARAMS, r2, pk1)
        master = kdf(k_pms, combine_salts(salt1, salt2))
        return pk2, salt2, master
