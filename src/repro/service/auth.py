"""Keyed-token authentication for service requests.

The service's endpoints mutate authenticated data-plane state, so the
HTTP surface itself must not become the unauthenticated path around the
paper's C-DP defenses.  Every request (except the liveness and metrics
scrape endpoints) carries an ``X-P4Auth-Token`` header: a HalfSipHash
tag over the canonical request bytes under a key derived from the
deployment secret with the existing KDF.

Deliberately *reuses* the repo's crypto primitives instead of opening a
second crypto path (the P4BID/IFC motivation in ISSUE 6): the token key
is produced by :func:`repro.crypto.kdf.kdf` with the HalfSipHash PRF,
and the tag by :class:`repro.crypto.halfsiphash.HalfSipHash` — the same
constructions the §VII digest rule trusts.  The service key is derived
key material and is handled like one: never logged, never serialized
into status/metrics responses.

This authenticates *clients to the service* (transport-level); the
service-to-switch hop keeps the full per-message Eqn 4 digest +
sequence-number machinery of the wrapped stack — nothing here weakens
or replaces it.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.halfsiphash import HalfSipHash
from repro.crypto.kdf import Kdf, halfsiphash_prf

#: Domain-separation salt for deriving the token key from the secret.
TOKEN_KEY_SALT = 0x53765631  # "SvV1"

#: The request header carrying the token.
TOKEN_HEADER = "x-p4auth-token"


def canonical_request(method: str, path: str, body: bytes) -> bytes:
    """The exact byte string a token signs: method, path, body."""
    return (method.upper().encode("ascii") + b"\n"
            + path.encode("utf-8") + b"\n" + body)


class RequestAuthenticator:
    """Sign and verify service requests under a shared deployment secret."""

    def __init__(self, secret: str):
        if not secret:
            raise ValueError("service secret must be non-empty")
        # Compress the free-form secret into the KDF's 64-bit key-in
        # domain, then derive the per-purpose token key through the same
        # keyed-PRF KDF the KMP uses for session keys.
        seed = int.from_bytes(
            hashlib.sha256(secret.encode("utf-8")).digest()[:8], "big")
        self._hash = HalfSipHash()
        self._key = Kdf(prf=halfsiphash_prf).derive(seed, TOKEN_KEY_SALT)

    def token(self, method: str, path: str, body: bytes = b"") -> str:
        """The hex token a client attaches to one request."""
        tag = self._hash.digest(self._key,
                                canonical_request(method, path, body))
        return f"{tag:08x}"

    def verify(self, method: str, path: str, body: bytes,
               token: str) -> bool:
        """Constant-time check of a presented token."""
        if not token:
            return False
        expected = self.token(method, path, body)
        return hmac.compare_digest(expected, token.strip().lower())


__all__ = ["RequestAuthenticator", "TOKEN_HEADER", "TOKEN_KEY_SALT",
           "canonical_request"]
