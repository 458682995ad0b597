"""Keyed-token authentication for service requests.

The service's endpoints mutate authenticated data-plane state, so the
HTTP surface itself must not become the unauthenticated path around the
paper's C-DP defenses.  Every request (except the liveness and metrics
scrape endpoints) carries an ``X-P4Auth-Token`` header: the hex
HMAC-SHA256 of the canonical request bytes under a key derived from the
deployment secret.  The service key is handled like any derived key:
never logged, never serialized into status/metrics responses.

Why stdlib HMAC-SHA256 here and HalfSipHash on the switch: §VII picks
HalfSipHash because Tofino can run it with AND/XOR/rotate/add and it is
fast on the short C-DP messages it signs.  The host edge has neither
constraint.  It hashes whole request bodies (up to ``MAX_BODY_BYTES``)
before it can answer 401, where the pure-Python kernel costs
milliseconds per batch body and ``hmac.digest`` runs in C.  The 256-bit
tag also cannot be forged online, where a 32-bit one falls to ~2^31
tries.

This authenticates *clients to the service* (transport-level); the
service-to-switch hop keeps the full per-message Eqn 4 digest +
sequence-number machinery of the wrapped stack — nothing here weakens
or replaces it.
"""

from __future__ import annotations

import hmac

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
        self._key = hmac.digest(secret.encode("utf-8"),
                                TOKEN_KEY_SALT.to_bytes(4, "big"), "sha256")

    def token(self, method: str, path: str, body: bytes = b"") -> str:
        """The 64-hex-char token a client attaches to one request."""
        return hmac.digest(self._key, canonical_request(method, path, body),
                           "sha256").hex()

    def verify(self, method: str, path: str, body: bytes,
               token: str) -> bool:
        """Constant-time check of a presented token; total on any string.

        The comparison is over bytes: a header decoded as latin-1 may
        carry non-ASCII characters, which ``compare_digest`` refuses to
        compare as ``str``.
        """
        presented = token.strip().lower().encode("utf-8", "replace")
        expected = self.token(method, path, body).encode("ascii")
        return hmac.compare_digest(expected, presented)


__all__ = ["RequestAuthenticator", "TOKEN_HEADER", "TOKEN_KEY_SALT",
           "canonical_request"]
