"""Session-key derivation and payload encryption (the §XI extension).

From one master secret (K_local) the KDF derives a family of
"cryptographically unrelated" keys, exactly as §XI suggests: an
authentication key, an encryption key, and a nonce base.  Distinct
fixed labels feed the KDF's salt input, so the derived keys differ even
though they share the master.

Message protection composes **encrypt-then-MAC**: the value field is
encrypted first, then the digest is computed over the ciphertext
message.  Verification therefore rejects tampered ciphertexts *before*
any decryption happens — the same order a data plane would need, since
decrypting costs hash units.

Nonces: the P4Auth header's sequence number, tweaked with a direction
bit (requests use ``2*seq``, responses ``2*seq + 1``), unique per key
epoch because the key rolls long before the 32-bit counter wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import Kdf
from repro.crypto.stream import crypt_word

# Fixed, public derivation labels (the KDF salt for each derived key).
LABEL_AUTH = 0x5034417574684155   # "P4Auth" || "AU"
LABEL_ENC = 0x50344175746845_4E   # "P4Auth" || "EN"
LABEL_NONCE = 0x503441757468_4E4F  # "P4Auth" || "NO"

_default_kdf = Kdf()


@dataclass(frozen=True)
class SessionKeys:
    """The key family derived from one master secret."""

    auth: int
    encryption: int
    nonce_base: int


def derive_session_keys(master: int, kdf: Kdf = _default_kdf) -> SessionKeys:
    """Derive {auth, encryption, nonce-base} from a master secret.

    Both endpoints call this on the same master, so both hold the same
    family without any additional message exchange.
    """
    return SessionKeys(
        auth=kdf.derive(master, LABEL_AUTH),
        encryption=kdf.derive(master, LABEL_ENC),
        nonce_base=kdf.derive(master, LABEL_NONCE),
    )


def request_nonce(keys: SessionKeys, seq_num: int) -> int:
    """Nonce for a C->DP request (direction bit 0)."""
    return (keys.nonce_base ^ (seq_num << 1)) & ((1 << 64) - 1)


def response_nonce(keys: SessionKeys, seq_num: int) -> int:
    """Nonce for a DP->C response (direction bit 1)."""
    return (keys.nonce_base ^ ((seq_num << 1) | 1)) & ((1 << 64) - 1)


def encrypt_value(keys: SessionKeys, seq_num: int, value: int,
                  response: bool = False) -> int:
    """Encrypt a 64-bit register value (involutive: call again to
    decrypt)."""
    nonce = response_nonce(keys, seq_num) if response \
        else request_nonce(keys, seq_num)
    return crypt_word(keys.encryption, nonce, value)
