"""RequestAuthenticator: the HMAC-SHA256 token the service edge checks.

Pins the derivation against an HMAC built from ``hashlib`` alone, checks
that one changed byte anywhere in the signed request or the token is
refused, and that ``verify`` is total: a token that is not exactly the
expected hex (non-ASCII included) is ``False`` and the daemon answers
401, never 500.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import pytest

from repro.service import ControllerService, FleetConfig
from repro.service.auth import (
    TOKEN_HEADER, TOKEN_KEY_SALT, RequestAuthenticator, canonical_request)

SECRET = "deployment-secret"
METHOD, PATH = "POST", "/v1/write"
BODY = b'{"index": 3, "register": "target", "switch": "sw0", "value": 7}'


def _hmac_sha256(key: bytes, message: bytes) -> bytes:
    """RFC 2104 over ``hashlib.sha256``, independent of :mod:`hmac`."""
    block = 64
    if len(key) > block:
        key = hashlib.sha256(key).digest()
    key = key.ljust(block, b"\0")
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in key) + message).digest()
    return hashlib.sha256(bytes(b ^ 0x5C for b in key) + inner).digest()


@pytest.fixture
def auth():
    return RequestAuthenticator(SECRET)


def test_known_answer(auth):
    key = _hmac_sha256(SECRET.encode(), TOKEN_KEY_SALT.to_bytes(4, "big"))
    expected = _hmac_sha256(key, b"POST\n/v1/write\n" + BODY).hex()
    assert canonical_request(METHOD, PATH, BODY) == b"POST\n/v1/write\n" + BODY
    assert auth.token(METHOD, PATH, BODY) == expected
    assert len(expected) == 64
    assert RequestAuthenticator("s").token("GET", "/fleet/status") == (
        "69b38cd00fd98df1cbd75bc4e8c0e81c"
        "29714310d4ef3421895a13ebaf1ad484")  # openssl dgst -mac HMAC


def test_honest_token_verifies(auth):
    assert auth.verify(METHOD, PATH, BODY, auth.token(METHOD, PATH, BODY))


def _flip(text: str, index: int) -> str:
    return text[:index] + chr(ord(text[index]) ^ 1) + text[index + 1:]


@pytest.mark.parametrize("part", ["method", "path", "body", "token"])
def test_one_changed_byte_is_refused(auth, part):
    token = auth.token(METHOD, PATH, BODY)
    method, path, body = METHOD, PATH, BODY
    if part == "method":
        method = "PUT"
    elif part == "path":
        path = _flip(PATH, len(PATH) - 1)
    elif part == "body":
        body = BODY[:-2] + bytes([BODY[-2] ^ 1]) + BODY[-1:]
    else:
        token = _flip(token, 17)
    assert not auth.verify(method, path, body, token)


@pytest.mark.parametrize("dress", [str.upper, lambda t: f"  {t}\t"])
def test_uppercase_and_padded_tokens_verify(auth, dress):
    token = dress(auth.token(METHOD, PATH, BODY))
    assert auth.verify(METHOD, PATH, BODY, token)


@pytest.mark.parametrize("token", [
    "", "deadbeef", "0" * 65, "z" * 64, "\xe9", "\xe9" * 64, "\udcff",
], ids=["empty", "old-8-hex", "65-hex", "non-hex", "latin1-byte",
        "latin1-64", "lone-surrogate"])
def test_malformed_tokens_are_refused(auth, token):
    assert auth.verify(METHOD, PATH, BODY, token) is False


def test_truncated_and_extended_tokens_are_refused(auth):
    token = auth.token(METHOD, PATH, BODY)
    assert not auth.verify(METHOD, PATH, BODY, token[:8])
    assert not auth.verify(METHOD, PATH, BODY, token + "0")


def test_secrets_separate_tokens():
    one, two = RequestAuthenticator("alpha"), RequestAuthenticator("beta")
    assert one.token(METHOD, PATH, BODY) != two.token(METHOD, PATH, BODY)
    assert not two.verify(METHOD, PATH, BODY, one.token(METHOD, PATH, BODY))


def test_empty_secret_is_refused():
    with pytest.raises(ValueError):
        RequestAuthenticator("")


def test_non_ascii_token_through_dispatch_is_401():
    """The daemon decodes headers as latin-1: one byte >= 0x80 in the
    token must be a 401, not an exception out of ``dispatch``."""
    async def scenario():
        service = ControllerService(FleetConfig(m=4, shards=1))
        await service.start()
        try:
            body = json.dumps({"switch": "sw0"}).encode()
            for token in ("\xe9", "\xe9" * 64):
                status, _type, payload = await service.dispatch(
                    "POST", "/v1/read", body, {TOKEN_HEADER: token})
                assert status == 401
                assert not json.loads(payload)["ok"]
        finally:
            await service.stop()

    asyncio.run(scenario())
