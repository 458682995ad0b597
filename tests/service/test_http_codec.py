"""The HTTP/1.1 codec is total: hostile bytes get a typed status.

Every case sends raw bytes at an :class:`HttpServer` over a stub service
and must end in a well-formed response or a clean close — never an
exception in the connection handler, never a second request parsed out
of a body the codec did not frame.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    MAX_REQUEST_LINE,
    HttpServer,
)


class StubService:
    """Echoes the body length; records every request it is handed."""

    draining = False

    def __init__(self):
        self.seen = []

    async def dispatch(self, method, path, body, headers):
        self.seen.append((method, path, body))
        return 200, "application/json", json.dumps(
            {"ok": True, "len": len(body)}).encode("utf-8")


def exchange(raw: bytes, eof: bool = True):
    """Send ``raw``; return (responses, requests dispatched, loop errors).

    ``responses`` is every (status, headers, body) the server wrote
    before closing its end.
    """
    errors = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context))
        service = StubService()
        server = HttpServer(service)
        port = await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw)
        await writer.drain()
        if eof:
            writer.write_eof()
        data = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        await server.stop()
        return _parse_responses(data), service.seen

    loop = asyncio.new_event_loop()
    try:
        responses, seen = loop.run_until_complete(scenario())
    finally:
        loop.close()
    return responses, seen, errors


def _parse_responses(data: bytes):
    responses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"unterminated response head: {data[:80]!r}"
        lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        headers = dict(line.lower().split(": ", 1) for line in lines[1:])
        length = int(headers["content-length"])
        assert len(rest) >= length, "response body shorter than framed"
        responses.append((int(status), headers, rest[:length]))
        data = rest[length:]
    return responses


def assert_rejected(raw: bytes, status: int, eof: bool = True):
    """One well-formed JSON error, connection closed, nothing dispatched."""
    responses, seen, errors = exchange(raw, eof)
    assert errors == []
    assert seen == []
    assert [r[0] for r in responses] == [status]
    _status, headers, body = responses[0]
    assert headers["connection"] == "close"
    doc = json.loads(body)
    assert doc["ok"] is False and isinstance(doc["error"], str)
    return doc["error"]


def test_happy_path_bytes_are_unchanged():
    responses, seen, errors = exchange(
        b"POST /v1/x?y=1 HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert errors == []
    assert seen == [("POST", "/v1/x", b"abc"), ("GET", "/healthz", b"")]
    assert [(s, h["connection"], b) for s, h, b in responses] == [
        (200, "keep-alive", b'{"ok": true, "len": 3}'),
        (200, "close", b'{"ok": true, "len": 0}')]


#: asyncio's default StreamReader limit; a line that outgrows it makes
#: ``readline`` raise ValueError.  The cases below send one byte more
#: and stop, so the server has consumed everything when it closes.
STREAM_LIMIT = 64 * 1024


def test_request_line_over_the_codec_limit_is_431():
    line = b"GET /" + b"a" * MAX_REQUEST_LINE + b" HTTP/1.1\r\n\r\n"
    assert_rejected(line, 431)


def test_request_line_over_the_stream_limit_is_431():
    assert_rejected(b"GET /" + b"a" * STREAM_LIMIT, 431, eof=False)


def test_one_header_line_over_the_stream_limit_is_431():
    raw = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * STREAM_LIMIT
    assert_rejected(raw, 431, eof=False)


def test_header_block_over_the_limit_is_431():
    header = b"X-Pad: " + b"a" * 1000 + b"\r\n"
    count = MAX_HEADER_BYTES // len(header) + 1
    assert_rejected(b"GET / HTTP/1.1\r\n" + header * count + b"\r\n", 431)


def test_conflicting_content_length_is_400():
    raw = (b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
           b"Content-Length: 0\r\n\r\nabc")
    assert "Content-Length" in assert_rejected(raw, 400)


def test_repeated_identical_content_length_is_accepted():
    responses, seen, errors = exchange(
        b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
        b"content-length: 3\r\n\r\nabc")
    assert errors == []
    assert seen == [("POST", "/", b"abc")]
    assert [r[0] for r in responses] == [200]


def test_chunked_body_is_refused_not_reparsed_as_a_request():
    raw = (b"POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
           b"1c\r\nGET /smuggled HTTP/1.1\r\n\r\n\r\n0\r\n\r\n")
    assert "Transfer-Encoding" in assert_rejected(raw, 501)


def test_error_body_is_json_whatever_the_request_line_holds():
    error = assert_rejected(b'GET "a b" c d\r\n\r\n', 400)
    assert '"a' in error
    assert_rejected(b'GET "\\ \x00 \xff x\r\n\r\n', 400)


@pytest.mark.parametrize("value", [
    b"1_0", b"+5", b"-1", b"0x10", b"1e2", b" ", b"\xb2", b"five"])
def test_content_length_must_be_ascii_digits(value):
    raw = b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n" \
        + b"a" * 16
    assert_rejected(raw, 400)


def test_body_over_the_limit_is_413_before_any_byte_is_read():
    raw = (b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
           % (MAX_BODY_BYTES + 1))
    assert_rejected(raw, 413)


def test_malformed_header_and_version_are_typed():
    assert_rejected(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", 400)
    assert_rejected(b"GET / SPDY/3\r\n\r\n", 505)


def test_eof_mid_headers_is_400():
    assert_rejected(b"GET / HTTP/1.1\r\nHost: x\r\n", 400)


def test_eof_mid_body_is_a_clean_close():
    responses, seen, errors = exchange(
        b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
    assert errors == []
    assert seen == []
    assert responses == []


def test_eof_before_any_byte_is_a_clean_close():
    responses, seen, errors = exchange(b"")
    assert (responses, seen, errors) == ([], [], [])
