"""Dependency-free asyncio HTTP/1.1 codec over ``ControllerService``.

FastAPI/uvicorn are not available in the pinned environment, so the
daemon speaks HTTP through ``asyncio.start_server`` directly.  The
codec is deliberately small: parse one request (request line, headers,
``Content-Length`` body), hand it to
:meth:`~repro.service.daemon.ControllerService.dispatch`, write the
response.  Connections are persistent (HTTP/1.1 keep-alive) until the
client sends ``Connection: close`` or the server drains.

All authentication, routing, and status-code policy lives in
``dispatch`` — this module never looks inside a request body.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

# asyncio's selector transport asks for a fresh 256 KiB ``bytes`` on every
# ``recv``.  glibc serves a request that large with mmap + two page faults
# + munmap -- per read -- until it has seen one *freed* mapping at least
# that big, which raises its mmap threshold for the life of the process
# and puts the read buffer on the heap.  ``import numpy`` freed such a
# mapping at every start by accident while the project depended on it
# (until PR 21 took it off the start paths and PR 22 out of the tree);
# this line frees one on purpose, here, where the daemon and every
# client that imports ``repro.service`` pass exactly once.  Measured per echo
# round trip (two reads): 55-59 us CPU and 4.00 minor faults without this
# line, 19-21 us and 0.00 with it (DESIGN.md "Controller service"; pinned
# by tests/service/test_read_faults.py).  On an allocator without the
# heuristic it is a 20 us no-op.
bytearray(1 << 20)

#: Parser limits: generous for a control API, hard caps for a daemon.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

REASONS = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized", 404: "Not Found",
    408: "Request Timeout", 413: "Payload Too Large",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class _BadRequest(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; None on clean EOF (client closed keep-alive)."""
    try:
        line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    except ValueError:  # longer than the StreamReader's own limit
        raise _BadRequest(431, "request line too long")
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise _BadRequest(431, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest(400, f"malformed request line {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise _BadRequest(505, f"unsupported version {version}")
    headers: Dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise _BadRequest(431, "headers too large")
        if not line:
            raise _BadRequest(400, "connection closed mid-headers")
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise _BadRequest(431, "headers too large")
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(400, f"malformed header {line!r}")
        name, value = name.strip().lower(), value.strip()
        if (name == "content-length"
                and headers.get(name, value) != value):
            raise _BadRequest(400, "conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        # Bodies are framed by Content-Length only; reading on would
        # parse the chunks as the next request.
        raise _BadRequest(501, "Transfer-Encoding is not supported")
    length_text = headers.get("content-length", "0")
    if not (length_text.isascii() and length_text.isdigit()):
        raise _BadRequest(400, "malformed Content-Length")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        raise _BadRequest(413, f"body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    # Strip any query string: routing is exact-path.
    path = target.split("?", 1)[0]
    return method, path, headers, body


def _render_response(status: int, content_type: str, body: bytes,
                     close: bool) -> bytes:
    reason = REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n")
    if status == 503:
        head += "Retry-After: 1\r\n"
    head += ("Connection: close\r\n" if close
             else "Connection: keep-alive\r\n")
    return head.encode("latin-1") + b"\r\n" + body


class HttpServer:
    """Serve a :class:`ControllerService` over a TCP port."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = False
        #: Live connections: handler task -> (reader, writer).
        self._connections: Dict[asyncio.Task, Tuple[
            asyncio.StreamReader, asyncio.StreamWriter]] = {}

    async def start(self) -> int:
        """Bind and listen; returns the bound port (useful with port 0)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        """Stop listening and leave no connection handler pending.

        Every open connection sees end-of-input: one parked between
        requests closes at once, one mid-request still gets its response
        (with ``Connection: close``).  A handler left pending here would
        be cancelled when the loop shuts down, which asyncio reports as
        an exception in the stream protocol's callback.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for reader, writer in self._connections.values():
            # No more input: bytes arriving after feed_eof would trip
            # the stream reader's own assertion.
            writer.transport.pause_reading()
            reader.feed_eof()
        if self._connections:
            await asyncio.wait(list(self._connections))

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = (reader, writer)
        try:
            while not self._stopping:
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    body = json.dumps(
                        {"ok": False, "error": str(exc)}).encode("utf-8")
                    writer.write(_render_response(
                        exc.status, "application/json", body, close=True))
                    await writer.drain()
                    return
                except asyncio.IncompleteReadError:
                    return
                if request is None:
                    return
                method, path, headers, body = request
                try:
                    status, ctype, payload = await self.service.dispatch(
                        method, path, body, headers)
                except Exception as exc:  # noqa: BLE001 - daemon boundary
                    status, ctype = 500, "application/json"
                    payload = (f'{{"ok": false, "error": '
                               f'"internal: {type(exc).__name__}"}}'
                               ).encode("utf-8")
                close = (headers.get("connection", "").lower() == "close"
                         or self.service.draining or self._stopping)
                writer.write(_render_response(status, ctype, payload,
                                              close=close))
                await writer.drain()
                if close:
                    return
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


__all__ = ["HttpServer", "MAX_BODY_BYTES", "MAX_HEADER_BYTES",
           "MAX_REQUEST_LINE", "REASONS"]
