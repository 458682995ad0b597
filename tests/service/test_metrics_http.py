"""Satellite 4: /metrics exposition format + the real HTTP surface.

Drives the stdlib-asyncio :class:`HttpServer` over a real loopback
socket (port 0) and checks that ``/metrics`` is valid Prometheus text
exposition: the versioned content type, well-formed metric naming on
every sample line, and the per-shard in-flight gauges and request
histograms the service publishes.
"""

from __future__ import annotations

import asyncio
import json
import re

from repro.service import ControllerService, FleetConfig
from repro.service.auth import TOKEN_HEADER
from repro.service.http import HttpServer

#: Prometheus metric/label naming, one sample per line:
#:   name{label="value",...} <number>
SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'           # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'   # first label
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r' [0-9eE+.\-]+$')


def run(coro):
    return asyncio.run(coro)


async def http_request(port, method, path, body=b"", headers=None,
                       reader_writer=None):
    """One HTTP/1.1 request over a (possibly reused) connection."""
    if reader_writer is None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    else:
        reader, writer = reader_writer
    head = [f"{method} {path} HTTP/1.1", "Host: test"]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    head.append(f"Content-Length: {len(body)}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    await writer.drain()

    status_line = await reader.readline()
    status = int(status_line.split()[1])
    resp_headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode().partition(":")
        resp_headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(
        int(resp_headers.get("content-length", "0")))
    if reader_writer is None:
        writer.close()
        await writer.wait_closed()
    return status, resp_headers, payload


async def serve(config=None):
    service = ControllerService(config or FleetConfig(m=4, shards=2))
    await service.start()
    server = HttpServer(service)
    port = await server.start()
    return service, server, port


async def teardown(service, server):
    await server.stop()
    if not service.draining:
        await service.stop()


class TestMetricsExposition:
    def test_content_type_is_prometheus_text(self):
        async def scenario():
            service, server, port = await serve()
            status, headers, _body = await http_request(
                port, "GET", "/metrics")
            assert status == 200
            assert headers["content-type"] == \
                "text/plain; version=0.0.4; charset=utf-8"
            await teardown(service, server)

        run(scenario())

    def test_every_sample_line_is_well_formed(self):
        async def scenario():
            service, server, port = await serve()
            # Drive traffic so counters and histograms carry samples.
            from repro.service import ServiceClient
            client = ServiceClient(service)
            for i in range(6):
                await client.write("sw0", "target", i % 16, i)
            _status, _headers, body = await http_request(
                port, "GET", "/metrics")
            lines = body.decode("utf-8").splitlines()
            assert lines, "empty exposition"
            for line in lines:
                if not line or line.startswith("#"):
                    continue
                assert SAMPLE_RE.match(line), f"malformed sample: {line!r}"
            # Namespaced under the repo prefix, typed comments present.
            assert any(line.startswith("# TYPE repro_") for line in lines)
            await teardown(service, server)

        run(scenario())

    def test_per_shard_gauges_and_histograms_present(self):
        async def scenario():
            service, server, port = await serve()
            from repro.service import ServiceClient
            client = ServiceClient(service)
            for i in range(8):
                await client.write(f"sw{i % 4}", "target", 0, i)
            await client.rollover("sw0")
            _status, _headers, body = await http_request(
                port, "GET", "/metrics")
            text = body.decode("utf-8")
            for shard_id in service.config.shard_ids:
                assert f'repro_service_shard_in_flight{{shard="{shard_id}"}}' \
                    in text
                assert f'repro_service_shard_switches{{shard="{shard_id}"}}' \
                    in text
            # Request histogram in full bucket/sum/count form.
            assert "repro_service_request_seconds_bucket" in text
            assert "repro_service_request_seconds_sum" in text
            assert "repro_service_request_seconds_count" in text
            assert 'le="+Inf"' in text
            # Op-labeled counters, rollover included.
            assert re.search(
                r'repro_service_requests_total\{[^}]*op="write"', text)
            assert re.search(
                r'repro_service_requests_total\{[^}]*op="rollover"', text)
            await teardown(service, server)

        run(scenario())

    def test_metrics_needs_no_token(self):
        async def scenario():
            service, server, port = await serve()
            status, _headers, _body = await http_request(
                port, "GET", "/metrics")
            assert status == 200
            await teardown(service, server)

        run(scenario())


class TestHttpSurface:
    def test_authenticated_write_read_over_http(self):
        async def scenario():
            service, server, port = await serve()
            auth = service.auth

            def signed(method, path, payload):
                body = json.dumps(payload, sort_keys=True).encode()
                return body, {TOKEN_HEADER: auth.token(method, path, body)}

            body, headers = signed("POST", "/v1/write", {
                "switch": "sw2", "register": "target", "index": 4,
                "value": 0xABCD})
            status, _h, payload = await http_request(
                port, "POST", "/v1/write", body, headers)
            assert status == 200 and json.loads(payload)["ok"]

            body, headers = signed("POST", "/v1/read", {
                "switch": "sw2", "register": "target", "index": 4})
            status, _h, payload = await http_request(
                port, "POST", "/v1/read", body, headers)
            assert status == 200
            assert json.loads(payload)["value"] == 0xABCD
            await teardown(service, server)

        run(scenario())

    def test_missing_token_is_401_over_http(self):
        async def scenario():
            service, server, port = await serve()
            status, _h, payload = await http_request(
                port, "POST", "/v1/read", b'{"switch": "sw0"}')
            assert status == 401
            assert not json.loads(payload)["ok"]
            await teardown(service, server)

        run(scenario())

    def test_non_ascii_token_is_401_over_http(self):
        """A raw byte >= 0x80 in the token header is a 401, not a 500."""
        async def scenario():
            service, server, port = await serve()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            body = b'{"switch": "sw0"}'
            writer.write(
                b"POST /v1/read HTTP/1.1\r\nHost: test\r\n"
                + TOKEN_HEADER.encode() + b": \xe9\r\n"
                + b"Content-Length: %d\r\n\r\n" % len(body) + body)
            await writer.drain()
            status_line = await reader.readline()
            assert status_line.startswith(b"HTTP/1.1 401"), status_line
            writer.close()
            await writer.wait_closed()
            await teardown(service, server)

        run(scenario())

    def test_unknown_route_is_404_over_http(self):
        async def scenario():
            service, server, port = await serve()
            status, _h, _payload = await http_request(
                port, "GET", "/nope")
            assert status == 404
            await teardown(service, server)

        run(scenario())

    def test_keep_alive_serves_multiple_requests(self):
        async def scenario():
            service, server, port = await serve()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            for _ in range(3):
                status, headers, _body = await http_request(
                    port, "GET", "/healthz",
                    reader_writer=(reader, writer))
                assert status == 200
                assert headers["connection"] == "keep-alive"
            writer.close()
            await writer.wait_closed()
            await teardown(service, server)

        run(scenario())

    def test_malformed_request_line_is_400(self):
        async def scenario():
            service, server, port = await serve()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"GARBAGE\r\n\r\n")
            await writer.drain()
            status_line = await reader.readline()
            assert b"400" in status_line
            writer.close()
            await writer.wait_closed()
            await teardown(service, server)

        run(scenario())
