"""Clean shutdown with open keep-alive connections.

A handler left waiting for the next request when the loop shuts down is
cancelled, and asyncio reports that as ``Exception in callback
StreamReaderProtocol.connection_made.<locals>.callback`` with a
``CancelledError`` traceback — once per connection.  ``HttpServer.stop()``
must therefore leave no handler pending: parked connections close, a
request in flight still gets its answer.
"""

from __future__ import annotations

import asyncio

from tests.service.test_metrics_http import http_request, run, serve


def test_stop_closes_a_parked_keepalive_connection_silently():
    records = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: records.append(context))
        service, server, port = await serve()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        status, headers, _body = await http_request(
            port, "GET", "/healthz", reader_writer=(reader, writer))
        assert status == 200
        assert headers["connection"] == "keep-alive"
        # The client keeps its connection open across the shutdown.
        await server.stop()
        await service.stop()
        assert service.idle
        # The server closed its end; nothing is left waiting on ours.
        assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
        writer.close()

    run(scenario())
    assert records == []


def test_stop_lets_a_request_in_flight_finish_with_connection_close():
    records = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: records.append(context))
        service, server, port = await serve()
        entered, release = asyncio.Event(), asyncio.Event()
        dispatch = service.dispatch

        async def gated(*args):
            entered.set()
            await release.wait()
            return await dispatch(*args)

        service.dispatch = gated
        conn = await asyncio.open_connection("127.0.0.1", port)
        request = asyncio.ensure_future(http_request(
            port, "GET", "/healthz", reader_writer=conn))
        await asyncio.wait_for(entered.wait(), timeout=5.0)
        stopping = asyncio.ensure_future(server.stop())
        await asyncio.sleep(0)
        assert not stopping.done()  # waits for the handler, not past it
        release.set()
        status, headers, _body = await asyncio.wait_for(request, timeout=5.0)
        assert status == 200
        assert headers["connection"] == "close"
        await asyncio.wait_for(stopping, timeout=5.0)
        await service.stop()
        assert await asyncio.wait_for(conn[0].read(), timeout=5.0) == b""
        conn[1].close()

    run(scenario())
    assert records == []
