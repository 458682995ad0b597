"""A served read costs no page fault.

asyncio asks for a 256 KiB buffer on every ``recv``; glibc maps and
unmaps one per read (two minor faults each) until the process has freed
one mapping that large.  ``repro/service/http.py`` frees one at import
so that every process that speaks HTTP through the package starts in
the state ``import numpy`` used to leave behind by accident.  Without
that line this test reads 4.0 faults per request (client read + server
read, both in the child); with it, 0.0.
"""

from __future__ import annotations

import sys

import pytest

REQUESTS = 2000

CHILD = """
import asyncio, json, resource, sys
from repro.service import ControllerService, FleetConfig, HttpServer

REQUESTS = int(sys.argv[1])
REQUEST = b"GET /healthz HTTP/1.1\\r\\nHost: test\\r\\nContent-Length: 0\\r\\n\\r\\n"


async def main():
    service = ControllerService(FleetConfig(m=4, shards=1))
    await service.start()
    server = HttpServer(service)
    port = await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)

    async def healthz():
        writer.write(REQUEST)
        await writer.drain()
        status = await reader.readline()
        assert status.split()[1] == b"200", status
        length = 0
        while True:
            line = await reader.readline()
            if line == b"\\r\\n":
                break
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        await reader.readexactly(length)

    for _ in range(50):  # connection set-up, first-use allocations
        await healthz()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REQUESTS):
        await healthz()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    writer.close()
    await server.stop()
    await service.stop()
    print(json.dumps({"faults": faults,
                      "numpy": "numpy" in sys.modules}))

asyncio.run(main())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt and the mmap threshold are Linux/glibc")
def test_keepalive_reads_take_no_page_faults(fresh_interpreter):
    result = fresh_interpreter(CHILD, str(REQUESTS))
    # The state is kept on purpose, not by a library's import.
    assert result["numpy"] is False
    assert result["faults"] / REQUESTS < 0.1, result
