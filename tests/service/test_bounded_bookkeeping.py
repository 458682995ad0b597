"""A long-running ``repro serve`` does not keep every request forever.

Each completed request appends one object to two per-shard containers
(``BatchStats.samples``, ``ShardStats.latency_samples``), for numbers
the daemon already exports as histograms.  They are windows of
``SAMPLE_WINDOW`` entries, so they stop growing; counters and futures
are unaffected.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import requests
from repro.runtime.comparison import STACKS
from repro.service import ControllerService, FleetConfig, ServiceClient

TIMEOUT_S = 60.0
WINDOW = 256
OPS = 2000
BATCH = 100


@pytest.mark.parametrize("stack", STACKS)
def test_sample_containers_are_windows(monkeypatch, stack):
    # Patched before the service (and so every stats object) is built.
    monkeypatch.setattr(requests, "SAMPLE_WINDOW", WINDOW, raising=False)

    async def main():
        service = ControllerService(FleetConfig(stack=stack, m=4, shards=1))
        await asyncio.wait_for(service.start(), TIMEOUT_S)
        client = ServiceClient(service)
        try:
            results = []
            for start in range(0, OPS, BATCH):
                ops = [{"kind": "write" if i % 2 else "read",
                        "switch": f"sw{i % 4}", "register": "target",
                        "index": i % 16, "value": i}
                       for i in range(start, start + BATCH)]
                reply = await asyncio.wait_for(client.batch(ops), TIMEOUT_S)
                results.extend(reply["results"])
            (worker,) = service.workers.values()
            return results, worker.stats, worker.batch.stats
        finally:
            await asyncio.wait_for(service.stop(), TIMEOUT_S)

    results, shard_stats, batch_stats = asyncio.run(main())
    # Every future resolved, and the counters kept counting.
    assert len(results) == OPS and all(r["ok"] for r in results)
    assert shard_stats.completed == OPS
    assert batch_stats.completed == OPS
    for container in (batch_stats.samples, shard_stats.latency_samples):
        assert len(container) == WINDOW
