"""Durable daemon state: ``--state-dir`` cold start and warm restart.

Drives two full :class:`ControllerService` lifetimes against the same
state directory: the first cold-starts and journals, the second must
warm-restart every shard without tripping any of P4Auth's defenses and
with request handling intact.  (No pytest-asyncio in the environment:
each test wraps its coroutine in ``asyncio.run``.)
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.service import (
    ControllerService,
    FleetConfig,
    ServiceClient,
)


def run(coro):
    return asyncio.run(coro)


def durable_config(state_dir, **overrides) -> FleetConfig:
    base = dict(stack="P4Auth", m=4, shards=2, state_dir=str(state_dir))
    base.update(overrides)
    return FleetConfig(**base)


async def lifetime(config, fn):
    service = ControllerService(config)
    await service.start()
    try:
        return await fn(service, ServiceClient(service))
    finally:
        if not service.draining:
            await service.stop()


class TestConfigValidation:
    def test_bad_fsync_policy_refused(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            durable_config(tmp_path, fsync="sometimes")

    def test_state_dir_requires_p4auth_stack(self, tmp_path):
        with pytest.raises(ValueError, match="P4Auth"):
            durable_config(tmp_path, stack="Baseline")

    def test_shard_state_dirs_are_disjoint(self, tmp_path):
        config = durable_config(tmp_path)
        dirs = {config.shard_state_dir(s) for s in config.shard_ids}
        assert len(dirs) == len(config.shard_ids)
        assert all(d.startswith(str(tmp_path)) for d in dirs)

    def test_no_state_dir_means_no_shard_dirs(self):
        config = FleetConfig(stack="P4Auth", m=4, shards=2)
        assert config.shard_state_dir(config.shard_ids[0]) is None


class TestColdStart:
    def test_cold_start_journals_per_shard(self, tmp_path):
        async def scenario(service, client):
            assert await client.write("sw0", "target", 0, 0xC01D)
            status = service.status()
            assert status["fleet"]["recovered_shards"] == 0
            for worker in service.workers.values():
                store = worker.status()["store"]
                assert store["journal_records"] > 0
                assert store["recovered"] is False

        run(lifetime(durable_config(tmp_path), scenario))
        # Every shard left a journal on disk.
        for shard in os.listdir(tmp_path):
            assert os.listdir(tmp_path / shard / "journal")


class TestWarmRestart:
    def test_restart_recovers_all_shards_and_serves(self, tmp_path):
        config = durable_config(tmp_path)
        switches = ["sw%d" % i for i in range(config.m)]

        async def first_life(service, client):
            for index, sw in enumerate(switches):
                result = await client.write(sw, "target", index, 0xAB)
                assert result["ok"]

        async def second_life(service, client):
            status = service.status()
            assert status["fleet"]["recovered_shards"] == config.shards
            for worker in service.workers.values():
                store = worker.status()["store"]
                assert store["recovered"] is True
                assert store["recovery_s"] is not None
                assert store["torn_records"] == 0
            # The warm fleet serves reads and writes immediately...
            for index, sw in enumerate(switches):
                result = await client.write(sw, "target", index, 0xCD)
                assert result["ok"]
            # ...without a single self-inflicted defense trip.
            for worker in service.workers.values():
                for dataplane in worker.dataplanes.values():
                    assert dataplane.stats.replays_detected == 0
                    assert dataplane.stats.digest_fail_cdp == 0
            assert service.status()["fleet"]["failed"] == 0

        run(lifetime(config, first_life))
        run(lifetime(durable_config(tmp_path), second_life))

    def test_sequence_numbers_skip_ahead_across_restart(self, tmp_path):
        seqs = {}

        async def first_life(service, client):
            await client.write("sw0", "target", 0, 1)
            worker = service.worker_for("sw0")
            seqs["before"] = worker.stack._seq["sw0"]

        async def second_life(service, client):
            worker = service.worker_for("sw0")
            assert worker.stack._seq["sw0"] >= seqs["before"]
            result = await client.write("sw0", "target", 1, 2)
            assert result["ok"]

        run(lifetime(durable_config(tmp_path), first_life))
        run(lifetime(durable_config(tmp_path), second_life))

    def test_rollover_epoch_survives_restart(self, tmp_path):
        """A served rollover is journaled as an epoch advance and the
        next life resumes counting from it."""
        async def first_life(service, client):
            assert (await service.rollover("sw0"))["sw0"]["ok"]

        async def second_life(service, client):
            worker = service.worker_for("sw0")
            assert worker.recovery_report.state.epochs == {"sw0": 1}
            assert worker.stack.kmp.rollover_epoch("sw0") == 1
            assert (await service.rollover("sw0"))["sw0"]["ok"]
            assert worker.stack.kmp.rollover_epoch("sw0") == 2

        run(lifetime(durable_config(tmp_path), first_life))
        run(lifetime(durable_config(tmp_path), second_life))

    def test_volatile_service_leaves_no_store(self, tmp_path):
        async def scenario(service, client):
            assert (await client.write("sw0", "target", 0, 7))["ok"]
            assert "store" not in service.worker_for("sw0").status()

        run(lifetime(FleetConfig(stack="P4Auth", m=4, shards=2), scenario))
        assert os.listdir(tmp_path) == []
