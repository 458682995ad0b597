"""ControllerService: lifecycle, endpoints, auth, routing, backpressure.

Everything drives the in-process :class:`ServiceClient`, which signs
tokens and goes through the same ``dispatch`` surface as the HTTP codec
— so these tests cover the authenticated path end to end without
sockets.  (No pytest-asyncio in the environment: each test wraps its
coroutine in ``asyncio.run``.)
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    ControllerService,
    FleetConfig,
    ServiceClient,
    ServiceError,
)


def run(coro):
    return asyncio.run(coro)


def small_config(**overrides) -> FleetConfig:
    base = dict(stack="P4Auth", m=4, shards=2)
    base.update(overrides)
    return FleetConfig(**base)


async def with_service(config, fn):
    service = ControllerService(config)
    await service.start()
    try:
        return await fn(service, ServiceClient(service))
    finally:
        if not service.draining:
            await service.stop()


class TestLifecycle:
    def test_start_serve_drain(self):
        async def scenario(service, client):
            result = await client.write("sw0", "target", 3, 0xFEED)
            assert result["ok"]
            result = await client.read("sw0", "target", 3)
            assert result["ok"] and result["value"] == 0xFEED
            await service.stop()
            assert service.idle
            fleet = service.status()["fleet"]
            assert fleet["completed"] == 2
            assert fleet["failed"] == 0

        run(with_service(small_config(), scenario))

    def test_draining_service_rejects_new_work_with_503(self):
        async def scenario(service, client):
            await service.stop()
            with pytest.raises(ServiceError) as excinfo:
                await client.read("sw0")
            assert excinfo.value.status == 503

        run(with_service(small_config(), scenario))

    def test_every_shard_has_owned_switches_registered(self):
        async def scenario(service, client):
            owners = {service.owner_of(sw)
                      for sw in service.config.switch_names}
            assert owners == set(service.config.shard_ids)
            for sw in service.config.switch_names:
                worker = service.worker_for(sw)
                assert sw in worker.switches

        run(with_service(small_config(m=8), scenario))


class TestEndpoints:
    def test_batch_preserves_fifo_read_your_write(self):
        async def scenario(service, client):
            outcome = await client.batch([
                {"kind": "write", "switch": "sw1", "register": "target",
                 "index": 5, "value": 0xCAFE},
                {"kind": "read", "switch": "sw1", "register": "target",
                 "index": 5},
            ])
            write_r, read_r = outcome["results"]
            assert write_r["ok"] and read_r["ok"]
            assert read_r["value"] == 0xCAFE

        run(with_service(small_config(), scenario))

    def test_single_switch_rollover_bumps_key_version(self):
        async def scenario(service, client):
            before = service.worker_for("sw0").stack.keys \
                .local_key_version("sw0")
            outcome = await client.rollover("sw0")
            assert outcome["ok"]
            rolled = outcome["rolled"]["sw0"]
            assert rolled["ok"]
            assert rolled["key_version"] == before + 1

        run(with_service(small_config(), scenario))

    def test_fleet_wide_rollover_rolls_every_switch(self):
        async def scenario(service, client):
            outcome = await client.rollover()
            assert outcome["ok"]
            assert sorted(outcome["rolled"]) == \
                sorted(service.config.switch_names)
            assert all(entry["ok"] for entry in outcome["rolled"].values())

        run(with_service(small_config(), scenario))

    def test_rollover_on_keyless_stack_is_400(self):
        async def scenario(service, client):
            with pytest.raises(ServiceError) as excinfo:
                await client.rollover("sw0")
            assert excinfo.value.status == 400

        run(with_service(small_config(stack="DP-Reg-RW"), scenario))

    def test_status_reports_fleet_and_shards(self):
        async def scenario(service, client):
            await client.write("sw0", "target", 0, 1)
            status = await client.status()
            assert status["fleet"]["switches"] == 4
            assert status["fleet"]["submitted"] == 1
            assert len(status["shards"]) == 2
            assert {s["shard"] for s in status["shards"]} == \
                set(service.config.shard_ids)

        run(with_service(small_config(), scenario))

    def test_healthz_is_unauthenticated(self):
        async def scenario(service, client):
            status, ctype, body = await service.dispatch(
                "GET", "/healthz", b"", {})
            assert status == 200
            assert b'"ok": true' in body

        run(with_service(small_config(), scenario))

    def test_non_p4auth_stacks_serve_register_traffic(self):
        for stack in ("DP-Reg-RW", "P4Runtime"):
            async def scenario(service, client):
                result = await client.write("sw1", "target", 2, 99)
                assert result["ok"]
                result = await client.read("sw1", "target", 2)
                assert result["ok"] and result["value"] == 99

            run(with_service(small_config(stack=stack), scenario))


class TestAuthAndValidation:
    def test_bad_token_is_401(self):
        async def scenario(service, client):
            forged = ServiceClient(service, secret="not-the-secret")
            with pytest.raises(ServiceError) as excinfo:
                await forged.read("sw0")
            assert excinfo.value.status == 401

        run(with_service(small_config(), scenario))

    def test_missing_token_is_401(self):
        async def scenario(service, client):
            status, _ctype, _body = await service.dispatch(
                "POST", "/v1/read", b'{"switch": "sw0"}', {})
            assert status == 401

        run(with_service(small_config(), scenario))

    def test_token_covers_the_body(self):
        """A token minted for one body must not authorize another."""
        async def scenario(service, client):
            good = b'{"index": 0, "register": "target", "switch": "sw0"}'
            evil = b'{"index": 1, "register": "target", "switch": "sw0"}'
            token = service.auth.token("POST", "/v1/read", good)
            status, _ctype, _body = await service.dispatch(
                "POST", "/v1/read", evil, {"x-p4auth-token": token})
            assert status == 401

        run(with_service(small_config(), scenario))

    def test_unknown_switch_is_404(self):
        async def scenario(service, client):
            with pytest.raises(ServiceError) as excinfo:
                await client.read("sw99")
            assert excinfo.value.status == 404

        run(with_service(small_config(), scenario))

    def test_unknown_route_is_404(self):
        async def scenario(service, client):
            status, _ctype, _body = await service.dispatch(
                "POST", "/v1/nope", b"", {})
            assert status == 404

        run(with_service(small_config(), scenario))

    def test_malformed_json_is_400(self):
        async def scenario(service, client):
            body = b"{not json"
            token = service.auth.token("POST", "/v1/read", body)
            status, _ctype, _body = await service.dispatch(
                "POST", "/v1/read", body, {"x-p4auth-token": token})
            assert status == 400

        run(with_service(small_config(), scenario))

    def test_unknown_register_is_400(self):
        async def scenario(service, client):
            with pytest.raises(ServiceError) as excinfo:
                await client.read("sw0", register="nope")
            assert excinfo.value.status == 400

        run(with_service(small_config(), scenario))


class TestBackpressure:
    def test_full_queue_rejects_with_503(self):
        """queue_depth=1 and five concurrent clients: exactly one op is
        admitted before the worker can run; the rest see 503.  The
        asyncio ready queue makes this deterministic — all five tasks
        dispatch before the (later-scheduled) worker wakeup runs."""
        async def scenario(service, client):
            outcomes = await asyncio.gather(
                *(client.read("sw0") for _ in range(5)),
                return_exceptions=True)
            ok = [o for o in outcomes if isinstance(o, dict)]
            rejected = [o for o in outcomes if isinstance(o, ServiceError)]
            assert len(ok) == 1 and ok[0]["ok"]
            assert len(rejected) == 4
            assert all(e.status == 503 for e in rejected)
            assert service.workers["shard-0"].stats.rejected == 4

        run(with_service(
            small_config(m=1, shards=1, queue_depth=1), scenario))

    def test_batch_with_all_ops_rejected_is_503(self):
        async def scenario(service, client):
            # Fill the queue with a blocked single op, then batch more.
            first = asyncio.ensure_future(client.read("sw0"))
            await asyncio.sleep(0)  # let it submit, keep worker asleep

            async def overflow():
                with pytest.raises(ServiceError) as excinfo:
                    await client.batch(
                        [{"kind": "read", "switch": "sw0",
                          "register": "target", "index": 0}])
                assert excinfo.value.status == 503

            # Note: the first task already owns the queue's single slot;
            # this batch finds it full synchronously.
            await overflow()
            assert (await first)["ok"]

        run(with_service(
            small_config(m=1, shards=1, queue_depth=1), scenario))

    def test_big_queue_absorbs_concurrent_clients(self):
        async def scenario(service, client):
            outcomes = await asyncio.gather(
                *(client.write("sw%d" % (i % 4), "target", i % 16, i)
                  for i in range(64)))
            assert all(o["ok"] for o in outcomes)
            assert service.status()["fleet"]["rejected"] == 0

        run(with_service(small_config(queue_depth=256), scenario))


class TestServeCli:
    def test_smoke_mode_passes_and_exits_zero(self, capsys):
        from repro.__main__ import main
        assert main(["serve", "--smoke", "--m", "2", "--shards", "1"]) == 0
        out = capsys.readouterr().out
        assert "smoke passed" in out

    def test_smoke_mode_works_on_keyless_stack(self, capsys):
        from repro.service.cli import cmd_serve
        assert cmd_serve(["--smoke", "--m", "2", "--shards", "1",
                          "--stack", "DP-Reg-RW"]) == 0
        assert "rollover" not in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--issue-window", "0"],
        ["--issue-window", "4096"],
        ["--max-in-flight", "0"],
        ["--queue-depth", "0"],
        ["--shards", "5", "--m", "3"],
        ["--snapshot-every", "-5"],
    ])
    def test_bad_setting_is_one_line_and_exit_2_before_any_shard(
            self, capsys, monkeypatch, flags):
        from repro.service import cli

        def no_service(*_args, **_kwargs):
            raise AssertionError("a service was built")

        monkeypatch.setattr(cli, "ControllerService", no_service)
        assert cli.cmd_serve(["--smoke", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("repro serve: ")


class TestConfigValidation:
    @pytest.mark.parametrize("setting", [
        {"max_in_flight": 0},
        {"issue_window": 0},
        {"queue_depth": -1},
        {"snapshot_every": 0},
        {"snapshot_every": -5},
    ])
    def test_rejects_windows_below_one(self, setting):
        (name,) = setting
        with pytest.raises(ValueError, match=name):
            FleetConfig(**setting)

    def test_rejects_unknown_stack(self):
        with pytest.raises(ValueError):
            FleetConfig(stack="OpenFlow")

    def test_rejects_more_shards_than_switches(self):
        with pytest.raises(ValueError):
            FleetConfig(m=2, shards=3)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            FleetConfig(m=0)

    def test_rejects_window_crowding_the_dos_budget(self):
        with pytest.raises(ValueError, match="issue_window=4096"):
            FleetConfig(issue_window=4096)
        FleetConfig(issue_window=500)
        FleetConfig(stack="DP-Reg-RW", issue_window=4096)  # no DoS budget
