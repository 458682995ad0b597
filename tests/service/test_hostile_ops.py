"""Hostile register ops: an authenticated client cannot wedge a shard.

At the parent commit one authenticated ``{"index": 999}`` raised out of
the shard's event loop: the worker task died silently, that request and
every later one to the shard hung forever, and ``stop()`` re-raised.
Three layers now answer it — the edge refuses an op that does not fit
the fleet's register schema (400), the data-plane kernel NACKs one that
arrives anyway (:mod:`tests.runtime.test_regop_battery`), and a worker
loop that still dies fails what it owes and answers 503 from then on.
Every await here is bounded: a hang is a failure, not a stuck suite.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime.comparison import STACKS
from repro.service import (
    ControllerService,
    FleetConfig,
    ServiceClient,
    ServiceError,
)

TIMEOUT_S = 20.0

#: (endpoint kind, the fields that make the op hostile).  The register
#: has 16 slots of 64 bits.
HOSTILE = {
    "read index 999": ("read", {"index": 999}),
    "write index 999": ("write", {"index": 999, "value": 1}),
    "read index 2**40": ("read", {"index": 2**40}),
    "write value 2**70": ("write", {"index": 0, "value": 2**70}),
    "write value -5": ("write", {"index": 0, "value": -5}),
    "read index -1": ("read", {"index": -1}),
    "read index true": ("read", {"index": True}),
    "write index true": ("write", {"index": True, "value": 1}),
    "write value true": ("write", {"index": 0, "value": True}),
    "write value 1.5": ("write", {"index": 0, "value": 1.5}),
    "read register []": ("read", {"register": []}),
}


def bounded(coro):
    return asyncio.wait_for(coro, TIMEOUT_S)


def serve(stack, scenario):
    """Run ``scenario(service, client)`` on a one-shard fleet, then check
    the three postconditions every hostile request must leave true."""
    async def main():
        service = ControllerService(FleetConfig(stack=stack, m=2, shards=1))
        await bounded(service.start())
        client = ServiceClient(service)
        try:
            await scenario(service, client)
            # The next honest read on the same shard is served ...
            honest = await bounded(client.read("sw0", "target", 0))
            assert honest["ok"] is True
            # ... no worker loop died on the way ...
            assert [w.failure for w in service.workers.values()] == [None]
        finally:
            # ... and stop() returns without raising.
            await bounded(service.stop())

    asyncio.run(main())


async def refused(client, path, payload):
    """The request is answered, and the answer is a 4xx."""
    with pytest.raises(ServiceError) as excinfo:
        await bounded(client._request("POST", path, payload))
    assert 400 <= excinfo.value.status < 500, excinfo.value
    return excinfo.value


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_single_hostile_op_is_a_400(stack, case):
    kind, fields = HOSTILE[case]

    async def scenario(service, client):
        error = await refused(client, f"/v1/{kind}",
                              {"switch": "sw0", **fields})
        assert error.status == 400
        assert service.status()["fleet"]["submitted"] == 0

    serve(stack, scenario)


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_op_inside_a_batch_refuses_the_batch(stack, case):
    kind, fields = HOSTILE[case]

    async def scenario(service, client):
        honest = {"kind": "write", "switch": "sw1", "index": 2, "value": 7}
        await refused(client, "/v1/batch", {"ops": [
            honest, {"kind": kind, "switch": "sw0", **fields}, honest]})
        # Validation precedes submission: the honest neighbours of the
        # hostile op were not applied either.
        assert service.status()["fleet"]["submitted"] == 0

    serve(stack, scenario)


@pytest.mark.parametrize("stack", STACKS)
def test_ops_at_the_schema_edge_are_served(stack):
    async def scenario(service, client):
        result = await bounded(client.write("sw0", "target", 15, 2**64 - 1))
        assert result["ok"] is True
        result = await bounded(client.read("sw0", "target", 15))
        assert result["value"] == 2**64 - 1

    serve(stack, scenario)


@pytest.mark.parametrize("stack", STACKS)
def test_an_op_past_the_edge_check_is_nacked_not_fatal(stack):
    """Defense in depth: submit straight to the shard, as a caller that
    skipped ``_validate_op`` would.  The data plane answers ``ok: False``."""
    async def scenario(service, client):
        assert await bounded(service.read("sw0", "target", 999)) == (False, 0)
        assert await bounded(
            service.write("sw0", "target", 999, 1)) == (False, 0)

    serve(stack, scenario)


def test_a_dying_shard_loop_answers_503_instead_of_hanging(capsys):
    async def main():
        service = ControllerService(FleetConfig(stack="DP-Reg-RW", m=2,
                                                shards=1))
        await bounded(service.start())
        client = ServiceClient(service)
        worker = service.worker_for("sw0")

        def explode(*_args, **_kwargs):
            raise RuntimeError("boom")

        worker.sim.run = explode
        # In flight when the loop dies: answered as failed, not left
        # pending; queued behind it likewise.
        first, second = await bounded(asyncio.gather(
            client.read("sw0"), client.read("sw1")))
        assert first["ok"] is False and second["ok"] is False
        assert isinstance(worker.failure, RuntimeError)
        assert worker.idle
        # From then on the shard refuses work: 503, never a hang.
        with pytest.raises(ServiceError) as excinfo:
            await bounded(client.read("sw0"))
        assert excinfo.value.status == 503
        assert "failed" in excinfo.value.message
        shard = service.status()["shards"][0]
        assert shard["failure"] == "RuntimeError: boom"
        assert shard["failed"] == 2 and shard["rejected"] == 1
        await bounded(service.stop())

    asyncio.run(main())
    assert "RuntimeError: boom" in capsys.readouterr().err


# -- arbitrary JSON op objects ------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

JSON_SCALARS = (st.none() | st.booleans() | st.text(max_size=8)
                | st.integers(min_value=-2**72, max_value=2**72)
                | st.floats(allow_nan=False, allow_infinity=False))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
#: Mostly the real field names, so the generator reaches past the first
#: check; sometimes a real switch, register or kind.
OP_OBJECTS = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["read", "write"]) | JSON_VALUES,
    "switch": st.sampled_from(["sw0", "sw1", "sw9"]) | JSON_VALUES,
    "register": st.just("target") | JSON_VALUES,
    "index": st.integers(min_value=-2, max_value=20) | JSON_VALUES,
    "value": JSON_VALUES,
    "extra": JSON_VALUES,
})


@pytest.mark.parametrize("stack", STACKS)
def test_arbitrary_op_objects_never_wedge_the_service(stack):
    """One service, many generated ops, single and batched: each is
    answered in bounded time with 200, 400 or 404; then the same three
    postconditions as above.  Hypothesis drives synchronously, so the
    test owns the loop and steps it one request at a time."""
    loop = asyncio.new_event_loop()
    service = ControllerService(FleetConfig(stack=stack, m=2, shards=1))
    loop.run_until_complete(bounded(service.start()))
    client = ServiceClient(service)

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(op=OP_OBJECTS, batched=st.booleans())
    def battery(op, batched):
        if batched:
            path, payload = "/v1/batch", {"ops": [op]}
        else:
            kind = op.get("kind")
            path = f"/v1/{kind if kind in ('read', 'write') else 'read'}"
            payload = op
        try:
            loop.run_until_complete(
                bounded(client._request("POST", path, payload)))
        except ServiceError as error:
            assert error.status in (400, 404), error

    try:
        battery()
        honest = loop.run_until_complete(
            bounded(client.read("sw0", "target", 0)))
        assert honest["ok"] is True
        assert [w.failure for w in service.workers.values()] == [None]
    finally:
        loop.run_until_complete(bounded(service.stop()))
        loop.close()
