"""Sharded controller-service load: req/s by shard count.

``cdp_batch_throughput`` showed windowed pipelining beats the paper's
one-request-at-a-time shape inside *one* controller.  This experiment
measures the next layer: the :mod:`repro.service` daemon sharding a
fleet across N controller workers (DESIGN.md "Controller service"),
each with its own deployment and its own share of the §IV
outstanding-request DoS budget (``issue_window``).  Concurrent
authenticated clients drive mixed read/write batches through the real
dispatch surface (token auth, routing, backpressure included), and
fleet throughput is completed requests over the *busiest shard's* busy
virtual time — the honest scaling number: if sharding didn't help, the
busiest shard would be doing all the work.

Every trial checks the security invariants that concurrency could
plausibly break:

- the honest-load audit (:func:`repro.core.kmp.honest_load_audit`, P4Auth
  stacks): no switch ahead of its controller, sequence state agreeing on
  every switch, and no digest failure, replay rejection or tamper event —
  interleaved clients never present out-of-order sequence numbers (the
  per-switch FIFO guarantee);
- every register slot ends at a value some client actually wrote —
  no forged or corrupted write landed.

A violated invariant fails a check; it never degrades into a worse number.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Set, Tuple

from repro.core import kmp
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.runtime.harness import floor_percentile

#: Per-op retry budget when a shard answers 503 (backpressure is a
#: contract: callers back off and retry, they don't lose the op).
MAX_RETRIES = 8

REG_NAME = "target"
REG_SIZE = 16


def _plan_rounds(client: int, rounds: int, batch_size: int,
                 switches: List[str], read_fraction: float,
                 ) -> List[List[Dict[str, object]]]:
    """A client's deterministic op schedule: round-robin over the fleet,
    reads interleaved at ``read_fraction``, values encoding their origin
    so the end-state check can attribute every register slot."""
    plans: List[List[Dict[str, object]]] = []
    counter = 0
    for round_idx in range(rounds):
        ops: List[Dict[str, object]] = []
        for k in range(batch_size):
            # Stagger clients so one round touches many shards at once.
            switch = switches[(client * 7 + counter) % len(switches)]
            index = counter % REG_SIZE
            is_read = (counter % 100) < int(read_fraction * 100)
            if is_read:
                ops.append({"kind": "read", "switch": switch,
                            "register": REG_NAME, "index": index})
            else:
                value = ((client & 0xFF) << 24) | ((round_idx & 0xFF) << 16) \
                    | (counter & 0xFFFF)
                ops.append({"kind": "write", "switch": switch,
                            "register": REG_NAME, "index": index,
                            "value": value})
            counter += 1
        plans.append(ops)
    return plans


async def _client_task(client_api, plans, written: Dict[Tuple[str, int],
                                                        Set[int]],
                       tally: Dict[str, int]) -> None:
    from repro.service.client import ServiceError

    for ops in plans:
        pending = ops
        attempt = 0
        while pending:
            try:
                outcome = await client_api.batch(pending)
            except ServiceError as exc:
                if exc.status != 503 or attempt >= MAX_RETRIES:
                    raise
                tally["retries"] += len(pending)
                attempt += 1
                await asyncio.sleep(0)
                continue
            retry: List[Dict[str, object]] = []
            for op, result in zip(pending, outcome["results"]):
                if result.get("rejected"):
                    retry.append(op)
                    continue
                tally["ok" if result["ok"] else "failed"] += 1
                if result["ok"] and op["kind"] == "write":
                    written.setdefault(
                        (op["switch"], op["index"]), set()).add(op["value"])
            if retry:
                if attempt >= MAX_RETRIES:
                    raise RuntimeError(
                        f"{len(retry)} ops still rejected after "
                        f"{MAX_RETRIES} retries")
                tally["retries"] += len(retry)
                attempt += 1
                await asyncio.sleep(0)
            pending = retry


def _judge(ctx: TrialContext, service,
           written: Dict[Tuple[str, int], Set[int]]) -> None:
    """State the run's security claims as named checks."""
    ctx.check("service_drained", service.idle,
              f"service idle after stop(): {service.idle}")
    stacks = [worker.stack for worker in service.workers.values()
              if worker.stack_name == "P4Auth"]
    for check in kmp.honest_load_audit(
            {switch: lag for stack in stacks
             for switch, lag in stack.seq_divergence().items()},
            kmp.sum_indicators(stack.tamper_indicators() for stack in stacks)):
        ctx.check(*check)
    unwritten = []
    for (switch, index), values in written.items():
        final = service.worker_for(switch).net.switch(switch) \
            .registers.get(REG_NAME).read(index)
        if final not in values:
            unwritten.append(f"{switch}[{index}] ended at {final:#x}")
    ctx.check("end_state_written_by_a_client", not unwritten,
              f"{len(unwritten)} slots hold a value no client wrote "
              f"(forged or corrupted write): {unwritten[:3]}")


async def _drive(ctx: TrialContext) -> Dict[str, object]:
    from repro.service.client import ServiceClient
    from repro.service.daemon import ControllerService, FleetConfig

    p = ctx.params
    # The grid can ask for more shards than a short fleet has switches.
    shard_count = min(p["shards"], p["m"])
    service = ControllerService(FleetConfig(
        stack=p["stack"], m=p["m"], shards=shard_count,
        registers=((REG_NAME, 64, REG_SIZE),),
        max_in_flight=p["max_in_flight"],
        issue_window=p["issue_window"],
        queue_depth=p["queue_depth"],
        seed=p["seed"]), telemetry=ctx.telemetry)
    await service.start()
    switches = service.config.switch_names
    written: Dict[Tuple[str, int], Set[int]] = {}
    tally = {"ok": 0, "failed": 0, "retries": 0}
    clients = [ServiceClient(service) for _ in range(p["clients"])]
    await asyncio.gather(*(
        _client_task(api,
                     _plan_rounds(c, p["rounds"], p["batch_size"],
                                  switches, p["read_fraction"]),
                     written, tally)
        for c, api in enumerate(clients)))
    await service.stop()
    _judge(ctx, service, written)

    shards = []
    samples: List[float] = []
    for shard_id in service.config.shard_ids:
        worker = service.workers[shard_id]
        shards.append({
            "shard": shard_id,
            "switches": len(worker.switches),
            "completed": worker.stats.completed,
            "busy_virtual_s": worker.stats.busy_s,
        })
        samples.extend(worker.stats.latency_samples)
    completed = sum(s["completed"] for s in shards)
    busy_max = max((s["busy_virtual_s"] for s in shards), default=0.0)
    ordered = sorted(samples)

    return {
        "stack": p["stack"], "m": p["m"], "shards": shard_count,
        "clients": p["clients"],
        "submitted": p["clients"] * p["rounds"] * p["batch_size"],
        "completed": completed,
        "failed": tally["failed"],
        "retries_503": tally["retries"],
        "busy_s_max": busy_max,
        "fleet_rps": (completed / busy_max) if busy_max > 0 else 0.0,
        "p50_s": floor_percentile(ordered, 50),
        "p99_s": floor_percentile(ordered, 99),
        "per_shard": shards,
        **ctx.verdict(),
    }


def _trial(ctx: TrialContext) -> dict:
    return asyncio.run(_drive(ctx))


SPEC = register(ExperimentSpec(
    name="cdp_service_load",
    title="Controller service req/s by shard count",
    source="service",
    trial=_trial,
    grid={"shards": [1, 2, 4]},
    defaults={"stack": "P4Auth", "m": 25, "clients": 8, "rounds": 6,
              "batch_size": 16, "read_fraction": 0.25, "issue_window": 32,
              "max_in_flight": 8, "queue_depth": 4096, "seed": 1},
    short={"m": 9, "clients": 3, "rounds": 2, "batch_size": 4,
           "shards": [1, 2]},
    seed_param="seed",
    spec_version=2,
    tags=("service", "scalability", "runtime"),
    claims=(
        claim("shard_scaling_m100", "m = 100, 24 clients x 6 x 32 ops: "
              ">= 3x req/s at 4 shards, lower p99",
              lambda run: run.by("shards", (1, 4), m=100, clients=24,
                                 rounds=6, batch_size=32),
              lambda r: r[4]["fleet_rps"] >= 3 * r[1]["fleet_rps"]
              and r[4]["p99_s"] < r[1]["p99_s"]
              and all(t["completed"] == t["submitted"] and t["failed"] == 0
                      for t in r.values()),
              "{0[4][fleet_rps]:.0f} vs {0[1][fleet_rps]:.0f} req/s"),
    ),
))
