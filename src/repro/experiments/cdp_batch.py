"""Batched C-DP throughput at production scale (the §XI argument).

Figs 18/19 measure one request at a time: the controller waits a full
round trip before composing the next message, so throughput is pinned to
1/RCT regardless of how many switches exist.  §XI argues a production
deployment amortizes this by working in parallel.  This experiment makes
that argument concrete: the Table III random 4-regular fabric is scaled
to m ∈ {25, 100, 400} switches and the same register workload is driven
two ways over the *same* stack —

- ``mode="sequential"`` — the paper's shape: one request in flight
  globally, next issued on completion (the per-request baseline);
- ``mode="batched"`` — through :class:`repro.runtime.batch.BatchController`,
  a window of requests in flight per switch and all switches concurrent,
  each switch's issue burst signed in one ``sign_many`` call.

Both modes emit byte-identical per-message traffic (same stack, same
compose path, same Eqn 4 digests); only scheduling differs, so the
throughput ratio isolates the pipelining win.

The ``cdp_batch_lossy`` variant is the chaos companion: a seeded
Bernoulli drop tap on every control channel while the batched window is
full, checking that bounded retries give every request a terminal
outcome (no window slot leaks, conservation holds).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.metrics import mean
from repro.crypto.prng import XorShiftPrng
from repro.dataplane.switch import DataplaneSwitch
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.net.topology import random_regular_fabric
from repro.runtime.batch import BatchController
from repro.runtime.comparison import STACKS, attach_stack
from repro.runtime.harness import floor_percentile

#: Virtual-time ceiling for one workload run; generous on purpose — the
#: sequential m=400 point is thousands of serialized RTTs.
RUN_DEADLINE_S = 600.0
#: Bootstrap window for the parallel local-key handshakes.
BOOTSTRAP_DEADLINE_S = 10.0
#: The fleet register every workload request reads or writes.
TARGET_REGISTER = "target"


def switch_index(name: str) -> int:
    """Node index of fabric switch ``sw<i>``."""
    return int(name[2:])


def fleet_switch_factory(seed: int):
    """The fleet's switch: random extern seeded ``seed + i``, one 16-slot
    64-bit ``target`` register."""
    def factory(name: str, num_ports: int) -> DataplaneSwitch:
        switch = DataplaneSwitch(name, num_ports=num_ports,
                                 seed=seed + switch_index(name))
        switch.registers.define(TARGET_REGISTER, 64, 16)
        return switch

    return factory


def outstanding_budget(m: int, max_in_flight: int) -> int:
    """The outstanding-requests DoS threshold for a batched fleet: the
    heuristic budgets for ONE switch's worth of pipelining, but a fleet
    legitimately holds up to m * window requests open, so the threshold
    scales with it."""
    return max(1000, 2 * m * max_in_flight)


def build_batch_deployment(stack_name: str, m: int = 25, degree: int = 4,
                           seed: int = 1, telemetry=None,
                           request_timeout_s: Optional[float] = None,
                           loss_rate: float = 0.0,
                           max_in_flight: int = 8,
                           k_seed_base: int = 0x1000,
                           bootstrap: bool = True) -> Tuple:
    """One stack deployed on the m-switch random-regular fabric.

    Returns ``(sim, net, stack, switch_names)`` with every switch a
    :func:`fleet_switch_factory` switch whose ``target`` register is
    mapped, switch ``i`` seeded ``k_seed_base + i``, the DoS threshold
    budgeted for an ``m``-switch fleet, local keys established unless
    ``bootstrap`` is false (the caller runs the KMP itself), and — when
    ``loss_rate`` > 0 — a seeded Bernoulli drop tap on every control
    channel.  The tap is installed *after* key bootstrap so setup is
    loss-free and deterministic; loss applies only to the measured
    workload.
    """
    net, extras = random_regular_fabric(
        m, degree, seed, factory=fleet_switch_factory(seed),
        telemetry=telemetry)
    sim, switches = extras["sim"], extras["switches"]
    stack, _dataplanes = attach_stack(
        stack_name, net, switches, [TARGET_REGISTER],
        {name: k_seed_base + switch_index(name) for name in switches},
        BOOTSTRAP_DEADLINE_S if bootstrap else None,
        outstanding_threshold=outstanding_budget(m, max_in_flight),
        request_timeout_s=request_timeout_s)

    if loss_rate > 0.0:
        prng = XorShiftPrng(seed ^ 0xBADC0FFE)

        def lossy(packet, _direction):
            return None if prng.uniform() < loss_rate else packet

        for name in switches:
            net.control_channels[name].add_tap(lossy)

    return sim, net, stack, switches


def write_schedule(switches: List[str], rounds: int
                   ) -> List[Tuple[str, int, int]]:
    """``rounds`` requests per switch as ``(switch, index, value)``,
    interleaving switches round-robin so batched windows fill evenly."""
    return [(sw, i % 16, (0xAB00 + round_idx) & 0xFFFF)
            for round_idx in range(rounds)
            for i, sw in enumerate(switches)]


def tally() -> Tuple[Dict[str, int], Callable[[bool, int], None]]:
    """``(counts, on_done)``: a request callback that counts its outcomes
    into ``counts["ok"]`` / ``counts["failed"]``."""
    counts = {"ok": 0, "failed": 0}

    def on_done(ok: bool, _value: int) -> None:
        counts["ok" if ok else "failed"] += 1

    return counts, on_done


def run_batch_workload(sim, stack, switches: List[str], mode: str = "batched",
                       kind: str = "write", requests_per_switch: int = 8,
                       max_in_flight: int = 8) -> Dict[str, object]:
    """Drive the :func:`write_schedule` sequentially or batched; measure.

    Throughput is completed requests over the span from first issue to
    last terminal outcome (virtual time).  ``mode="batched"`` submits
    through :meth:`BatchController.submit_many`, so whole windows issue
    as single signed bursts.
    """
    if mode not in ("sequential", "batched"):
        raise ValueError("mode must be 'sequential' or 'batched'")
    requests = write_schedule(switches, requests_per_switch)
    start = sim.now
    state = {"ok": 0, "failed": 0, "last_done": start}
    rcts: List[float] = []

    if mode == "batched":
        batch = BatchController(stack, max_in_flight=max_in_flight)

        def on_done(ok: bool, _value: int) -> None:
            state["ok" if ok else "failed"] += 1
            state["last_done"] = sim.now

        batch.submit_many([
            (kind if kind == "read" else "write", sw, TARGET_REGISTER, index,
             value, on_done)
            for sw, index, value in requests])
        sim.run(until=start + RUN_DEADLINE_S)
        rcts = [s.rct_s for s in batch.stats.samples if s.ok]
        extra = {
            "in_flight_high_water": batch.stats.in_flight_high_water,
            "leaked_in_flight": batch.in_flight(),
            "still_queued": batch.queued(),
        }
    else:
        pending = deque(requests)
        sent = {"at": start}

        def issue() -> None:
            if not pending:
                return
            sw, index, value = pending.popleft()
            sent["at"] = sim.now
            if kind == "read":
                stack.read_register(sw, TARGET_REGISTER, index, on_done)
            else:
                stack.write_register(sw, TARGET_REGISTER, index, value,
                                     on_done)

        def on_done(ok: bool, _value: int) -> None:
            state["ok" if ok else "failed"] += 1
            state["last_done"] = sim.now
            if ok:
                rcts.append(sim.now - sent["at"])
            issue()

        issue()
        sim.run(until=start + RUN_DEADLINE_S)
        extra = {"in_flight_high_water": 1, "leaked_in_flight": 0,
                 "still_queued": len(pending)}

    duration = state["last_done"] - start
    completed = state["ok"]
    ordered = sorted(rcts)

    result = {
        "mode": mode,
        "kind": kind,
        "submitted": len(requests),
        "completed": completed,
        "failed": state["failed"],
        "duration_s": duration,
        "throughput_rps": (completed / duration) if duration > 0 else 0.0,
        "mean_rct_s": mean(ordered),
        "p50_rct_s": floor_percentile(ordered, 50),
        "p95_rct_s": floor_percentile(ordered, 95),
        "p99_rct_s": floor_percentile(ordered, 99),
    }
    result.update(extra)
    return result


def _trial(ctx: TrialContext) -> dict:
    p = ctx.params
    timeout = p["request_timeout_s"] if p["loss_rate"] else None
    sim, _net, stack, switches = build_batch_deployment(
        p["stack"], m=p["m"], degree=p["degree"], seed=p["seed"],
        telemetry=ctx.telemetry, request_timeout_s=timeout,
        loss_rate=p["loss_rate"], max_in_flight=p["max_in_flight"])
    result = run_batch_workload(
        sim, stack, switches, mode=p["mode"], kind=p["kind"],
        requests_per_switch=p["requests_per_switch"],
        max_in_flight=p["max_in_flight"])
    result.update(stack=p["stack"], m=p["m"], loss_rate=p["loss_rate"])
    return result


def _lossy_trial(ctx: TrialContext) -> dict:
    # Conservation: with bounded retries every request reaches a terminal
    # outcome — a shortfall means a leaked window slot or lost callback.
    result = _trial(ctx)
    accounted = result["completed"] + result["failed"]
    ctx.check("every_request_reaches_a_terminal_outcome",
              accounted == result["submitted"],
              f"{accounted} terminal outcomes for "
              f"{result['submitted']} requests")
    return {**result, **ctx.verdict()}


SPEC = register(ExperimentSpec(
    name="cdp_batch_throughput",
    title="Batched vs sequential C-DP register throughput",
    source="§XI",
    trial=_trial,
    grid={"stack": list(STACKS),
          "mode": ["sequential", "batched"]},
    defaults={"m": 25, "degree": 4, "requests_per_switch": 8,
              "max_in_flight": 8, "kind": "write", "loss_rate": 0.0,
              "request_timeout_s": 0.05, "seed": 1},
    short={"m": 9, "requests_per_switch": 2},
    seed_param="seed",
    spec_version=2,
    tags=("runtime", "batching", "scalability"),
    claims=(
        claim("pipelining_speedup_m100", "P4Auth, lossless m = 100: >= 3x "
              "req/s over one in flight, p99 < 16x",
              lambda run: run.by("mode", ("sequential", "batched"),
                                 stack="P4Auth", m=100, loss_rate=0.0),
              lambda r: r["batched"]["throughput_rps"]
              >= 3 * r["sequential"]["throughput_rps"]
              and r["batched"]["p99_rct_s"] < 16 * r["sequential"]["p99_rct_s"]
              and all(t["completed"] == t["submitted"] for t in r.values())
              and r["batched"]["leaked_in_flight"]
              == r["batched"]["still_queued"] == 0,
              "{0[batched][throughput_rps]:.0f} vs "
              "{0[sequential][throughput_rps]:.0f} req/s"),
    ),
))

LOSSY_SPEC = register(ExperimentSpec(
    name="cdp_batch_lossy",
    title="Batched C-DP path over a lossy control channel",
    source="chaos",
    trial=_lossy_trial,
    grid={"loss_rate": [0.0, 0.02, 0.05]},
    defaults={"stack": "P4Auth", "mode": "batched", "m": 9, "degree": 4,
              "requests_per_switch": 4, "max_in_flight": 4, "kind": "write",
              "request_timeout_s": 0.05, "seed": 1},
    short={"loss_rate": [0.0, 0.05]},
    seed_param="seed",
    spec_version=2,
    tags=("chaos", "batching", "runtime"),
))
