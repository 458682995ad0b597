"""Fleet scale: one trial per independent domain (DESIGN.md "Independent
domains").

§XI splits a production fleet across controllers — "8 ONOS controllers,
25 switches each" — and those are independent domains: no key spans two
of them, so no digest depends on another domain's key epochs.  A trial
is therefore one region of the fleet: its own ``m``-switch fabric (graph
seed :func:`~repro.net.topology.region_seed`), its own controller and
KMP, its own block of K_seeds.
It runs the production lifecycle — key bootstrap, one rollover, and a
batched C-DP write workload with ground-truth verification (every
register cell must end at the last value its controller wrote: the
zero-forged-writes check) — and judges it with named checks.

The engine's ``--workers`` pool runs the regions in parallel, one whole
region per process, so the result is identical at any worker count; the
host-measured seconds of each phase (``bootstrap_s``, ``rollover_s``,
``workload_s``) go to ``ctx.host``, which the engine files under
``run_meta``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from repro.core.kmp import honest_load_audit
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.experiments.cdp_batch import (
    build_batch_deployment,
    run_batch_workload,
    write_schedule,
)
from repro.net.topology import region_seed

#: Virtual-time budget for one region-wide bootstrap (parallel
#: handshakes: a few C-DP RTTs regardless of m).
BOOTSTRAP_DEADLINE_S = 30.0
ROLLOVER_DEADLINE_S = 30.0


def _k_seed_base(region_index: int) -> int:
    """Each region's K_seeds live in their own 2**20 block."""
    return 0x1000 + (region_index << 20)


def _drive_batched_writes(sim, controller, switches: List[str],
                          requests_per_switch: int,
                          max_in_flight: int) -> Dict[str, object]:
    """The cdp_batch write workload + ground-truth end-state check."""
    result = run_batch_workload(sim, controller, switches,
                                requests_per_switch=requests_per_switch,
                                max_in_flight=max_in_flight)
    # Ground truth: every register cell must hold the *last* value the
    # controller issued for it (per-switch FIFO ordering guarantees the
    # last submitted write lands last).  Anything else is a forged or
    # lost write.
    expected = {(sw, index): value for sw, index, value
                in write_schedule(switches, requests_per_switch)}
    workload = {key: result[key] for key in (
        "submitted", "completed", "failed", "duration_s", "throughput_rps",
        "in_flight_high_water")}
    workload["bad_end_states"] = sum(
        1 for (sw, index), value in expected.items()
        if controller.network.switch(sw).registers.get(
            "target").read(index) != value)
    return workload


def _key_round(ctx: TrialContext, sim, kmp, region: str, name: str,
               start: Callable, deadline_s: float):
    """One region-wide key round, ``start(on_done)``, timed in virtual
    time from the KMP's record and failure counts and checked as
    ``<name>_converged``: ``(outcome dict or None if it never resolved,
    check passed)``."""
    done: List[Dict[str, object]] = []
    started = sim.now
    records, failures = len(kmp.stats.records), len(kmp.stats.failures)

    def resolved() -> None:
        done.append({"region": region, "op": name,
                     "duration_s": sim.now - started,
                     "completed": len(kmp.stats.records) - records,
                     "failed": len(kmp.stats.failures) - failures})

    wall_start = time.perf_counter()
    start(resolved)
    sim.run(until=sim.now + deadline_s)
    ctx.host[f"{name}_s"] = time.perf_counter() - wall_start
    if not done:
        ctx.check(f"{name}_converged", False,
                  f"{name} did not resolve within {deadline_s:g} s")
        return None, False
    outcome = done[0]
    ctx.check(f"{name}_converged", not outcome["failed"],
              f"{name}: {outcome['failed']} of "
              f"{outcome['completed'] + outcome['failed']} key operations "
              f"failed")
    return outcome, not outcome["failed"]


def _trial(ctx: TrialContext) -> dict:
    p = ctx.params
    region, m, degree = p["region"], p["m"], p["degree"]
    if region < 0:
        raise ValueError(f"region must be >= 0, got {region}")
    sim, _net, controller, switches = build_batch_deployment(
        "P4Auth", m=m, degree=degree, seed=region_seed(p["seed"], region),
        max_in_flight=p["max_in_flight"], k_seed_base=_k_seed_base(region),
        bootstrap=False, telemetry=ctx.telemetry)
    kmp = controller.kmp
    result: Dict[str, object] = {"switches": m, "links": m * degree // 2}

    result["bootstrap"], keyed = _key_round(
        ctx, sim, kmp, f"r{region}", "bootstrap", kmp.bootstrap_all,
        BOOTSTRAP_DEADLINE_S)
    if not keyed:  # the writes below sign with this round's keys
        return {**result, **ctx.verdict()}
    result["rollover"], _ok = _key_round(
        ctx, sim, kmp, f"r{region}", "rollover", kmp.rollover,
        ROLLOVER_DEADLINE_S)
    off_epoch = [sw for sw in switches if kmp.rollover_epoch(sw) != 1]
    ctx.check("one_epoch_per_switch", not off_epoch,
              f"{len(off_epoch)} switches did not advance exactly one "
              f"rollover epoch: {off_epoch[:3]}")

    wall_start = time.perf_counter()
    workload = _drive_batched_writes(sim, controller, switches,
                                     p["requests_per_switch"],
                                     p["max_in_flight"])
    ctx.host["workload_s"] = time.perf_counter() - wall_start

    divergence = controller.seq_divergence()
    tampering = controller.tamper_indicators()
    for name, ok, detail in [
            ("end_state_is_last_write", not workload["bad_end_states"],
             f"{workload['bad_end_states']} register cells do not hold "
             f"the last value their controller wrote"),
            *honest_load_audit(divergence, tampering)]:
        ctx.check(name, ok, detail)
    return {
        **result,
        "workload": workload,
        "forged_writes": workload["bad_end_states"],
        "seq_divergence_max": max(divergence.values()),
        "seq_divergence_min": min(divergence.values()),
        "tamper_indicators": tampering,
        **ctx.verdict(),
    }


SPEC = register(ExperimentSpec(
    name="fleet_scale",
    title="Fleet domain: bootstrap, rollover, batched C-DP",
    source="§XI (independent domains)",
    trial=_trial,
    grid={"region": [0, 1, 2, 3]},
    defaults={"m": 250, "degree": 4, "requests_per_switch": 2,
              "max_in_flight": 8, "seed": 1},
    short={"m": 500, "region": [0, 1]},
    seed_param="seed",
    spec_version=4,
    tags=("fleet", "kmp", "scalability"),
))
