"""Fleet scale: 10k-switch fabrics with hierarchical KMP (DESIGN.md
"Region-sharded simulation & hierarchical KMP").

Table III stops at m=400 because the whole fabric is one event heap and
one flat KMP.  This experiment is the "production fleet" headline: the
fleet is split into regions (:func:`repro.net.topology.regional_fabric`),
each with its own simulator, network, controller, and
:class:`~repro.core.kmp.RegionalKeyAuthority`, measured two ways —

**Phase A — region-parallel measurement.**  Every region is an
independent world (same graph seed as its slice of the lockstep fabric)
and runs the full production lifecycle: key bootstrap, a fleet rollover,
and a batched C-DP write workload with ground-truth verification (final
register state must equal the last controller-issued value — the
zero-forged-writes check — and controller/DP sequence counters must
agree).  Regions are sharded across OS workers by
:func:`repro.engine.runner.run_region_tasks`, so the *deterministic*
per-region results are byte-identical at any worker count while the wall
clock drops near-linearly — this is the >= 3x bootstrap-speedup
acceptance number.

**Phase B — lockstep boundary consistency.**  The same fleet is built as
one :class:`~repro.net.region.RegionalWorld` with live boundary links,
a :class:`~repro.core.kmp.HierarchicalKMP` bootstraps all regions and
runs one coordinated rollover while (a) boundary probes cross the
inter-region mailbox and (b) authenticated writes land *during* the
rollover window (the two-version key slots must keep them verifiable).
The trial fails a named check — rather than report a good-looking
number — if the cross-region two-version invariant is violated, any
forged-write indicator trips, or sequence counters diverge across a boundary.
"""

from __future__ import annotations

import os
import time
from functools import partial
from typing import Dict, List, Tuple

from repro.core.controller import P4AuthController
from repro.core.kmp import (
    HierarchicalKMP, RegionalKeyAuthority, honest_load_audit, sum_indicators,
)
from repro.dataplane.packet import Packet
from repro.engine.registry import register
from repro.engine.runner import pool_size, run_region_tasks
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.experiments.cdp_batch import (
    attach_fleet_stack,
    build_batch_deployment,
    fleet_switch_factory,
    run_batch_workload,
    tally,
    write_schedule,
)
from repro.net.region import RegionalWorld
from repro.net.topology import region_seed, region_sizes, regional_fabric

#: Virtual-time budget for one region-wide bootstrap (parallel
#: handshakes: a few C-DP RTTs regardless of m).
BOOTSTRAP_DEADLINE_S = 30.0
ROLLOVER_DEADLINE_S = 30.0
#: Probe packets pushed across each boundary link per direction.
BOUNDARY_PROBES = 4


def _k_seed_base(region_index: int) -> int:
    """Each region's K_seeds live in their own 2**20 block."""
    return 0x1000 + (region_index << 20)


def build_fleet_deployment(m: int, regions: int, degree: int = 4,
                           seed: int = 1, max_in_flight: int = 8,
                           boundary_links_per_pair: int = 2,
                           ) -> Tuple[RegionalWorld, Dict[str, object],
                                      HierarchicalKMP,
                                      Dict[str, P4AuthController]]:
    """The lockstep multi-region P4Auth fleet (Phase B / chaos tests)."""
    world, extras = regional_fabric(
        m, regions=regions, degree=degree, seed=seed,
        factory=fleet_switch_factory(seed),
        boundary_links_per_pair=boundary_links_per_pair)
    controllers: Dict[str, P4AuthController] = {}
    authorities: Dict[str, RegionalKeyAuthority] = {}
    for region in world.regions:
        # One region controller, every switch provisioned, keys pending.
        controller = attach_fleet_stack(
            "P4Auth", region.net, region.switches, m, max_in_flight,
            k_seed_base=_k_seed_base(region.index), bootstrap=False)
        controllers[region.id] = controller
        authorities[region.id] = RegionalKeyAuthority(region.id, controller)
    hier = HierarchicalKMP(world, authorities)
    return world, extras, hier, controllers


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


def _region_task(region_id: str, m: int, regions: int, degree: int,
                 seed: int, requests_per_switch: int,
                 max_in_flight: int) -> Dict[str, object]:
    """Phase A: one region's full lifecycle as a standalone world.

    The region's graph is the same slice (size + seed) it gets in the
    lockstep fabric; only the cross-region links are absent, so the
    deterministic outputs are a pure function of the region id and the
    returned ``wall_s`` block is the only nondeterministic part.
    """
    index = int(region_id[1:])
    size = region_sizes(m, regions)[index]
    rseed = region_seed(seed, index)
    sim, _net, controller, switches = build_batch_deployment(
        "P4Auth", m=size, degree=degree, seed=rseed,
        max_in_flight=max_in_flight, k_seed_base=_k_seed_base(index),
        bootstrap=False)
    authority = RegionalKeyAuthority(region_id, controller)

    wall: Dict[str, float] = {}
    convergences: List[object] = []

    wall_start = time.perf_counter()
    authority.bootstrap(on_done=convergences.append)
    sim.run(until=sim.now + BOOTSTRAP_DEADLINE_S)
    wall["bootstrap_s"] = time.perf_counter() - wall_start
    if len(convergences) != 1:
        raise RuntimeError(f"{region_id}: bootstrap did not converge")
    bootstrap = convergences[0]

    wall_start = time.perf_counter()
    authority.rollover(on_done=convergences.append)
    sim.run(until=sim.now + ROLLOVER_DEADLINE_S)
    wall["rollover_s"] = time.perf_counter() - wall_start
    if len(convergences) != 2:
        raise RuntimeError(f"{region_id}: rollover did not converge")
    rollover = convergences[1]

    wall_start = time.perf_counter()
    workload = _drive_batched_writes(sim, controller, switches,
                                     requests_per_switch, max_in_flight)
    wall["workload_s"] = time.perf_counter() - wall_start

    divergence = controller.seq_divergence()
    tampering = controller.tamper_indicators()
    return {
        "region": region_id,
        "switches": size,
        "links": size * degree // 2,
        "bootstrap": bootstrap.as_dict(),
        "rollover": rollover.as_dict(),
        "workload": workload,
        "rollover_epochs_ok": all(
            controller.kmp.rollover_epoch(sw) == 1 for sw in switches),
        "forged_writes": workload["bad_end_states"],
        "seq_divergence_max": max(divergence.values()),
        "seq_divergence_min": min(divergence.values()),
        "tamper_indicators": tampering,
        "wall_s": wall,
    }


def _run_boundary_phase(ctx: TrialContext) -> Dict[str, object]:
    """Phase B: lockstep world, coordinated rollover, invariants."""
    p = ctx.params
    world, extras, hier, controllers = build_fleet_deployment(
        p["m"], p["regions"], degree=p["degree"], seed=p["seed"],
        max_in_flight=p["max_in_flight"])
    bootstrap = hier.bootstrap_fleet(deadline_s=BOOTSTRAP_DEADLINE_S)
    keyed = bootstrap["converged"] and not bootstrap["failed"]
    ctx.check("boundary.bootstrap_converged", keyed,
              f"fleet bootstrap: converged={bootstrap['converged']}, "
              f"{bootstrap['failed']} key operations failed")
    if not keyed:  # the writes below sign with this round's keys
        return {"bootstrap": bootstrap}

    # Both ends of every boundary link, link by link.
    ends = [end for link in world.boundary_links for end in (
        (link.region_a, link.switch_a, link.port_a),
        (link.region_b, link.switch_b, link.port_b))]

    # Push probe packets across every boundary link, both directions, to
    # exercise the inter-region mailbox under the rollover.
    for region_id, switch, port in ends:
        for _ in range(BOUNDARY_PROBES):
            world.region(region_id).net.transmit(switch, port, Packet())
    probes = len(ends) * BOUNDARY_PROBES

    # Authenticated writes issued *into* the rollover window: the
    # two-version key slots must keep every one verifiable.
    write_state, on_write = tally()
    for region_id, switch, _port in ends:
        controllers[region_id].write_register(switch, "target", 0,
                                              0xFEED, on_write)
    writes = len(ends)

    rollover = hier.rollover_fleet(deadline_s=ROLLOVER_DEADLINE_S)
    world.run_until(lambda: world.pending() == 0,
                    deadline=world.now + 1.0)

    # Post-rollover probe writes on every boundary switch: the reg-op
    # replay counters must agree exactly under the *new* keys — the "no
    # permanent seq divergence across region boundaries" check, asserted
    # where a register op has realigned the pair (``must_agree`` below).
    post_state, on_post = tally()
    boundary_switches = sorted({(region_id, switch)
                                for region_id, switch, _port in ends})
    for region_id, switch in boundary_switches:
        controllers[region_id].write_register(switch, "target", 1,
                                              0xD00D, on_post)
    world.run_until(lambda: world.pending() == 0,
                    deadline=world.now + 1.0)

    report = hier.consistency_report()
    off_epoch = [sw for region in world.regions for sw in region.switches
                 if controllers[region.id].kmp.rollover_epoch(sw) != 1]
    for name, ok, detail in [
            ("rollover_converged",
             rollover["converged"] and not rollover["failed"],
             f"fleet rollover: converged={rollover['converged']}, "
             f"{rollover['failed']} key operations failed"),
            ("two_version_invariant", not rollover["boundary_violations"],
             f"{rollover['boundary_violations']} barriers violated the "
             f"two-version invariant: {hier.boundary_violations[:3]}"),
            ("one_epoch_per_switch", not off_epoch,
             f"{len(off_epoch)} switches did not advance exactly one "
             f"rollover epoch: {off_epoch[:3]}"),
            *honest_load_audit(
                hier.seq_divergence(), report["tamper_indicators"],
                must_agree=[switch for _region, switch in boundary_switches]),
            ("writes_in_rollover_window",
             write_state["ok"] == writes and not write_state["failed"],
             f"writes during rollover window: {write_state} of {writes}"),
            ("post_rollover_writes",
             post_state["ok"] == len(boundary_switches)
             and not post_state["failed"],
             f"post-rollover writes: {post_state} of "
             f"{len(boundary_switches)}"),
            ("mailbox_conserved",
             world.mailbox.delivered == world.mailbox.posted,
             f"mailbox: posted={world.mailbox.posted} "
             f"delivered={world.mailbox.delivered}")]:
        ctx.check(f"boundary.{name}", ok, detail)
    return {
        "bootstrap": bootstrap,
        "rollover": rollover,
        "probes_sent": probes,
        "writes_in_window": writes,
        "writes_ok": write_state["ok"],
        "post_rollover_writes_ok": post_state["ok"],
        "consistency": report,
        "world": world.stats(),
    }


def _trial(ctx: TrialContext) -> dict:
    p = ctx.params
    region_ids = [f"r{index}" for index in range(p["regions"])]
    task = partial(_region_task, m=p["m"], regions=p["regions"],
                   degree=p["degree"], seed=p["seed"],
                   requests_per_switch=p["requests_per_switch"],
                   max_in_flight=p["max_in_flight"])
    wall_start = time.perf_counter()
    per_region = run_region_tasks(task, region_ids, workers=p["workers"])
    region_phase_wall_s = time.perf_counter() - wall_start

    detail = []
    wall_by_region = {}
    for region_id in region_ids:
        entry = dict(per_region[region_id])
        wall_by_region[region_id] = entry.pop("wall_s")
        detail.append(entry)

    totals = {
        "switches": sum(entry["switches"] for entry in detail),
        "links": sum(entry["links"] for entry in detail),
        "bootstrap_ops": sum(entry["bootstrap"]["completed"]
                             for entry in detail),
        "bootstrap_failed": sum(entry["bootstrap"]["failed"]
                                for entry in detail),
        "bootstrap_convergence_s": max(entry["bootstrap"]["duration_s"]
                                       for entry in detail),
        "rollover_convergence_s": max(entry["rollover"]["duration_s"]
                                      for entry in detail),
        "workload_completed": sum(entry["workload"]["completed"]
                                  for entry in detail),
        "workload_rps": sum(entry["workload"]["throughput_rps"]
                            for entry in detail),
        "forged_writes": sum(entry["forged_writes"] for entry in detail),
        "seq_divergence_max": max(entry["seq_divergence_max"]
                                  for entry in detail),
        "seq_divergence_min": min(entry["seq_divergence_min"]
                                  for entry in detail),
    }
    # A region's worst divergence stands for its switches: the pool
    # workers return the extremes, not the per-switch map.
    for name, ok, note in [
            ("end_state_is_last_write", not totals["forged_writes"],
             f"{totals['forged_writes']} register cells do not hold the "
             f"last value their controller wrote"),
            *honest_load_audit(
                {entry["region"]: entry["seq_divergence_min"]
                 or entry["seq_divergence_max"] for entry in detail},
                sum_indicators(e["tamper_indicators"] for e in detail))]:
        ctx.check(f"regions.{name}", ok, note)

    boundary = (_run_boundary_phase(ctx)
                if p["regions"] > 1 and p["boundary"] else None)

    # Everything above is deterministic (identical at any worker count);
    # the wall block is the only measured-on-this-host part.
    return {
        "m": p["m"],
        "regions": p["regions"],
        "regions_detail": detail,
        "totals": totals,
        "boundary": boundary,
        "wall": {
            "region_phase_s": round(region_phase_wall_s, 6),
            "workers_effective": pool_size(p["workers"], len(region_ids)),
            # Honest context for the wall numbers: a 1-core host runs
            # the worker pool but cannot show a measured speedup.
            "cpu_count": os.cpu_count(),
            "by_region": wall_by_region,
        },
        **ctx.verdict(),
    }


SPEC = register(ExperimentSpec(
    name="fleet_scale",
    title="Region-sharded fleet: bootstrap, rollover, batched C-DP",
    source="DESIGN: Region-sharded simulation & hierarchical KMP",
    trial=_trial,
    grid={"workers": [1, 4]},
    defaults={"m": 1000, "regions": 4, "degree": 4,
              "requests_per_switch": 2, "max_in_flight": 8,
              "boundary": True, "seed": 1},
    short={"m": 1000, "regions": 2, "workers": [1, 2]},
    seed_param="seed",
    spec_version=2,
    tags=("fleet", "kmp", "scalability", "sharding"),
))
