"""Controller crash + warm restart under the repro.store journal.

The recovery story, end to end: a batched P4Auth deployment journals
its durable state (``repro.store``), the controller process is
SIGKILLed mid-burst at a chosen journal record type
(:class:`~repro.faults.controller.ControllerKillSwitch`), and a fresh
controller warm-restarts from snapshot + journal tail.  The trial then
checks that recovery **re-authenticated rather than bypassed** the
paper's defenses — :func:`repro.core.kmp.honest_load_audit` over the
restarted controller, counted from the restart: *zero forged writes*;
*zero self-inflicted replay/DoS flags* (the skip-ahead sequence rule
means the restarted controller's first messages are accepted, tripping
no replay alert, digest failure or DoS heuristic of its own); and
*sequence agreement* once a post-recovery burst has touched every
switch and quiesced.

Two specs: ``controller_crash_recovery`` (the chaos trial above,
sweeping fleet size and kill point) and ``store_journal_overhead``
(paired same-deployment bursts with the recorder detached vs attached —
the journal adds no *virtual* time, so only a wall measurement can
price it).  Their wall-clock numbers (``recovery_s``; ``wall_off_s``,
``wall_on_s``, ``overhead_pct``) are host readings: they go to
``ctx.host``, which the engine files under ``run_meta``.
"""

from __future__ import annotations

import tempfile
import time
from typing import Callable, Dict, List

from repro.core.controller import P4AuthController
from repro.core.kmp import honest_load_audit
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.experiments.cdp_batch import (
    build_batch_deployment,
    outstanding_budget,
    run_batch_workload,
    tally,
    write_schedule,
)
from repro.faults.controller import ControllerKillSwitch
from repro.runtime.batch import BatchController
from repro.runtime.comparison import bootstrap_local_keys
from repro.store import open_store, warm_restart
from repro.store.journal import RECORD_TYPES
from repro.store.recorder import StateRecorder

#: Virtual seconds the dead controller's in-flight packets get to land
#: before the replacement process comes up.  A real restart takes
#: orders of magnitude longer than a packet RTT; modeling that gap is
#: what keeps late phase-1 traffic from racing the reconciliation reads.
RESTART_GAP_S = 0.05
#: Virtual-time ceiling for each workload phase.
PHASE_DEADLINE_S = 600.0

#: Kill points the crash trial understands: any journal record type,
#: or "time" (a virtual-time trigger mid-burst).
KILL_POINTS = RECORD_TYPES + ("time",)
#: The journal's sequence-horizon stride: small, so horizon crossings
#: (seq_advance records) are frequent enough that a "seq_advance" kill
#: lands mid-burst.
SEQ_STRIDE = 2


def _submit_rounds(batch, switches: List[str], rounds: int,
                   on_done: Callable[[bool, int], None]) -> None:
    """The cdp_batch write schedule through an already-journaled batch
    facade (the caller runs the clock: the kill lands mid-burst)."""
    batch.submit_many([("write", sw, "target", index, value, on_done)
                       for sw, index, value in write_schedule(switches,
                                                              rounds)])


def _crash_trial(ctx: TrialContext) -> Dict[str, object]:
    """One kill→recover cycle over a fresh temporary state directory."""
    if ctx.params["kill_on"] not in KILL_POINTS:
        raise ValueError(f"kill_on must be one of {KILL_POINTS}")
    with tempfile.TemporaryDirectory(prefix="repro-store-") as state_dir:
        return _kill_and_recover(ctx, state_dir)


def _kill_and_recover(ctx: TrialContext,
                      state_dir: str) -> Dict[str, object]:
    params, telemetry = ctx.params, ctx.telemetry
    m = int(params["m"])
    kill_on = str(params["kill_on"])
    fsync = str(params["fsync"])
    max_in_flight = int(params["max_in_flight"])
    rounds = int(params["requests_per_switch"])
    rollover = kill_on in ("key_rollover", "epoch_advance")
    sim, net, controller, switches = build_batch_deployment(
        "P4Auth", m=m, degree=int(params["degree"]),
        seed=int(params["seed"]), telemetry=telemetry,
        max_in_flight=max_in_flight)
    metrics = telemetry.metrics if telemetry.enabled else None

    # Arm the durability layer on the bootstrapped controller.
    journal, snapshots, _records = open_store(state_dir, fsync=fsync,
                                              metrics=metrics)
    batch = BatchController(controller, max_in_flight=max_in_flight)
    recorder = StateRecorder(
        journal, snapshots,
        seq_stride=SEQ_STRIDE, snapshot_every=params["snapshot_every"])

    kill = ControllerKillSwitch(net, recorder)
    # key_install and shard_map records only occur while attach()
    # journals the bootstrapped state, so those kill points arm before
    # attach (crash during durability bring-up); the rest arm after, so
    # the kill lands mid-workload.
    if kill_on in ("key_install", "shard_map"):
        kill.arm_on_record(kill_on,
                           occurrence=int(params["occurrence"]))
    recorder.attach(controller, batch=batch, shard_id="shard-0")
    if kill_on == "time":
        kill.arm_at(float(params["kill_delay_s"]))
    elif kill_on not in ("key_install", "shard_map"):
        kill.arm_on_record(kill_on,
                           occurrence=int(params["occurrence"]))

    # ---- phase 1: burst until the kill fires -------------------------
    phase1, on_phase1 = tally()
    if kill.kills == 0:
        _submit_rounds(batch, switches, rounds, on_phase1)
        if rollover and kill.kills == 0:
            controller.kmp.rollover()
        sim.run(until=sim.now + PHASE_DEADLINE_S)
    if kill.kills == 0:
        # The workload drained before the trigger matched (e.g. a
        # record type this workload never emits): kill now, mid-idle.
        kill.kill()
    # The restart gap: in-flight phase-1 packets land and drop.
    sim.run(until=sim.now + RESTART_GAP_S)
    lost_in_flight = batch.in_flight() + batch.queued()
    defenses_before = controller.tamper_indicators()

    # ---- recovery ----------------------------------------------------
    dataplanes = list(controller.dataplanes.values())
    wall_start = time.perf_counter()
    controller2 = P4AuthController(
        net, outstanding_threshold=outstanding_budget(m, max_in_flight))
    for dataplane in dataplanes:
        controller2.provision(dataplane)
    batch2 = BatchController(controller2, max_in_flight=max_in_flight)
    recorder2, report = warm_restart(
        state_dir, controller2, batch=batch2, shard_id="shard-0",
        fsync=fsync, seq_stride=SEQ_STRIDE,
        metrics=metrics)
    ctx.host["recovery_s"] = time.perf_counter() - wall_start
    # Reconciliation reads complete in virtual time.
    sim.run(until=sim.now + RESTART_GAP_S)

    # Switches whose key material did not survive (crash during
    # durability bring-up) fall back to a fresh KMP bootstrap — the
    # cold path warm restart exists to avoid, but always available.
    rebootstrapped = [sw for sw in switches
                      if not controller2.keys.has_local_key(sw)]
    if rebootstrapped:
        bootstrap_local_keys(controller2, rebootstrapped, 10.0)

    # ---- phase 2: prove the fleet is fully usable --------------------
    phase2, on_phase2 = tally()
    _submit_rounds(batch2, switches, rounds, on_phase2)
    sim.run(until=sim.now + PHASE_DEADLINE_S)

    divergence = controller2.seq_divergence()
    defenses_after = controller2.tamper_indicators()
    defense_trips = {key: defenses_after[key] - defenses_before[key]
                     for key in ("replays_detected", "digest_fail_cdp",
                                 "digest_fail_dpdp", "alerts_raised")}
    result = {
        "m": m,
        "kill_on": kill_on,
        "fsync": fsync,
        "killed_at_record": (kill.kill_record.type
                             if kill.kill_record is not None else None),
        "phase1_completed": phase1["ok"],
        "lost_in_flight": lost_in_flight,
        "snapshot_used": report.snapshot_used,
        "replayed_records": report.replayed_records,
        "torn_records": report.torn_records,
        "switches_restored": report.switches_restored,
        "windows_open_at_crash": len(report.windows),
        "windows_reconciled": report.windows_reconciled,
        "rebootstrapped": len(rebootstrapped),
        "phase2_completed": phase2["ok"],
        "phase2_failed": phase2["failed"],
        "forged_writes": sum(1 for v in divergence.values() if v < 0),
        "seq_divergence_max": max(divergence.values(), default=0),
        "seq_divergence_min": min(divergence.values(), default=0),
        "replay_trips": defense_trips["replays_detected"],
        "digest_fail_trips": (defense_trips["digest_fail_cdp"]
                              + defense_trips["digest_fail_dpdp"]),
        "alert_trips": defense_trips["alerts_raised"],
        "dos_suspected": controller2.stats.dos_suspected,
        "unsolicited_nacks": controller2.stats.unsolicited_nacks,
    }
    recorder2.detach()
    for check in honest_load_audit(divergence, defenses_after,
                                   before=defenses_before):
        ctx.check(*check)
    ctx.check("dos_heuristic_quiet", not result["dos_suspected"],
              f"restarted controller: dos_suspected={result['dos_suspected']}")
    ctx.check("post_recovery_workload_complete", phase2["ok"] == m * rounds,
              f"post-recovery workload: {phase2['ok']}/{m * rounds} "
              f"completed, {phase2['failed']} failed")
    return {**result, **ctx.verdict()}


def _overhead_trial(ctx: TrialContext) -> Dict[str, object]:
    """Journal-off vs journal-on wall clock over the same deployment.

    The two arms run interleaved bursts over one fleet (identical
    virtual behaviour — the journal consumes no virtual time) and the
    per-arm minimum over ``rounds`` repetitions is compared, which
    cancels host noise the way the paired design in bench_cdp_batch
    does.
    """
    params = ctx.params
    m = int(params["m"])
    fsync = str(params["fsync"])
    max_in_flight = int(params["max_in_flight"])
    per_switch = int(params["requests_per_switch"])
    repeats = int(params["repeats"])
    sim, _net, controller, switches = build_batch_deployment(
        "P4Auth", m=m, degree=int(params["degree"]),
        seed=int(params["seed"]), telemetry=ctx.telemetry,
        max_in_flight=max_in_flight)
    with tempfile.TemporaryDirectory(prefix="repro-store-") as state_dir:
        journal, snapshots, _ = open_store(state_dir, fsync=fsync)
        recorder = StateRecorder(journal, snapshots)

        def burst() -> float:
            started = time.perf_counter()
            result = run_batch_workload(
                sim, controller, switches, mode="batched",
                requests_per_switch=per_switch,
                max_in_flight=max_in_flight)
            wall = time.perf_counter() - started
            if result["completed"] != result["submitted"]:
                # Not a check: a cut-short burst has no wall time.
                raise RuntimeError("overhead burst did not drain")
            return wall

        burst()  # warm-up: JIT-less, but caches/allocators settle
        off_walls: List[float] = []
        on_walls: List[float] = []
        for _ in range(repeats):
            off_walls.append(burst())
            recorder.attach(controller)
            on_walls.append(burst())
            recorder.detach()
        journal.close()
        off = min(off_walls)
        on = min(on_walls)
        ctx.host.update(
            wall_off_s=off, wall_on_s=on,
            overhead_pct=((on - off) / off * 100.0) if off > 0 else 0.0)
        return {
            "m": m,
            "fsync": fsync,
            "requests": m * per_switch,
            "journal_records": journal.next_lsn,
        }


SPEC = register(ExperimentSpec(
    name="controller_crash_recovery",
    title="Controller crash + warm restart from the write-ahead journal",
    source="DESIGN: Durability & warm restart",
    trial=_crash_trial,
    grid={"kill_on": ["seq_advance", "batch_open", "key_rollover"],
          "m": [25, 100]},
    defaults={"degree": 4, "requests_per_switch": 4, "max_in_flight": 8,
              "fsync": "batch", "occurrence": 1, "kill_delay_s": 0.002,
              "snapshot_every": None, "seed": 1},
    short={"kill_on": ["seq_advance"], "m": [9]},
    seed_param="seed",
    spec_version=3,
    tags=("chaos", "store", "recovery"),
))

OVERHEAD_SPEC = register(ExperimentSpec(
    name="store_journal_overhead",
    title="Steady-state journal overhead vs no-journal baseline",
    source="DESIGN: Durability & warm restart",
    trial=_overhead_trial,
    grid={"fsync": ["batch", "always"]},
    defaults={"m": 25, "degree": 4, "requests_per_switch": 8,
              "max_in_flight": 8, "repeats": 3, "seed": 1},
    short={"fsync": ["batch"], "m": 9, "repeats": 2},
    seed_param="seed",
    spec_version=2,
    tags=("store", "perf"),
))
