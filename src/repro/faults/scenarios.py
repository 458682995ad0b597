"""Chaos scenarios: seeded workloads run under a fault plan, with
invariants checked at the end.

Each scenario is one registered :class:`~repro.engine.spec.ExperimentSpec`
(``python -m repro run <name>``): its trial function derives the
schedule from ``(params, seed)``, builds a deployment, arms a
:class:`~repro.faults.injector.FaultInjector` with that plan, drives a
workload, and states each invariant through ``ctx.check`` — the
behaviour the paper promises even under fault (a failed check fails the
run):

- ``kmp-blackout`` — KMP operations issued into a controller-channel
  blackout are *abandoned* (bounded retries, not a silent hang) and the
  deployment re-converges once the channel returns.
- ``crash-restart`` — a switch crash wipes its key registers; requests in
  the window surface terminal failures, and after restart + re-keying
  authenticated writes succeed again.
- ``lossy-fig17`` — the Fig 17 HULA workload under 5% loss + reorder with
  live C-DP and DP-DP adversaries: zero forged state mutations land, the
  probe-tampered path attracts no traffic, delivery stays within the
  degradation envelope, and KMP re-converges within the event budget.

Everything is seeded; two runs with the same seed produce byte-identical
telemetry traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.attacks.control_plane import RegisterRequestTamperer, ReplayAttacker
from repro.attacks.personas import GroundTruthSampler
from repro.core.constants import REG_OP
from repro.dataplane.switch import DataplaneSwitch
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.experiments.fig17_hula import (
    fig3_hula_world,
    protect_probes,
    s1_share_meter,
    start_fig3_traffic,
    tamper_s4_probes,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import ChannelBlackout, FaultPlan, LinkFault, NodeFault
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.comparison import attach_stack, k_seeds_from


def _chaos_result(ctx: TrialContext, metrics: Dict[str, float]) -> dict:
    """A chaos trial's result: its verdict plus the headline numbers."""
    return {"scenario": ctx.params["scenario"], "seed": ctx.seed,
            **ctx.verdict(), "metrics": metrics}


def _keyed_chain(count: int, reg_name: str, telemetry,
                 request_timeout_s: Optional[float] = None):
    """``count`` P4Auth switches ``s1..`` in a chain, each exposing one
    64x8 register, keys bootstrapped by 0.1 s: ``(net, controller,
    bootstrapped)`` with ``bootstrapped`` holding the completion time."""
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    names = [f"s{index}" for index in range(1, count + 1)]
    for index, name in enumerate(names, start=1):
        switch = DataplaneSwitch(name, num_ports=4, seed=1000 + index)
        net.add_switch(switch)
        switch.registers.define(reg_name, 64, 8)
    for name_a, name_b in zip(names, names[1:]):
        net.connect(name_a, 1, name_b, 1)
    controller, _dataplanes = attach_stack(
        "P4Auth", net, names, [reg_name],
        k_seeds_from(0xBEE0 + 1, names), None,
        request_timeout_s=request_timeout_s)
    bootstrapped: List[float] = []
    controller.kmp.bootstrap_all(
        on_done=lambda: bootstrapped.append(sim.now))
    sim.run(until=0.1)
    return net, controller, bootstrapped


def _blackout_plan(params, seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, blackouts=[
        ChannelBlackout("s1", start_s=0.2, end_s=0.5),
        ChannelBlackout("s2", start_s=0.2, end_s=0.5),
    ])


def _kmp_blackout(ctx: TrialContext) -> dict:
    """Key rollover issued into a control-channel blackout."""
    duration = ctx.params["duration_s"]
    net, controller, bootstrapped = _keyed_chain(2, "demo", ctx.telemetry)
    sim, kmp = net.sim, controller.kmp
    injector = FaultInjector(
        net, _blackout_plan(ctx.params, ctx.seed)).arm()

    # Roll both local keys mid-blackout: every message is eaten, so
    # the bounded-retry machinery must abandon, not hang.
    sim.schedule(0.25 - sim.now, kmp.local_key_update, "s1")
    sim.schedule(0.25 - sim.now, kmp.local_key_update, "s2")
    # Re-issue after the channel returns.
    sim.schedule(0.8 - sim.now, kmp.local_key_update, "s1")
    sim.schedule(0.8 - sim.now, kmp.local_key_update, "s2")
    sim.run(until=duration, max_events=200_000)
    injector.disarm()

    write_results: List[bool] = []
    for switch in ("s1", "s2"):
        controller.write_register(
            switch, "demo", 0, 0x600D,
            callback=lambda ok, _v: write_results.append(ok))
    sim.run(until=duration + 0.2, max_events=50_000)

    ctx.check("bootstrap_completed", bool(bootstrapped))
    ctx.check("blackout_injected",
              injector.stats.count("blackout") > 0,
              f"{injector.stats.count('blackout')} messages eaten")
    ctx.check("ops_abandoned_not_hung",
              len(kmp.stats.failures) == 2,
              f"{len(kmp.stats.failures)} abandoned (expected 2)")
    ctx.check("kmp_reconverged",
              kmp.stats.count("local_update") == 2,
              f"{kmp.stats.count('local_update')} rollovers completed")
    ctx.check("no_dangling_exchanges",
              not kmp._by_seq and not kmp._by_port)
    ctx.check("writes_ok_after_blackout",
              write_results == [True, True], f"{write_results}")
    ctx.check("within_event_budget", sim.budget_exhaustions == 0)
    return _chaos_result(ctx, {
        "events_executed": sim.events_executed,
        "blackout_drops": injector.stats.count("blackout"),
        "kmp_failures": len(kmp.stats.failures),
        "kmp_retries": kmp.stats.retries,
    })


def _crash_plan(params, seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, node_faults=[
        NodeFault("s1", crash_at_s=0.3, restart_at_s=0.5,
                  wipe_registers=True),
    ])


def _crash_restart(ctx: TrialContext) -> dict:
    """Switch crash with register wipe, then restart and re-key."""
    duration = ctx.params["duration_s"]
    net, controller, bootstrapped = _keyed_chain(
        1, "chaos", ctx.telemetry, request_timeout_s=0.05)
    sim = net.sim
    injector = FaultInjector(net, _crash_plan(ctx.params, ctx.seed)).arm()
    rekeyed: List[float] = []
    injector.on_node_restart.append(
        lambda switch: controller.kmp.local_key_init(
            switch,
            on_done=lambda r: r.ok and rekeyed.append(sim.now)))

    outcomes: Dict[str, Optional[bool]] = {
        "before": None, "during": None, "after": None}

    def write(label: str, value: int) -> None:
        controller.write_register(
            "s1", "chaos", 0, value,
            callback=lambda ok, _v, key=label: outcomes.__setitem__(
                key, ok))

    sim.schedule(0.15 - sim.now, write, "before", 0x1111)
    sim.schedule(0.35 - sim.now, write, "during", 0x2222)
    sim.schedule(0.7 - sim.now, write, "after", 0x3333)
    sim.run(until=duration, max_events=100_000)
    injector.disarm()

    final_value = net.switch("s1").registers.get("chaos").read(0)
    ctx.check("bootstrap_completed", bool(bootstrapped))
    ctx.check("write_before_crash_ok", outcomes["before"] is True)
    ctx.check("write_during_crash_fails_terminally",
              outcomes["during"] is False,
              f"outcome={outcomes['during']} (None = silent hang)")
    ctx.check("rekeyed_after_restart", bool(rekeyed))
    ctx.check("write_after_restart_ok", outcomes["after"] is True)
    ctx.check("register_holds_post_restart_value",
              final_value == 0x3333, f"value={final_value:#x}")
    ctx.check("abandonment_counted",
              controller.stats.requests_abandoned == 1,
              f"{controller.stats.requests_abandoned} abandoned")
    ctx.check("within_event_budget", sim.budget_exhaustions == 0)
    return _chaos_result(ctx, {
        "events_executed": sim.events_executed,
        "request_retries": controller.stats.request_retries,
        "requests_abandoned": controller.stats.requests_abandoned,
        "rekey_time_s": rekeyed[0] if rekeyed else -1.0,
    })


def _lossy_plan(params, seed: int) -> FaultPlan:
    """5% loss + 5% reorder on every link, whole run."""
    return FaultPlan(seed=seed, link_faults=[
        LinkFault("drop", probability=0.05, start_s=0.1,
                  end_s=params["duration_s"]),
        LinkFault("reorder", probability=0.05, delay_s=2e-4,
                  start_s=0.1, end_s=params["duration_s"]),
    ])


def _lossy_fig17(ctx: TrialContext) -> dict:
    """Fig 17 HULA workload under 5% loss + reorder with live adversaries."""
    duration = ctx.params["duration_s"]
    grace = 0.5
    net, extras, hulas = fig3_hula_world(ctx.telemetry)
    sim = extras["sim"]
    # The adversary's target register, defined before provisioning so
    # the controller's p4info covers it.
    net.switch("s4").registers.define("chaos_reg", 64, 4)
    controller, dataplanes = protect_probes(net, hulas, 0xAB00,
                                            request_timeout_s=0.05)
    dataplanes["s4"].map_register("chaos_reg")
    bootstrapped: List[float] = []
    controller.kmp.bootstrap_all(
        on_done=lambda: bootstrapped.append(sim.now))
    sim.run(until=0.1)

    injector = FaultInjector(net, _lossy_plan(ctx.params, ctx.seed)).arm()

    # --- adversaries: DP-DP probe tamper, C-DP write tamper + replay ---
    probe_tamperer = tamper_s4_probes(net)
    chaos_reg_id = controller.register_id("s4", "chaos_reg")
    replayer = ReplayAttacker(
        lambda p: p.has(REG_OP) and p.get(REG_OP)["regId"] == chaos_reg_id)
    replayer.attach(net.control_channels["s4"])
    write_tamperer = RegisterRequestTamperer(
        chaos_reg_id, transform=lambda v: v ^ 0xDEAD)
    write_tamperer.attach(net.control_channels["s4"])

    # --- workload: Fig 17 probes + data, plus periodic C-DP writes -----
    issued = [0x1000 + k for k in range(64)]
    allowed = {0} | set(issued)

    def send_write(k: int = 0) -> None:
        if sim.now >= duration:
            return
        controller.write_register("s4", "chaos_reg", 0, issued[k % 64])
        sim.schedule(0.1, send_write, k + 1)

    # Ground truth: sample the target register straight out of the
    # simulated ASIC; a forged write would show up here even if every
    # counter lied.
    sampler = GroundTruthSampler(sim, net.switch("s4"), "chaos_reg",
                                 allowed)

    # KMP churn under loss: periodic rollover of local and port keys.
    controller.kmp.schedule_rollover(1.0)
    start_fig3_traffic(sim, extras, duration)
    sim.schedule(0.2 - sim.now, send_write)
    sim.schedule(0.15 - sim.now, sampler.start, duration + grace)
    # Mid-chaos replay burst of the recorded (validly signed) writes.
    sim.schedule(duration / 2, replayer.replay, net, "s4", 8)
    sim.schedule(duration / 2, replayer.replay, net, "s4", 8)
    # Traffic shares after a 0.5 s warmup (as in fig17).
    shares = s1_share_meter(sim, hulas["s1"], extras["paths"], 0.5)
    sim.run(until=duration, max_events=2_000_000)

    # Chaos over: withdraw faults and adversaries, re-converge.
    injector.disarm()
    controller.kmp.cancel_rollover()
    probe_tamperer.detach_all()
    write_tamperer.detach_all()
    replayer.detach_all()
    clean_write: List[bool] = []
    controller.write_register(
        "s4", "chaos_reg", 0, 0x600D,
        callback=lambda ok, _v: clean_write.append(ok))
    allowed.add(0x600D)
    sim.run(until=duration + grace, max_events=500_000)

    s4_stats = dataplanes["s4"].stats
    s4_share = shares()["s4"]
    delivered = len(extras["h5"].received) / (extras["h1"].sent_count or 1)
    samples = sampler.samples
    forged = sampler.forged()
    kmp = controller.kmp

    ctx.check("bootstrap_completed", bool(bootstrapped))
    ctx.check("faults_injected", injector.stats.total() > 0,
              f"{injector.stats.total()} injections")
    ctx.check("writes_tampered", write_tamperer.stats.modified > 0,
              f"{write_tamperer.stats.modified} rewritten in flight")
    ctx.check("zero_forged_writes_landed", not forged,
              f"{len(forged)} forged values observed in "
              f"{len(samples)} samples")
    ctx.check("tampered_writes_rejected",
              s4_stats.digest_fail_cdp > 0,
              f"{s4_stats.digest_fail_cdp} C-DP digest failures")
    ctx.check("replays_rejected",
              replayer.stats.injected > 0
              and s4_stats.replays_detected > 0,
              f"{replayer.stats.injected} injected, "
              f"{s4_stats.replays_detected} detected")
    ctx.check("compromised_path_not_attracted", s4_share < 0.34,
              f"s4 share {s4_share:.2f}")
    ctx.check("delivery_within_envelope", delivered >= 0.75,
              f"{delivered:.2%} delivered under 5% loss + reorder")
    ctx.check("kmp_reconverged",
              not kmp._by_seq and not kmp._by_port,
              f"{len(kmp._by_seq)}+{len(kmp._by_port)} dangling")
    ctx.check("clean_write_after_chaos", clean_write == [True],
              f"{clean_write}")
    ctx.check("within_event_budget", sim.budget_exhaustions == 0,
              f"{sim.events_executed} events")
    return _chaos_result(ctx, {
        "events_executed": sim.events_executed,
        "fault_injections": injector.stats.total(),
        "drops_injected": injector.stats.count("drop"),
        "reorders_injected": injector.stats.count("reorder"),
        "s4_share": round(s4_share, 4),
        "delivery_ratio": round(delivered, 4),
        "kmp_retries": kmp.stats.retries,
        "kmp_failures": len(kmp.stats.failures),
        "digest_fail_cdp": s4_stats.digest_fail_cdp,
        "replays_detected": s4_stats.replays_detected,
        "requests_abandoned": controller.stats.requests_abandoned,
    })


def _register_chaos(name: str, title: str, trial, duration_s: float) -> None:
    register(ExperimentSpec(
        name=name,
        title="Chaos: " + title,
        source="chaos",
        trial=trial,
        defaults={"scenario": name, "seed": 1, "duration_s": duration_s},
        seed_param="seed",
        tags=("chaos",),
    ))


_register_chaos("kmp-blackout", "Blackout both control channels",
                _kmp_blackout, 1.5)
_register_chaos("crash-restart",
                "Crash a switch (wiping its key registers) mid-write",
                _crash_restart, 1.0)
_register_chaos("lossy-fig17", "HULA Fig 17 workload under 5% loss + reorder",
                _lossy_fig17, 3.0)
