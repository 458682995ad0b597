"""Fig 16: P4Auth prevents traffic imbalance in RouteScout.

Three runs over the same synthetic CAIDA-like trace:

1. ``baseline`` — no adversary (DP-Reg-RW stack): the controller splits
   traffic by measured per-path latency (~64% on the lower-latency path).
2. ``attack`` — a compromised-OS adversary inflates path-1's latency in
   read responses from ``attack_start_s`` on: the controller shifts ~70%
   of traffic onto path 2.
3. ``p4auth`` — same adversary against the authenticated stack: tampered
   responses fail verification, the controller retains the pre-attack
   split, and alerts are raised.
"""

from __future__ import annotations

from repro.attacks.control_plane import RegisterResponseTamperer
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.net.trace import TraceGenerator
from repro.systems.routescout import (
    RouteScoutController,
    RouteScoutDataplane,
    make_rs_packet,
)
from repro.systems.tableone import MODES, build_deployment

#: How much the adversary inflates the reported path-1 latency aggregate.
TAMPER_FACTOR = 6


def _trial(ctx: TrialContext) -> dict:
    """Run one Fig 16 scenario and report the per-path traffic shares."""
    p = ctx.params
    mode, seed = p["mode"], p["seed"]
    duration_s, attack_start_s = p["duration_s"], p["attack_start_s"]
    sim = EventSimulator(telemetry=ctx.telemetry)
    net = Network(sim)
    switch = DataplaneSwitch("edge", num_ports=3, seed=seed)
    net.add_switch(switch)
    routescout = RouteScoutDataplane(switch).install()

    # Control stack: authenticated or plain, per mode.
    client, _dataplane = build_deployment(mode, switch, net, sim,
                                          k_seed=0x5EC11E7)

    controller = RouteScoutController(client, sim, "edge", epoch_s=1.0)
    controller.start()

    # All experiment times are relative to "base": key initialization (in
    # p4auth mode) has already consumed some simulated time.
    base = sim.now

    # The adversary arrives mid-experiment (the paper's "retains the
    # original ratio" needs an established pre-attack ratio).
    if mode in ("attack", "p4auth"):
        lat_sum_id = switch.registers.id_of("rs_lat_sum")
        adversary = RegisterResponseTamperer(
            targets=[(lat_sum_id, 0)],
            transform=lambda value: value * TAMPER_FACTOR,
        )
        channel = net.control_channels["edge"]
        sim.schedule(attack_start_s, adversary.attach, channel)

    # Snapshot the per-path counters when the attack begins, so shares
    # can be reported for the attack window (the steady state Fig 16
    # plots) as well as overall.
    snapshot = {}
    sim.schedule(attack_start_s,
                 lambda: snapshot.update(routescout.tx_per_path))

    # Synthetic CAIDA-like traffic: heavy-tailed flows, Poisson arrivals.
    generator = TraceGenerator(seed=seed, arrival_rate_hz=p["flow_rate_hz"])
    node = net.nodes["edge"]
    for flow in generator.flows(duration_s):
        packets = min(flow.packet_count(), p["max_packets_per_flow"])
        for index in range(packets):
            at = flow.start_time + index * p["packet_spacing_s"]
            if at >= duration_s:
                break
            sim.schedule_at(base + at, node.receive,
                            make_rs_packet(flow.dst_ip, flow.flow_id), 1)

    sim.run(until=base + duration_s)
    controller.stop()

    total = sum(routescout.tx_per_path.values()) or 1
    window = {
        path: routescout.tx_per_path[path] - snapshot.get(path, 0)
        for path in (0, 1)
    }
    window_total = sum(window.values()) or 1
    authenticated = mode == "p4auth"
    return {
        "mode": mode,
        # Shares over the attack window [attack_start_s, duration_s]:
        # the steady state Fig 16 plots.
        "share_path1": window[0] / window_total,
        "share_path2": window[1] / window_total,
        # Shares over the whole run, including the pre-attack phase.
        "overall_share_path1": routescout.tx_per_path[0] / total,
        "overall_share_path2": routescout.tx_per_path[1] / total,
        "split_history": list(controller.split_history),
        "epochs_skipped": controller.epochs_skipped,
        "tamper_events": len(client.tamper_events) if authenticated else 0,
        "alerts": len(client.alerts) if authenticated else 0,
        "packets_forwarded": routescout.forwarded,
    }


SPEC = register(ExperimentSpec(
    name="fig16",
    title="RouteScout traffic distribution",
    source="Fig 16",
    trial=_trial,
    grid={"mode": list(MODES)},
    defaults={"duration_s": 60.0, "seed": 42, "flow_rate_hz": 40.0,
              "attack_start_s": 10.0, "max_packets_per_flow": 60,
              "packet_spacing_s": 0.002},
    short={"duration_s": 8.0, "attack_start_s": 2.0},
    seed_param="seed",
    tags=("figure", "defense"),
    claims=(
        claim("traffic_split", "delay-driven split; ~70 % on path 2 under "
              "attack; with P4Auth the split is kept and tampering detected",
              lambda run: run.by("mode", MODES, duration_s=60.0,
                                 attack_start_s=10.0),
              lambda r: r["baseline"]["share_path1"] > 0.55
              and r["attack"]["share_path2"] > 0.6
              and abs(r["p4auth"]["share_path1"]
                      - r["baseline"]["share_path1"]) < 0.05
              and r["p4auth"]["tamper_events"] > 0,
              "path 2: {0[baseline][share_path2]:.1%} / {0[attack]"
              "[share_path2]:.1%} / {0[p4auth][share_path2]:.1%}"),
    ),
))
