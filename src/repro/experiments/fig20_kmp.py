"""Fig 20: key management protocol round-trip times.

Measures the four KMP operations on a two-switch deployment, repeating
each for statistical stability.  Port-key init is the slowest (its ADHKD
legs are redirected through the controller, which verifies digests in
both directions); port-key update beats local-key update despite
exchanging more messages (DP-DP hops are much faster than C-DP hops).
"""

from __future__ import annotations

from typing import Dict, List

from repro.dataplane.switch import DataplaneSwitch
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.comparison import attach_stack

OPS = ("local_init", "local_update", "port_init", "port_update")


def _trial(ctx: TrialContext) -> dict:
    """Collect RTT samples for all four KMP operations.

    A traced run's ``ctx.telemetry`` aggregates ``kmp_rtt_seconds`` and
    ``kmp.exchange`` trace events across every deployment built here.
    """
    repeats, seed = ctx.params["repeats"], ctx.params["seed"]
    telemetry = ctx.telemetry
    # op -> list of RTT seconds.
    rtts: Dict[str, List[float]] = {}

    # local_init needs a fresh switch each time (K_local must be unset),
    # so it gets its own deployments.
    samples: List[float] = []
    for run in range(repeats):
        sim = EventSimulator(telemetry=telemetry)
        net = Network(sim)
        switch = DataplaneSwitch("s1", num_ports=2, seed=seed + run)
        net.add_switch(switch)
        controller, _dataplanes = attach_stack(
            "P4Auth", net, ["s1"], (), {"s1": 0x11 + run}, None)
        controller.kmp.local_key_init("s1")
        sim.run(until=0.1)
        samples.extend(controller.kmp.stats.rtts("local_init"))
    rtts["local_init"] = samples

    # The other three run on one two-switch deployment.
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    for index, name in enumerate(("s1", "s2")):
        net.add_switch(DataplaneSwitch(name, num_ports=2,
                                       seed=seed * 7 + index))
    net.connect("s1", 1, "s2", 1)
    controller, _dataplanes = attach_stack(
        "P4Auth", net, ["s1", "s2"], (), {"s1": 0x21, "s2": 0x22}, None)
    controller.kmp.bootstrap_all()
    sim.run(until=0.5)

    for _ in range(repeats):
        controller.kmp.local_key_update("s1")
        sim.run(until=sim.now + 0.05)
        controller.kmp.port_key_update("s1", 1)
        sim.run(until=sim.now + 0.05)
        controller.kmp.port_key_init("s1", 1)
        sim.run(until=sim.now + 0.05)

    stats = controller.kmp.stats
    rtts["local_update"] = stats.rtts("local_update")
    rtts["port_update"] = stats.rtts("port_update")
    # Drop the bootstrap's port_init sample? Keep it — same cost shape.
    rtts["port_init"] = stats.rtts("port_init")

    return {
        "rtts": rtts,
        # op -> (messages, bytes) per single operation (Table III columns).
        "footprint": {op: (4, 104) if op == "local_init"
                      else (stats.message_count(op), stats.byte_count(op))
                      for op in OPS},
        "mean_ms": {op: sum(rtts[op]) / len(rtts[op]) * 1e3 for op in OPS},
    }


SPEC = register(ExperimentSpec(
    name="fig20",
    title="Key management protocol RTT",
    source="Fig 20",
    trial=_trial,
    defaults={"repeats": 20, "seed": 3},
    short={"repeats": 3},
    seed_param="seed",
    tags=("figure", "kmp"),
    claims=(
        claim("rtt_ordering", "init 1-2 ms, port-key init the longest; "
              "updates < 1 ms, port-key update the faster",
              lambda run: run.result_for()["mean_ms"],
              lambda ms: 1.0 <= ms["local_init"] <= 2.0
              and ms["port_init"] > ms["local_init"]
              and ms["port_update"] < ms["local_update"] < 1.0,
              "init {0[local_init]:.3f} / {0[port_init]:.3f} ms, update "
              "{0[local_update]:.3f} / {0[port_update]:.3f} ms"),
    ),
))
