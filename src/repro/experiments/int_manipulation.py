"""INT manipulation experiment (the secINT scenario the paper cites).

A 4-switch INT chain where hop 2 is congested (200 µs hop latency, deep
queue).  A MitM on the link after hop 2 rewrites the accumulated records
to report a healthy path.  Modes:

- ``baseline``: the collector sees the congestion.
- ``attack``: the collector sees a healthy path — telemetry blind spot.
- ``p4auth``: the INT probe is DP-DP protected; the switch after the
  MitM drops the rewritten probe and alerts.  The collector receives
  fewer probes, but every one it does receive is truthful.
"""

from __future__ import annotations

import struct

from repro.attacks.base import Adversary
from repro.core.auth_dataplane import P4AuthConfig
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.net.topology import linear_chain
from repro.runtime.comparison import attach_stack, k_seeds_from
from repro.systems.int_telemetry import (
    RECORD_BYTES,
    RECORD_FORMAT,
    IntCollector,
    IntConfig,
    IntTelemetryDataplane,
    make_int_probe,
)
from repro.systems.tableone import MODES, check_mode

CONGESTED_HOP = 2
CONGESTED_LATENCY_US = 200
HEALTHY_LATENCY_US = 20


class RecordRewriter(Adversary):
    """Rewrites congested INT records to look healthy (hides hotspots)."""

    def __init__(self, direction_filter=None):
        super().__init__("int-rewriter", direction_filter)

    def process(self, packet, direction):
        if not packet.has("int_probe"):
            return packet
        payload = bytearray(packet.payload)
        touched = False
        for offset in range(0, len(payload) - len(payload) % RECORD_BYTES,
                            RECORD_BYTES):
            switch_id, latency, _queue, port = struct.unpack_from(
                RECORD_FORMAT, payload, offset)
            if latency > 100:
                struct.pack_into(RECORD_FORMAT, payload, offset,
                                 switch_id, HEALTHY_LATENCY_US, 2, port)
                touched = True
        if touched:
            packet.payload = bytes(payload)
            self.stats.modified += 1
        return packet


def _trial(ctx: TrialContext) -> dict:
    p = ctx.params
    mode, num_switches = p["mode"], p["num_switches"]
    num_probes, spacing_s = p["num_probes"], p["spacing_s"]
    check_mode(mode)
    net, extras = linear_chain(num_switches, telemetry=ctx.telemetry)
    sim = extras["sim"]

    # Hop 2 is congested for even flow ids (bursty congestion), healthy
    # otherwise; every other hop is always healthy.
    def hop_latency(index):
        def fn(_now, flow_id):
            if index == CONGESTED_HOP and flow_id % 2 == 0:
                return CONGESTED_LATENCY_US
            return HEALTHY_LATENCY_US
        return fn

    for index, name in enumerate(extras["switches"], start=1):
        config = IntConfig(
            switch_id=index,
            routes={1: 2 if index < num_switches else None},
            collector_port=2,
            latency_us=hop_latency(index),
            queue_depth=lambda now, flow: 4,
        )
        IntTelemetryDataplane(net.switch(name), config).install()

    controller = None
    if mode == "p4auth":
        controller, _dataplanes = attach_stack(
            "P4Auth", net, extras["switches"], (),
            k_seeds_from(0x127, extras["switches"]), None,
            config=P4AuthConfig(protected_headers={"int_probe"}))
        controller.kmp.bootstrap_all()
        sim.run(until=1.0)

    adversary = None
    if mode in ("attack", "p4auth"):
        # The MitM sits just downstream of the congested hop.
        link = net.link_between(f"s{CONGESTED_HOP}",
                                f"s{CONGESTED_HOP + 1}")
        adversary = RecordRewriter()
        adversary.attach(link)

    collector = IntCollector()
    extras["dst"].on_packet = collector.ingest

    start = sim.now
    for index in range(num_probes):
        sim.schedule_at(start + index * spacing_s,
                        extras["src"].send, make_int_probe(index))
    sim.run(until=start + num_probes * spacing_s + 1.0)

    reported = collector.max_hop_latency_us()
    alerts = len(controller.alerts) if controller else 0
    visible = reported >= CONGESTED_LATENCY_US
    return {
        "mode": mode,
        "probes_sent": num_probes,
        "probes_collected": len(collector.probes),
        "reported_max_hop_latency_us": reported,
        "true_max_hop_latency_us": CONGESTED_LATENCY_US,
        "congestion_visible": visible,
        "alerts": alerts,
        "tampered": adversary.stats.modified if adversary else 0,
        # Did the operator learn anything is wrong (alerts or verified
        # congestion reports)?
        "detected": visible or alerts > 0,
    }


SPEC = register(ExperimentSpec(
    name="int",
    title="INT record manipulation (secINT scenario)",
    source="§I/§X (secINT)",
    trial=_trial,
    grid={"mode": list(MODES)},
    defaults={"num_switches": 4, "num_probes": 40, "spacing_s": 0.005},
    short={"num_probes": 10},
    tags=("attack", "telemetry"),
    claims=(
        claim("attack_blinds_p4auth_detects",
              "congestion hidden silently; P4Auth drops and alerts",
              lambda run: run.by("mode", MODES),
              lambda r: r["baseline"]["congestion_visible"]
              and not r["attack"]["congestion_visible"]
              and not r["attack"]["detected"]
              and r["p4auth"]["detected"] and r["p4auth"]["alerts"] > 0,
              "{0[attack][reported_max_hop_latency_us]} us reported, "
              "{0[p4auth][alerts]} alerts"),
    ),
))
