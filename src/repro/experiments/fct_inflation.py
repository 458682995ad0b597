"""FCT inflation under the HULA attack (§II-A: "inflating flow
completion times").

This is Fig 3 with its utilization numbers taken literally: background
cross-traffic loads the three paths at 50% (via S4), 30% (via S3) and
20% (via S2) of the 100 Mb/s link capacity.  Foreground traffic from H1
to H5 adds ~40%.  Links model FIFO output queues, so overload shows up
as real queueing delay:

- ``baseline``: HULA's probes steer the foreground onto the two lightly
  loaded paths (S2/S3) — delivery latency stays near the propagation
  floor.
- ``attack``: the MitM advertises the S4 path as nearly idle; the
  foreground piles onto the 50%-loaded link (→ ~90% total, bursty) and
  queueing delay inflates per-packet latency severalfold.
- ``p4auth``: tampered probes are dropped; traffic stays on the healthy
  paths and latency matches the baseline.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.metrics import mean, percentile
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.experiments.fig17_hula import (
    fig3_hula_world,
    protect_probes,
    s1_share_meter,
    tamper_s4_probes,
)
from repro.systems.hula import make_data_packet, make_probe
from repro.systems.tableone import MODES, check_mode

LINK_BANDWIDTH_BPS = 100e6
PACKET_BYTES = 1408
#: Background load per mid switch, as in Fig 3: S2 20%, S3 30%, S4 50%.
BACKGROUND_LOAD = {"s2": 0.20, "s3": 0.30, "s4": 0.50}
#: Foreground: bursts of 8 packets, ~55% of link capacity on average.
#: Together with the 50% background on the S4 path this makes the
#: attacked link overloaded (105%), while the honest paths (70-85%)
#: remain stable — the "congest the path" outcome of Fig 2/Fig 3.
FG_BURST = 8
FG_BURST_PERIOD_S = FG_BURST * PACKET_BYTES * 8 / (0.55 * LINK_BANDWIDTH_BPS)


def _trial(ctx: TrialContext) -> dict:
    """Measure foreground delivery latency under one Fig 3 scenario."""
    p = ctx.params
    mode, probe_period_s, warmup_s = (p["mode"], p["probe_period_s"],
                                      p["warmup_s"])
    check_mode(mode)
    net, extras, hulas = fig3_hula_world(ctx.telemetry)
    sim = extras["sim"]
    for link in net.links:
        link.bandwidth_bps = LINK_BANDWIDTH_BPS
    # The contended resources are the three fabric paths; host access
    # links are provisioned fat (the server port aggregates all paths).
    net.link_between("h1", "s1").bandwidth_bps = 1e9
    net.link_between("s5", "h5").bandwidth_bps = 1e9

    controller = None
    if mode == "p4auth":
        controller, _dataplanes = protect_probes(net, hulas, 0xFC7)
        controller.kmp.bootstrap_all()
        sim.run(until=0.1)

    if mode in ("attack", "p4auth"):
        tamper_s4_probes(net)

    h1, h5 = extras["h1"], extras["h5"]
    base = sim.now
    end = base + p["duration_s"]

    # Probes from H5, as in Fig 17.
    def probes(round_index: int = 0) -> None:
        if sim.now >= end:
            return
        h5.send(make_probe(5, round_index))
        sim.schedule(probe_period_s, probes, round_index + 1)

    # Background cross-traffic injected at each mid switch (arriving on
    # its S1-facing port, heading to S5) at the Fig 3 load levels.
    def background(name: str, load: float, seq: int = 0) -> None:
        if sim.now >= end:
            return
        node = net.nodes[name]
        packet = make_data_packet(5, flow_id=0xB6000 + seq,
                                  size_bytes=PACKET_BYTES)
        packet.metadata["background"] = True
        node.receive(packet, 1)
        period = PACKET_BYTES * 8 / (load * LINK_BANDWIDTH_BPS)
        sim.schedule(period, background, name, load, seq + 1)

    # Foreground bursts from H1 with send-time stamping.
    send_times: Dict[int, float] = {}

    def foreground(seq: int = 0) -> None:
        if sim.now >= end:
            return
        for offset in range(FG_BURST):
            packet = make_data_packet(5, flow_id=seq + offset,
                                      seq=(seq + offset) & 0xFFFF,
                                      size_bytes=PACKET_BYTES)
            send_times[packet.packet_id] = sim.now
            h1.send(packet)
        sim.schedule(FG_BURST_PERIOD_S, foreground, seq + FG_BURST)

    samples: List[float] = []

    def on_delivery(packet, now: float) -> None:
        sent = send_times.pop(packet.packet_id, None)
        if sent is not None and now - base >= warmup_s:
            samples.append(now - sent)

    h5.on_packet = on_delivery

    sim.schedule(0.0, probes)
    for name, load in BACKGROUND_LOAD.items():
        sim.schedule(0.01, background, name, load)
    sim.schedule(0.05, foreground)

    shares = s1_share_meter(sim, hulas["s1"], extras["paths"], warmup_s)
    sim.run(until=end + 0.5)

    # The per-packet samples stay out of the result: the list is huge and
    # fully determined by the summary stats' inputs; keep artifacts lean.
    return {
        "mode": mode,
        "mean_latency_s": mean(samples),
        "p95_latency_s": percentile(samples, 95),
        "delivered": len(samples),
        "share_via_s4": shares()["s4"],
        "alerts": len(controller.alerts) if controller else 0,
    }


SPEC = register(ExperimentSpec(
    name="fct",
    title="FCT inflation under the HULA attack",
    source="§II-A (Fig 3 with queueing)",
    trial=_trial,
    grid={"mode": list(MODES)},
    defaults={"duration_s": 3.0, "probe_period_s": 0.005,
              "warmup_s": 0.5},
    short={"duration_s": 1.5},
    tags=("attack", "latency"),
    claims=(
        claim("attack_inflates_fct_p4auth_restores",
              "FCT inflated (here > 10x); P4Auth keeps the baseline",
              lambda run: run.by("mode", MODES),
              lambda r: r["attack"]["mean_latency_s"]
              > 10 * r["baseline"]["mean_latency_s"]
              and r["attack"]["share_via_s4"] > 0.9
              and r["p4auth"]["mean_latency_s"]
              < 1.5 * r["baseline"]["mean_latency_s"]
              and r["p4auth"]["share_via_s4"] < 0.05
              and r["p4auth"]["alerts"] > 0,
              "{0[baseline][mean_latency_s]:.4f} / {0[attack][mean_latency_s]"
              ":.4f} / {0[p4auth][mean_latency_s]:.4f} s"),
    ),
))
