"""Fig 17: P4Auth prevents congestion of the compromised path in HULA.

The Fig 3 topology: S1 reaches S5 via S2, S3, and S4.  Probes flow
S5 -> {S2,S3,S4} -> S1; data flows S1 -> best hop -> S5.

1. ``baseline`` — HULA's utilization feedback spreads traffic roughly
   equally across the three paths.
2. ``attack`` — a MitM on the S1-S4 link rewrites ``path_util`` in
   probes to a tiny value: S1 believes the S4 path is idle and reroutes
   >70% of traffic through the compromised link.
3. ``p4auth`` — probes carry per-link digests; S1 detects the tampering,
   drops the probes, alerts the controller, and traffic stays off the
   compromised link.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.attacks.link import ProbeFieldTamperer
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.core.auth_dataplane import P4AuthConfig
from repro.core.controller import P4AuthController
from repro.net.network import Network
from repro.net.topology import hula_fig3_topology
from repro.runtime.comparison import attach_stack, k_seeds_from
from repro.systems.hula import (
    HulaDataplane,
    fig3_hula_configs,
    make_data_packet,
    make_probe,
)
from repro.systems.tableone import MODES, check_mode

#: ToR id of the destination (S5) in the Fig 3 scenario.
DST_TOR = 5


def fig3_hula_world(telemetry=None
                    ) -> Tuple[Network, dict, Dict[str, HulaDataplane]]:
    """The Fig 3 fabric with HULA on every switch: (net, extras, hulas)."""
    net, extras = hula_fig3_topology(telemetry=telemetry)
    hulas = {name: HulaDataplane(net.switch(name), config).install()
             for name, config in fig3_hula_configs().items()}
    return net, extras, hulas


def protect_probes(net: Network, hulas: Dict[str, HulaDataplane],
                   k_seed_base: int,
                   request_timeout_s: Optional[float] = None
                   ) -> Tuple[P4AuthController, dict]:
    """P4Auth around every HULA pipeline (verify first, sign last) with
    ``hula_probe`` DP-DP protected; the caller runs the key bootstrap."""
    names = sorted(hulas)
    return attach_stack(
        "P4Auth", net, names, (),
        k_seeds_from(k_seed_base, names), None,
        request_timeout_s=request_timeout_s,
        config=P4AuthConfig(protected_headers={"hula_probe"}))


def tamper_s4_probes(net: Network) -> ProbeFieldTamperer:
    """The MitM on the S1-S4 link: advertise the S4 path as nearly idle.

    Probes travel S4 -> S1.  hula_fig3_topology connects
    ("s1", 4) <-> ("s4", 1), so that flow is direction "b->a".
    """
    adversary = ProbeFieldTamperer("hula_probe", "path_util", 2,
                                   direction_filter="b->a")
    adversary.attach(net.link_between("s1", "s4"))
    return adversary


def start_fig3_traffic(sim, extras: dict, until_s: float,
                       probe_period_s: float = 0.005,
                       data_period_s: float = 0.0002) -> None:
    """H5 probes from now and H1 data 50 ms later, until ``until_s``."""
    h1, h5 = extras["h1"], extras["h5"]

    def send_probe(probe_id: int = 0) -> None:
        if sim.now >= until_s:
            return
        h5.send(make_probe(DST_TOR, probe_id))
        sim.schedule(probe_period_s, send_probe, probe_id + 1)

    def send_data(seq: int = 0) -> None:
        if sim.now >= until_s:
            return
        h1.send(make_data_packet(DST_TOR, flow_id=seq, seq=seq & 0xFFFF))
        sim.schedule(data_period_s, send_data, seq + 1)

    sim.schedule(0.0, send_probe)
    sim.schedule(0.05, send_data)


def s1_share_meter(sim, s1: HulaDataplane, paths: Dict[str, int],
                   warmup_s: float) -> Callable[[], Dict[str, float]]:
    """Snapshot S1's per-port data counters ``warmup_s`` from now; the
    returned function gives each path's share of the data sent since."""
    snapshot: Dict[int, int] = {}
    sim.schedule(warmup_s, lambda: snapshot.update(s1.data_tx_per_port))

    def shares() -> Dict[str, float]:
        counts = {name: s1.data_tx_per_port.get(port, 0)
                  - snapshot.get(port, 0) for name, port in paths.items()}
        total = sum(counts.values()) or 1
        return {name: count / total for name, count in counts.items()}

    return shares


def _trial(ctx: TrialContext) -> dict:
    """Run one Fig 17 scenario; shares measured after ``warmup_s``."""
    p = ctx.params
    mode, duration_s = p["mode"], p["duration_s"]
    check_mode(mode)
    net, extras, hulas = fig3_hula_world(ctx.telemetry)
    sim = extras["sim"]

    controller = None
    if mode == "p4auth":
        controller, _dataplanes = protect_probes(net, hulas, 0xAB00)
        controller.kmp.bootstrap_all()
        sim.run(until=0.1)
    adversary = (tamper_s4_probes(net) if mode in ("attack", "p4auth")
                 else None)

    start_fig3_traffic(sim, extras, duration_s, p["probe_period_s"],
                       p["data_period_s"])
    shares = s1_share_meter(sim, hulas["s1"], extras["paths"],
                            p["warmup_s"])
    sim.run(until=duration_s)

    return {
        "mode": mode,
        # Traffic share of each S1 uplink: {"s2": f, "s3": f, "s4": f}.
        "shares": shares(),
        "data_sent": extras["h1"].sent_count,
        "data_delivered": len(extras["h5"].received),
        "probes_tampered": adversary.stats.modified if adversary else 0,
        "probes_dropped_at_s1": (
            net.nodes["s1"].switch.packets_dropped if mode == "p4auth" else 0
        ),
        "alerts": len(controller.alerts) if controller is not None else 0,
    }


SPEC = register(ExperimentSpec(
    name="fig17",
    title="HULA traffic distribution",
    source="Fig 17",
    trial=_trial,
    grid={"mode": list(MODES)},
    defaults={"duration_s": 5.0, "seed": 7, "probe_period_s": 0.005,
              "data_period_s": 0.0002, "warmup_s": 0.5},
    short={"duration_s": 1.5},
    seed_param="seed",
    tags=("figure", "defense"),
    claims=(
        claim("traffic_shares", "≈ equal thirds; > 70 % via S4 under "
              "attack; with P4Auth S4 is blocked and alerts raised",
              lambda run: run.by("mode", MODES),
              lambda r: all(0.2 < share < 0.5
                            for share in r["baseline"]["shares"].values())
              and r["attack"]["shares"]["s4"] > 0.7
              and r["p4auth"]["shares"]["s4"] < 0.05
              and r["p4auth"]["alerts"] > 0,
              "via S4: {0[baseline][shares][s4]:.1%} / {0[attack][shares]"
              "[s4]:.1%} / {0[p4auth][shares][s4]:.1%}"),
    ),
))
