"""Fig 21: P4Auth's per-hop overhead on in-network control messages.

HULA probes traverse a linear chain of 2..10 switches; P4Auth verifies
each probe on ingress and re-signs it on egress at every keyed hop.  The
paper measures probe traversal time (host to host) with and without
P4Auth: overhead grows near-linearly with hop count (the claims).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.auth_dataplane import P4AuthConfig
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim
from repro.net.topology import linear_chain
from repro.runtime.comparison import attach_stack, k_seeds_from
from repro.systems.hula import HulaDataplane, chain_hula_configs, make_probe

#: ToR id used for chain probes (any value works; nothing routes on it).
CHAIN_TOR = 9


def curve_from_trials(run, hops) -> List[float]:
    """The Fig 21 series: P4Auth's traversal-time overhead (%) at each
    hop count, read off exactly those hops' trial pairs."""
    return [(run.result_for(hops=count, with_p4auth=True)["mean_traversal_s"]
             / run.result_for(hops=count, with_p4auth=False)[
                 "mean_traversal_s"] - 1.0) * 100 for count in hops]


def _trial(ctx: TrialContext) -> dict:
    """Send probes down a ``hops``-switch chain; time each traversal."""
    p = ctx.params
    num_switches, with_p4auth = p["hops"], p["with_p4auth"]
    num_probes, spacing_s = p["num_probes"], p["spacing_s"]
    if num_switches < 2:
        raise ValueError("the chain experiment needs at least 2 switches")
    net, extras = linear_chain(num_switches, telemetry=ctx.telemetry)
    sim = extras["sim"]
    for name, config in chain_hula_configs(num_switches).items():
        HulaDataplane(net.switch(name), config).install()

    if with_p4auth:
        controller, _dataplanes = attach_stack(
            "P4Auth", net, extras["switches"], (),
            k_seeds_from(0xC0DE00, extras["switches"]), None,
            config=P4AuthConfig(protected_headers={"hula_probe"}))
        controller.kmp.bootstrap_all()
        sim.run(until=1.0)

    src, dst = extras["src"], extras["dst"]
    send_times: Dict[int, float] = {}
    traversal_times_s: List[float] = []

    def on_arrival(packet, now: float) -> None:
        if not packet.has("hula_probe"):
            return
        probe_id = packet.get("hula_probe")["probe_id"]
        if probe_id in send_times:
            traversal_times_s.append(now - send_times[probe_id])

    dst.on_packet = on_arrival

    start = sim.now
    for index in range(num_probes):
        at = start + index * spacing_s

        def send(probe_id: int = index, when: float = at) -> None:
            send_times[probe_id] = when
            src.send(make_probe(CHAIN_TOR, probe_id))

        sim.schedule_at(at, send)
    sim.run(until=start + num_probes * spacing_s + 1.0)
    if not traversal_times_s:
        raise RuntimeError("no probes arrived — chain misconfigured")
    return {
        "num_switches": num_switches,
        "with_p4auth": with_p4auth,
        "mean_traversal_s": sum(traversal_times_s) / len(traversal_times_s),
        "traversal_times_s": traversal_times_s,
    }


SPEC = register(ExperimentSpec(
    name="fig21",
    title="Probe traversal overhead vs hop count",
    source="Fig 21",
    trial=_trial,
    grid={"hops": list(range(2, 11)), "with_p4auth": [False, True]},
    defaults={"num_probes": 50, "spacing_s": 0.005},
    short={"hops": [2, 4], "num_probes": 10},
    tags=("figure", "overhead"),
    claims=(
        claim("overhead_2_hops", "+0.95 %",
              lambda run: curve_from_trials(run, [2]),
              lambda pct: 0.5 < pct[0] < 1.5, "{0[0]:+.3f} %"),
        claim("overhead_10_hops", "+5.9 %, near-linear from 2 hops",
              lambda run: curve_from_trials(run, range(2, 11)),
              lambda pct: 5.0 < pct[-1] < 7.0 and pct == sorted(pct),
              "{0[8]:+.3f} % (2 to 10 hops: {0[0]:.2f} to {0[8]:.2f} %)"),
    ),
))
