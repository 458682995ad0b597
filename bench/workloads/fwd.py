"""``fwd_plain`` / ``fwd_p4auth``: the HULA Fig-3 fabric under seeded traffic.

Same generator, same seed, same packets in both; ``fwd_p4auth`` adds the
P4Auth overlay on every switch, key bootstrap, and the S4->S1 probe
tamperer.  ``fwd_plain`` is the bypass workload for every crypto or
controller change; the pair's ops/s ratio is what the overlay costs per
pipeline pass.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Tuple

from repro.attacks.link import ProbeFieldTamperer
from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.net.topology import hula_fig3_topology
from repro.systems.hula import (
    HulaDataplane,
    fig3_hula_configs,
    make_data_packet,
    make_probe,
)

from bench import spans
from bench.counts import deployment_counts
from bench.common import Measured, SliceClock, gate, self_peak_rss_mb

DST_TOR = 5
PROBE_PERIOD_S = 0.005
#: Mean data inter-arrival (uniform on 0.5x..1.5x): ~5 000 packets per
#: virtual second, each crossing three switches.
DATA_PERIOD_S = 0.0002
#: Smallest frame first: per-packet cost dominates there.
DATA_SIZES = (64, 64, 256, 1408)
BOOTSTRAP_S = 0.1
DRAIN_S = 0.1
#: Virtual seconds of traffic one host second buys on the 2-core
#: reference box (sizes the fixed work from ``--seconds``).
VIRTUAL_PER_HOST_S = {"fwd_plain": 2.3, "fwd_p4auth": 1.05}
WARMUP_SHARE = 0.05
SLICES = 40


def data_stream(seed: int) -> Iterator[Tuple[int, int, float]]:
    """The seeded inputs: (flow id, frame size, gap to the next packet)."""
    rng = random.Random(seed)
    while True:
        yield (rng.getrandbits(32), rng.choice(DATA_SIZES),
               DATA_PERIOD_S * (0.5 + rng.random()))


class Forwarding:
    op = "pipeline passes"
    in_process = True
    restarts = False

    def __init__(self, name: str):
        self.name = name
        self.p4auth = name == "fwd_p4auth"

    # -- set-up ---------------------------------------------------------

    def setup(self, seed: int, seconds: float, traced: bool = False) -> None:
        self.virtual_s = seconds * VIRTUAL_PER_HOST_S[self.name]
        net, extras = hula_fig3_topology()
        self.net, self.sim = net, extras["sim"]
        self.h1, self.h5 = extras["h1"], extras["h5"]
        self.hulas: Dict[str, HulaDataplane] = {
            name: HulaDataplane(net.switch(name), config).install()
            for name, config in fig3_hula_configs().items()}
        self.switches = [net.switch(name) for name in sorted(self.hulas)]
        self.controller = None
        self.dataplanes: Dict[str, P4AuthDataplane] = {}
        self.adversary = None
        if self.p4auth:
            for index, name in enumerate(sorted(self.hulas)):
                self.dataplanes[name] = P4AuthDataplane(
                    net.switch(name), k_seed=0xAB00 + index,
                    config=P4AuthConfig(protected_headers={"hula_probe"}),
                ).install()
            self.controller = P4AuthController(net)
            for dataplane in self.dataplanes.values():
                self.controller.provision(dataplane)
            self.controller.kmp.bootstrap_all()
            self.sim.run(until=BOOTSTRAP_S)
            gate(not self.controller.kmp.stats.failures,
                 "key bootstrap abandoned an exchange")
            # hula_fig3_topology wires ("s1", 4) <-> ("s4", 1): probes
            # toward S1 travel "b->a".
            self.adversary = ProbeFieldTamperer(
                "hula_probe", "path_util", 2, direction_filter="b->a")
            self.adversary.attach(net.link_between("s1", "s4"))

        # The sink keeps every packet; count deliveries instead so memory
        # (and with it collector cost) stays flat over the run.
        self.delivered = 0
        self.delivery_time_sum = 0.0
        self.h5.on_packet = self._sink

        self.start = max(self.sim.now, BOOTSTRAP_S)
        self.warm_until = self.start + WARMUP_SHARE * self.virtual_s
        self.end = self.warm_until + self.virtual_s
        stream = data_stream(seed)
        sim, h1, h5, end = self.sim, self.h1, self.h5, self.end

        def send_probe(probe_id: int = 0) -> None:
            if sim.now >= end:
                return
            h5.send(make_probe(DST_TOR, probe_id))
            sim.schedule(PROBE_PERIOD_S, probe_event, probe_id + 1)

        def send_data(seq: int = 0) -> None:
            if sim.now >= end:
                return
            flow_id, size, gap = next(stream)
            h1.send(make_data_packet(DST_TOR, flow_id=flow_id,
                                     seq=seq & 0xFFFF, size_bytes=size))
            sim.schedule(gap, data_event, seq + 1)

        # The generator runs inside the simulator's event loop; in a
        # traced run its callbacks are spans of their own layer, so its
        # cost is not booked to net.simulator.
        probe_event = spans.span_fn(send_probe, "loadgen.send_probe", "bench")
        data_event = spans.span_fn(send_data, "loadgen.send_data", "bench")
        sim.schedule_at(self.start, probe_event)
        sim.schedule_at(self.start + 0.01, data_event)

    def _sink(self, _packet, now: float) -> None:
        self.delivered += 1
        self.delivery_time_sum += now
        self.h5.received.clear()

    # -- run ------------------------------------------------------------

    def warmup(self) -> None:
        self.sim.run(until=self.warm_until)

    def _passes(self) -> int:
        return sum(switch.pipeline_passes for switch in self.switches)

    def run(self) -> Measured:
        sent_before = self.h1.sent_count
        delivered_before = self.delivered
        step = self.virtual_s / SLICES
        passes = self._passes()
        clock = SliceClock()
        for index in range(1, SLICES + 1):
            self.sim.run(until=self.warm_until + index * step)
            now_passes = self._passes()
            clock.cut(now_passes - passes)
            passes = now_passes
        # Generators have stopped; let what is in flight land.
        self.sim.run(until=self.end + DRAIN_S)
        sent = self.h1.sent_count - sent_before
        # Packets in flight at the warm-up boundary land in the timed
        # region; the exact balance is checked over the whole run.
        lost = max(0, sent - (self.delivered - delivered_before))
        return Measured(phases=[clock.slices], failed=lost,
                        peak_rss_mb=self_peak_rss_mb())

    # -- correctness ----------------------------------------------------

    def check(self) -> dict:
        gate(self.sim.pending() == 0, "events still queued after the drain")
        gate(self.delivered == self.h1.sent_count,
             f"delivered {self.delivered} != sent {self.h1.sent_count} "
             "with nothing in flight")
        gate(not self.net.drop_counts,
             f"network-level drops: {self.net.drop_counts}")
        document = {
            "sent": self.h1.sent_count,
            "delivered": self.delivered,
            "delivery_time_sum": repr(round(self.delivery_time_sum, 9)),
            "s1_tx_per_port": sorted(
                self.hulas["s1"].data_tx_per_port.items()),
            "probes": {name: hula.probes_processed
                       for name, hula in sorted(self.hulas.items())},
            "pipeline_drops": {switch.name: switch.packets_dropped
                               for switch in self.switches},
        }
        if self.p4auth:
            tampered = self.adversary.stats.modified
            stats = {name: dp.stats for name, dp in self.dataplanes.items()}
            caught = stats["s1"].digest_fail_dpdp
            gate(caught == tampered,
                 f"S1 caught {caught} of {tampered} tampered probes")
            for name, stat in stats.items():
                gate(stat.digest_fail_cdp == 0 and stat.replays_detected == 0,
                     f"{name}: digest failure or replay on the honest C-DP path")
                if name != "s1":
                    gate(stat.digest_fail_dpdp == 0,
                         f"{name}: digest failure on an untampered link")
            document.update(
                tampered=tampered,
                alerts=len(self.controller.alerts),
                alerts_suppressed=sum(s.alerts_suppressed
                                      for s in stats.values()),
                feedback_verified=sum(s.feedback_verified
                                      for s in stats.values()),
                hash_invocations=sum(sw.hash.invocations
                                     for sw in self.switches),
            )
        else:
            gate(all(sw.packets_dropped == 0 for sw in self.switches),
                 "pipeline drop on the plain fabric")
        return document

    def counts(self) -> Dict[str, float]:
        return deployment_counts(
            [self.sim], self.switches, self.dataplanes.values(),
            [self.controller] if self.controller is not None else [])

    def close(self) -> None:
        pass
