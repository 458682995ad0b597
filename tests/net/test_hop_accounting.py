"""Per-hop accounting under link taps stays exact (SDNsec's forwarding
accountability): the numbers below were recorded before the hop stopped
walking empty tap lists and reading the wire size twice, and the hop
must keep every one of them.

A traced run of the Fig 3 fabric with the P4Auth overlay puts two taps
on the S1-S4 link: the first strips the P4Auth header off probes heading
to S1 (the packet shrinks, and S1's verify stage drops it), the second
drops every third packet it sees.  Half way through, the stripping tap
comes off.
"""

import hashlib
import itertools

from repro.core.constants import P4AUTH
from repro.telemetry import Telemetry
from tests.dataplane.test_hop_budget import BOOTSTRAP_S, fig3_fabric, traffic

STRIPPED = "unauthenticated protected feedback message"
#: ``dataplane_stage_packets_total`` per (switch, stage).
STAGE_PACKETS = {
    ("s1", "p4auth_verify"): 293, ("s1", "hula"): 281,
    ("s1", "p4auth_sign"): 281,
    ("s2", "p4auth_verify"): 97, ("s2", "hula"): 92, ("s2", "p4auth_sign"): 92,
    ("s3", "p4auth_verify"): 92, ("s3", "hula"): 87, ("s3", "p4auth_sign"): 87,
    ("s4", "p4auth_verify"): 85, ("s4", "hula"): 80, ("s4", "p4auth_sign"): 80,
    ("s5", "p4auth_verify"): 240, ("s5", "hula"): 235,
    ("s5", "p4auth_sign"): 235,
}
#: sha256 of the ``packet.drop`` events' JSON lines, joined by newlines.
DROP_EVENTS_SHA256 = (
    "b65b9a684f7cf1245040c23f094e8a5363d5882f59ba5797aff9ca1819d482fb")


def _tapped_run():
    telemetry = Telemetry(enabled=True)
    net, sim, h1, h5, switches = fig3_fabric(True, telemetry)
    link = net.link_between("s1", "s4")

    def strip(packet, direction):
        if direction == "b->a" and packet.has(P4AUTH):
            packet.remove(P4AUTH)
        return packet

    seen = itertools.count()

    def drop_every_third(packet, direction):
        return None if next(seen) % 3 == 0 else packet

    link.add_tap(strip)
    link.add_tap(drop_every_third)
    start = max(sim.now, BOOTSTRAP_S)
    traffic(sim, h1, h5, start, start + 0.06)
    removed_at = start + 0.03
    sim.schedule_at(removed_at, link.remove_tap, strip)
    sim.run()
    return telemetry, net, link, switches, removed_at


def test_accounting_under_taps_matches_the_recorded_run():
    telemetry, net, link, switches, removed_at = _tapped_run()
    metrics = telemetry.metrics

    # Counted after the taps: the stripped probes at their new size.
    assert (link.packets_carried, link.bytes_carried,
            link.packets_dropped_by_taps) == (74, 33432, 38)
    series = {
        direction: (metrics.value("net_link_packets_total",
                                  link=link.label, direction=direction),
                    metrics.value("net_link_bytes_total",
                                  link=link.label, direction=direction))
        for direction in ("a->b", "b->a")}
    assert series == {"a->b": (68, 33344), "b->a": (6, 88)}

    stages = {}
    for metric in metrics.with_name("dataplane_stage_packets_total"):
        labels = dict(metric.labels)
        stages[labels["switch"], labels["stage"]] = metric.value
    assert stages == STAGE_PACKETS
    assert {switch.name: (switch.packets_dropped, switch.drop_reasons)
            for switch in switches} == {
        "s1": (4, {STRIPPED: 4}), "s2": (0, {}), "s3": (0, {}),
        "s4": (0, {}), "s5": (0, {})}
    assert net.drop_counts == {"tamper_tap": 38}

    drops = telemetry.tracer.events("packet.drop")
    assert [event.fields["layer"] for event in drops].count("net") == 38
    pipeline = [event for event in drops
                if event.fields["layer"] == "pipeline"]
    assert len(pipeline) == 4
    assert all(event.time < removed_at for event in pipeline)
    assert hashlib.sha256("\n".join(
        event.to_json() for event in drops).encode()).hexdigest() == \
        DROP_EVENTS_SHA256
