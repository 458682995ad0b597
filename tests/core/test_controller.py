"""The P4Auth controller: requests, verification, alerts, DoS heuristics."""

import pytest

from repro.core.constants import AlertCode
from repro.telemetry import Telemetry
from tests.conftest import Deployment


def test_read_write_roundtrip(single_switch):
    dep = single_switch
    results = []
    dep.controller.write_register("s1", "demo", 3, 0x77,
                                  lambda ok, v: results.append(("w", ok, v)))
    dep.run(1.0)
    dep.controller.read_register("s1", "demo", 3,
                                 lambda ok, v: results.append(("r", ok, v)))
    dep.run(1.0)
    assert results == [("w", True, 0x77), ("r", True, 0x77)]
    assert dep.controller.stats.acks_received == 2


def test_rct_samples_recorded():
    dep = Deployment(num_switches=1, registers=[("demo", 64, 16)],
                     telemetry=Telemetry())
    dep.controller.read_register("s1", "demo", 0)
    dep.run(1.0)
    rct = dep.sim.telemetry.metrics.get("runtime_rct_seconds",
                                        stack="P4Auth", kind="read")
    assert rct.count == 1
    assert 0 < rct.sum < 0.01


def test_unknown_register_raises(single_switch):
    with pytest.raises(KeyError):
        single_switch.controller.read_register("s1", "nope", 0)


def test_unknown_switch_raises(single_switch):
    with pytest.raises(KeyError):
        single_switch.controller.read_register("s9", "demo", 0)


def test_refresh_p4info_picks_up_new_registers(single_switch):
    dep = single_switch
    dep.switch("s1").registers.define("late_reg", 32, 4)
    dep.dataplanes["s1"].map_register("late_reg")
    with pytest.raises(KeyError):
        dep.controller.read_register("s1", "late_reg", 0)
    dep.controller.refresh_p4info("s1")
    results = []
    dep.controller.read_register("s1", "late_reg", 0,
                                 lambda ok, v: results.append(ok))
    dep.run(1.0)
    assert results == [True]


def test_tampered_response_never_reaches_callback(single_switch):
    dep = single_switch
    channel = dep.net.control_channels["s1"]

    def tamper(packet, direction):
        if direction == "dp->c" and packet.has("reg_op"):
            packet.get("reg_op")["value"] ^= 0xFF
        return packet

    channel.add_tap(tamper)
    results = []
    dep.controller.read_register("s1", "demo", 0,
                                 lambda ok, v: results.append((ok, v)))
    dep.run(1.0)
    assert results == []
    assert dep.controller.stats.tampered_responses == 1
    assert len(dep.controller.tamper_events) == 1


def test_on_tamper_hook_fires(single_switch):
    dep = single_switch
    events = []
    dep.controller.on_tamper.append(events.append)
    channel = dep.net.control_channels["s1"]
    channel.add_tap(lambda p, d:
                    (p.get("reg_op").__setitem__("value", 1), p)[1]
                    if d == "dp->c" and p.has("reg_op") else p)
    dep.controller.read_register("s1", "demo", 0)
    dep.run(1.0)
    assert len(events) == 1
    assert events[0].switch == "s1"


def test_alert_received_and_hook_fires(single_switch):
    dep = single_switch
    alerts = []
    dep.controller.on_alert.append(alerts.append)
    # Trigger an alert: inject a replayed (stale-seq) authenticated write.
    dep.controller.write_register("s1", "demo", 0, 1)
    dep.run(1.0)
    # Replay defense test lives elsewhere; here use an unknown register id
    # via a forged-but-authenticated message path instead: simplest is a
    # second write with a manually rewound controller sequence.
    dep.controller._seq["s1"] = 1  # rewind: next request looks replayed
    results = []
    dep.controller.write_register("s1", "demo", 0, 2,
                                  lambda ok, v: results.append(ok))
    dep.run(1.0)
    assert results == [False]  # nAcked as replay
    assert any(a.code == AlertCode.REPLAY_SUSPECTED
               for a in dep.controller.alerts)
    assert alerts


def test_outstanding_tracking(single_switch):
    dep = single_switch
    dep.controller.read_register("s1", "demo", 0)
    assert dep.controller.outstanding_count() == 1
    assert [switch for switch, _seq in dep.controller.requests.pending] \
        == ["s1"]
    dep.run(1.0)
    assert dep.controller.outstanding_count() == 0


def test_dos_suspected_when_outstanding_explodes(single_switch):
    dep = single_switch
    dep.controller.outstanding_threshold = 5
    # Black-hole the control channel so nothing completes.
    dep.net.control_channels["s1"].add_tap(lambda p, d: None)
    for _ in range(10):
        dep.controller.read_register("s1", "demo", 0)
    assert dep.controller.stats.dos_suspected
    assert dep.controller.outstanding_count() == 10


def test_unsolicited_response_ignored(single_switch):
    dep = single_switch
    from repro.core.messages import build_reg_response
    from repro.core.digest import DigestEngine
    forged = build_reg_response(True, 1, 0, 0xEE, seq_num=9999)
    DigestEngine().sign(dep.controller.keys.local_key("s1"), forged)
    dep.net.send_packet_in("s1", forged)
    dep.run(1.0)
    assert dep.controller.stats.unsolicited_responses == 1


def test_non_p4auth_packet_in_counted(single_switch):
    dep = single_switch
    from repro.dataplane.packet import Packet
    dep.net.send_packet_in("s1", Packet())
    dep.run(1.0)
    assert dep.controller.stats.unsolicited_responses == 1
