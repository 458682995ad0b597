"""C-DP adversaries: tamper, replay, flood — with and without P4Auth."""

from repro.attacks.control_plane import (
    DosFlooder,
    RegisterRequestTamperer,
    RegisterResponseTamperer,
    ReplayAttacker,
)
from repro.runtime.plain import PlainController, PlainRegOpDataplane
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from tests.conftest import Deployment


def plain_deployment():
    sim = EventSimulator()
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    switch.registers.define("demo", 64, 8)
    dataplane = PlainRegOpDataplane(switch).install()
    dataplane.map_register("demo")
    controller = PlainController(net)
    controller.provision(switch)
    return sim, net, switch, controller


class TestResponseTamperer:
    def test_plain_stack_accepts_forged_value(self):
        sim, net, switch, controller = plain_deployment()
        switch.registers.get("demo").write(0, 100)
        reg_id = switch.registers.id_of("demo")
        adversary = RegisterResponseTamperer([(reg_id, 0)],
                                             lambda v: v * 6)
        adversary.attach(net.control_channels["s1"])
        results = []
        controller.read_register("s1", "demo", 0,
                                 lambda ok, v: results.append(v))
        sim.run(until=1.0)
        assert results == [600]
        assert adversary.stats.modified == 1

    def test_only_targeted_indices_touched(self):
        sim, net, switch, controller = plain_deployment()
        switch.registers.get("demo").write(1, 50)
        reg_id = switch.registers.id_of("demo")
        adversary = RegisterResponseTamperer([(reg_id, 0)], lambda v: 0)
        adversary.attach(net.control_channels["s1"])
        results = []
        controller.read_register("s1", "demo", 1,
                                 lambda ok, v: results.append(v))
        sim.run(until=1.0)
        assert results == [50]

    def test_p4auth_detects(self, single_switch):
        dep = single_switch
        dep.switch("s1").registers.get("demo").write(0, 100)
        reg_id = dep.switch("s1").registers.id_of("demo")
        adversary = RegisterResponseTamperer([(reg_id, 0)], lambda v: v * 6)
        adversary.attach(dep.net.control_channels["s1"])
        results = []
        dep.controller.read_register("s1", "demo", 0,
                                     lambda ok, v: results.append(v))
        dep.run(1.0)
        assert results == []
        assert dep.controller.stats.tampered_responses == 1


class TestRequestTamperer:
    def test_plain_stack_state_poisoned(self):
        sim, net, switch, controller = plain_deployment()
        reg_id = switch.registers.id_of("demo")
        adversary = RegisterRequestTamperer(reg_id, lambda v: 0x666)
        adversary.attach(net.control_channels["s1"])
        controller.write_register("s1", "demo", 0, 0x111)
        sim.run(until=1.0)
        assert switch.registers.get("demo").read(0) == 0x666

    def test_p4auth_prevents(self, single_switch):
        dep = single_switch
        reg_id = dep.switch("s1").registers.id_of("demo")
        adversary = RegisterRequestTamperer(reg_id, lambda v: 0x666)
        adversary.attach(dep.net.control_channels["s1"])
        results = []
        dep.controller.write_register("s1", "demo", 0, 0x111,
                                      lambda ok, v: results.append(ok))
        dep.run(1.0)
        assert dep.switch("s1").registers.get("demo").read(0) == 0
        assert results == [False]  # nAck tells the controller

    def test_index_transform(self):
        sim, net, switch, controller = plain_deployment()
        reg_id = switch.registers.id_of("demo")
        adversary = RegisterRequestTamperer(reg_id, lambda v: v,
                                            index_transform=lambda i: i + 1)
        adversary.attach(net.control_channels["s1"])
        controller.write_register("s1", "demo", 0, 0x42)
        sim.run(until=1.0)
        assert switch.registers.get("demo").read(1) == 0x42


class TestReplayAttacker:
    def test_replay_rejected_by_p4auth(self, single_switch):
        dep = single_switch
        recorder = ReplayAttacker(lambda p: p.has("reg_op"))
        recorder.attach(dep.net.control_channels["s1"])
        dep.controller.write_register("s1", "demo", 0, 0xAA)
        dep.run(1.0)
        assert recorder.recordings
        # Overwrite, then replay the recorded write.
        dep.controller.write_register("s1", "demo", 0, 0xBB)
        dep.run(1.0)
        replayed = recorder.replay(dep.net, "s1")
        dep.run(1.0)
        assert replayed >= 1
        assert dep.switch("s1").registers.get("demo").read(0) == 0xBB
        assert dep.dataplanes["s1"].stats.replays_detected >= 1

    def test_replay_succeeds_against_plain_stack(self):
        sim, net, switch, controller = plain_deployment()
        recorder = ReplayAttacker(lambda p: p.has("reg_op"))
        recorder.attach(net.control_channels["s1"])
        controller.write_register("s1", "demo", 0, 0xAA)
        sim.run(until=1.0)
        controller.write_register("s1", "demo", 0, 0xBB)
        sim.run(until=2.0)
        recorder.replay(net, "s1", count=1)
        sim.run(until=3.0)
        # The plain stack happily re-applies the stale write.
        assert switch.registers.get("demo").read(0) == 0xAA


class TestDosFlooder:
    def test_alert_rate_limit_bounds_nack_stream(self, single_switch):
        dep = single_switch
        dep.dataplanes["s1"].config.alert_threshold = 20
        dep.dataplanes["s1"].config.alert_window_s = 10.0
        reg_id = dep.switch("s1").registers.id_of("demo")
        flooder = DosFlooder(dep.net, "s1", reg_id, rate_hz=1000.0)
        flooder.start(duration_s=0.5)
        dep.run(1.0)
        assert flooder.sent > 100
        stats = dep.dataplanes["s1"].stats
        assert stats.alerts_raised <= 20
        assert stats.alerts_suppressed > 0
        # Nothing was written despite hundreds of forged requests.
        assert dep.switch("s1").registers.get("demo").snapshot() == [0] * 16

    def test_flood_never_authenticates(self, single_switch):
        dep = single_switch
        reg_id = dep.switch("s1").registers.id_of("demo")
        flooder = DosFlooder(dep.net, "s1", reg_id, rate_hz=500.0)
        flooder.start(duration_s=0.2)
        dep.run(0.5)
        assert dep.dataplanes["s1"].stats.regops_served == 0


class TestDosFlooderLifecycle:
    """Regressions for the timer-chaining / pre-start lifecycle bugs."""

    def test_double_start_does_not_double_the_rate(self, single_switch):
        # Pre-fix, a second start() chained an independent _fire loop,
        # doubling the effective rate; post-fix it only extends the
        # deadline, so sent stays bounded by rate * duration.
        dep = single_switch
        reg_id = dep.switch("s1").registers.id_of("demo")
        flooder = DosFlooder(dep.net, "s1", reg_id, rate_hz=100.0)
        flooder.start(duration_s=0.5)
        flooder.start(duration_s=0.5)
        dep.run(1.0)
        assert flooder.sent <= 100.0 * 0.5 + 2

    def test_restart_extends_the_deadline(self, single_switch):
        dep = single_switch
        reg_id = dep.switch("s1").registers.id_of("demo")
        flooder = DosFlooder(dep.net, "s1", reg_id, rate_hz=100.0)
        flooder.start(duration_s=0.2)
        dep.run(0.1)
        flooder.start(duration_s=0.4)  # mid-flood: extend, don't chain
        dep.run(1.0)
        # One loop over the extended 0.5s window: ~50 sends, never ~100.
        assert 40 <= flooder.sent <= 60

    def test_stop_before_any_start_is_safe(self, single_switch):
        # Pre-fix: AttributeError (_deadline only created in start()).
        dep = single_switch
        reg_id = dep.switch("s1").registers.id_of("demo")
        flooder = DosFlooder(dep.net, "s1", reg_id, rate_hz=100.0)
        flooder.stop()
        flooder._pacer._tick()
        dep.run(0.2)
        assert flooder.sent == 0

    def test_stop_then_restart_leaves_one_timer_loop(self, single_switch):
        dep = single_switch
        reg_id = dep.switch("s1").registers.id_of("demo")
        flooder = DosFlooder(dep.net, "s1", reg_id, rate_hz=100.0)
        flooder.start(duration_s=1.0)
        dep.run(0.1)
        flooder.stop()
        # Restart before the stopped loop's pending timer fires: the
        # stale-generation timer must die instead of resurrecting a
        # second chain.
        flooder.start(duration_s=0.4)
        dep.run(1.0)
        assert flooder.sent <= 100.0 * 0.5 + 2
