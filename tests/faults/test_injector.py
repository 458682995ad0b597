"""FaultInjector behavior: each fault kind does what the plan says,
deterministically under a fixed seed, and disarm restores the network."""

import pytest

from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet
from repro.faults import (
    ChannelBlackout,
    FaultInjector,
    FaultPlan,
    LinkFault,
    NodeFault,
)
from repro.net.network import (
    DROP_FAULT_INJECTED,
    DROP_NODE_DOWN,
    Network,
)
from repro.net.simulator import EventSimulator
from tests.conftest import Deployment

PROBE = HeaderType("probe", [("seq", 32), ("value", 32)])


class HostPair:
    """Two hosts on one link: the smallest delivery-shaping testbed."""

    def __init__(self):
        self.sim = EventSimulator()
        self.net = Network(self.sim)
        self.h1 = self.net.add_host("h1")
        self.h2 = self.net.add_host("h2")
        self.net.connect("h1", 1, "h2", 1)

    def arm(self, *link_faults, seed=0xFA017):
        plan = FaultPlan(seed=seed, link_faults=list(link_faults))
        return FaultInjector(self.net, plan).arm()

    def send_burst(self, count, gap_s=1e-4, value=0xAAAA):
        for seq in range(count):
            packet = Packet([("probe", PROBE.instantiate(seq=seq,
                                                         value=value))])
            self.sim.schedule(seq * gap_s, self.h1.send, packet, 1)
        self.sim.run(until=1.0)

    def received_seqs(self):
        return [packet.get("probe")["seq"]
                for _t, packet in self.h2.received]


class TestLinkFaults:
    def test_nth_packet_drop_is_exact(self):
        pair = HostPair()
        injector = pair.arm(LinkFault("drop", every_nth=3))
        pair.send_burst(9)
        assert pair.received_seqs() == [0, 1, 3, 4, 6, 7]
        assert injector.stats.count("drop") == 3
        assert pair.net.drop_counts[DROP_FAULT_INJECTED] == 3

    def test_probabilistic_drop_is_seed_deterministic(self):
        outcomes = []
        for _ in range(2):
            pair = HostPair()
            pair.arm(LinkFault("drop", probability=0.5), seed=7)
            pair.send_burst(40)
            outcomes.append(pair.received_seqs())
        assert outcomes[0] == outcomes[1]
        assert 0 < len(outcomes[0]) < 40  # both branches actually exercised

    def test_different_seed_changes_the_loss_pattern(self):
        patterns = []
        for seed in (1, 2):
            pair = HostPair()
            pair.arm(LinkFault("drop", probability=0.5), seed=seed)
            pair.send_burst(40)
            patterns.append(pair.received_seqs())
        assert patterns[0] != patterns[1]

    def test_corrupt_mutates_a_field_but_keeps_the_packet(self):
        pair = HostPair()
        injector = pair.arm(LinkFault("corrupt", every_nth=1))
        pair.send_burst(5)
        assert len(pair.h2.received) == 5
        assert injector.stats.count("corrupt") == 5
        for seq, (_t, packet) in enumerate(pair.h2.received):
            header = packet.get("probe")
            # Exactly one field was XORed with a nonzero mask.
            assert (header["seq"], header["value"]) != (seq, 0xAAAA)

    def test_duplicate_delivers_the_packet_twice(self):
        pair = HostPair()
        pair.arm(LinkFault("duplicate", every_nth=1, delay_s=1e-5))
        pair.send_burst(3, gap_s=1e-3)
        assert sorted(pair.received_seqs()) == [0, 0, 1, 1, 2, 2]

    def test_reorder_lets_later_traffic_overtake(self):
        pair = HostPair()
        pair.arm(LinkFault("reorder", every_nth=2, delay_s=5e-3))
        pair.send_burst(4)
        # Packets 1 and 3 (2nd and 4th matched) are held back 5 ms.
        assert pair.received_seqs() == [0, 2, 1, 3]

    def test_jitter_delays_but_never_loses(self):
        pair = HostPair()
        injector = pair.arm(LinkFault("jitter", every_nth=1, delay_s=1e-3))
        pair.send_burst(6)
        assert sorted(pair.received_seqs()) == list(range(6))
        assert injector.stats.count("jitter") == 6

    def test_window_bounds_the_fault(self):
        pair = HostPair()
        pair.arm(LinkFault("drop", every_nth=1, start_s=0.1, end_s=0.2))
        for seq, at_s in enumerate((0.05, 0.15, 0.25)):
            packet = Packet([("probe", PROBE.instantiate(seq=seq))])
            pair.sim.schedule(at_s, pair.h1.send, packet, 1)
        pair.sim.run(until=1.0)
        assert pair.received_seqs() == [0, 2]

    def test_direction_filter(self):
        # h1 was wired first, so h1 -> h2 traffic travels "a->b".
        pair = HostPair()
        injector = pair.arm(LinkFault("drop", every_nth=1, direction="b->a"))
        pair.send_burst(4)
        assert pair.received_seqs() == [0, 1, 2, 3]
        assert injector.stats.total() == 0

    def test_node_name_filter(self):
        pair = HostPair()
        injector = pair.arm(LinkFault("drop", every_nth=1,
                                      node_a="h1", node_b="h9"))
        pair.send_burst(2)
        assert len(pair.received_seqs()) == 2
        assert injector.stats.total() == 0


class TestLifecycle:
    def test_arm_twice_raises(self):
        pair = HostPair()
        injector = pair.arm(LinkFault("drop", probability=0.1))
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()

    def test_conflicting_shaper_raises(self):
        pair = HostPair()
        pair.net.delivery_shaper = lambda link, d, p, delay: [(p, delay)]
        plan = FaultPlan(link_faults=[LinkFault("drop", probability=0.1)])
        with pytest.raises(RuntimeError, match="delivery shaper"):
            FaultInjector(pair.net, plan).arm()

    def test_invalid_plan_rejected_at_construction(self):
        pair = HostPair()
        with pytest.raises(ValueError, match="no trigger"):
            FaultInjector(pair.net, FaultPlan(link_faults=[LinkFault("drop")]))

    def test_disarm_restores_delivery_and_cancels_crashes(self):
        dep = Deployment(num_switches=1, bootstrap=False,
                         registers=[("demo", 64, 16)])
        plan = FaultPlan(node_faults=[NodeFault("s1", crash_at_s=1.0)])
        injector = FaultInjector(dep.net, plan).arm()
        injector.disarm()
        dep.sim.run(until=2.0)
        assert dep.net.nodes["s1"].up  # cancelled crash never fired
        assert dep.net.delivery_shaper is None
        assert dep.sim.events_cancelled == 1

    def test_disarm_removes_blackout_taps(self):
        dep = Deployment(num_switches=1, bootstrap=False)
        plan = FaultPlan(blackouts=[ChannelBlackout("s1", 0.0, 10.0)])
        injector = FaultInjector(dep.net, plan).arm()
        channel = dep.net.control_channels["s1"]
        assert len(channel.taps) == 1
        injector.disarm()
        assert channel.taps == []


class TestNodeFaults:
    def test_crash_downs_the_node_and_wipes_registers(self):
        dep = Deployment(num_switches=1, bootstrap=False,
                         registers=[("demo", 64, 16)])
        dep.switch("s1").registers.get("demo").write(3, 0x1234)
        plan = FaultPlan(node_faults=[NodeFault("s1", crash_at_s=0.1)])
        injector = FaultInjector(dep.net, plan).arm()
        dep.sim.run(until=0.2)
        node = dep.net.nodes["s1"]
        assert not node.up
        assert dep.switch("s1").registers.get("demo").read(3) == 0
        assert injector.stats.count("crash") == 1
        # A downed node eats everything that arrives.
        dep.net.send_packet_out("s1", Packet())
        dep.sim.run(until=0.3)
        assert dep.net.drop_counts[DROP_NODE_DOWN] == 1

    def test_crash_can_retain_registers(self):
        dep = Deployment(num_switches=1, bootstrap=False,
                         registers=[("demo", 64, 16)])
        dep.switch("s1").registers.get("demo").write(3, 0x1234)
        plan = FaultPlan(node_faults=[
            NodeFault("s1", crash_at_s=0.1, wipe_registers=False)])
        FaultInjector(dep.net, plan).arm()
        dep.sim.run(until=0.2)
        assert not dep.net.nodes["s1"].up
        assert dep.switch("s1").registers.get("demo").read(3) == 0x1234

    def test_restart_brings_the_node_back_and_fires_hooks(self):
        dep = Deployment(num_switches=1, bootstrap=False)
        plan = FaultPlan(node_faults=[
            NodeFault("s1", crash_at_s=0.1, restart_at_s=0.3)])
        injector = FaultInjector(dep.net, plan).arm()
        restarted = []
        injector.on_node_restart.append(restarted.append)
        dep.sim.run(until=0.2)
        assert not dep.net.nodes["s1"].up
        dep.sim.run(until=0.4)
        assert dep.net.nodes["s1"].up
        assert restarted == ["s1"]
        assert injector.stats.count("restart") == 1


class TestBlackout:
    def test_blackout_loses_requests_then_recovers(self):
        dep = Deployment(num_switches=1, registers=[("demo", 64, 16)])
        t0 = dep.sim.now  # bootstrap already advanced the clock
        plan = FaultPlan(blackouts=[
            ChannelBlackout("s1", t0 + 1.0, t0 + 2.0, direction="c->dp")])
        injector = FaultInjector(dep.net, plan).arm()
        outcomes = []
        dep.sim.schedule(1.5, dep.controller.write_register,
                         "s1", "demo", 0, 0x55,
                         lambda ok, value: outcomes.append(("mid", ok)))
        dep.sim.schedule(2.5, dep.controller.write_register,
                         "s1", "demo", 1, 0x66,
                         lambda ok, value: outcomes.append(("after", ok)))
        dep.sim.run(until=t0 + 3.0)
        # The in-window request was swallowed (legacy no-timeout mode:
        # no callback at all); the post-window one completed.
        assert outcomes == [("after", True)]
        assert injector.stats.count("blackout") == 1
        assert dep.controller.outstanding_count() == 1

    def test_blackout_direction_filter_passes_other_direction(self):
        dep = Deployment(num_switches=1, registers=[("demo", 64, 16)])
        plan = FaultPlan(blackouts=[
            ChannelBlackout("s1", 0.0, dep.sim.now + 10.0,
                            direction="dp->c")])
        FaultInjector(dep.net, plan).arm()
        outcomes = []
        # Requests still reach the switch (c->dp untouched); only the
        # response leg dies, so the write lands but never confirms.
        dep.controller.write_register("s1", "demo", 0, 0x77,
                                      lambda ok, v: outcomes.append(ok))
        dep.sim.run(until=dep.sim.now + 1.0)
        assert outcomes == []
        assert dep.switch("s1").registers.get("demo").read(0) != 0
