"""The three register R/W stacks and the sequential harness."""

import pytest

from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.harness import RunStats, run_sequential
from repro.runtime.p4runtime import P4RuntimeStack
from repro.runtime.plain import PlainController, PlainRegOpDataplane
from repro.telemetry import Telemetry


def plain_deployment(telemetry=None):
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    switch.registers.define("target", 64, 16)
    dataplane = PlainRegOpDataplane(switch).install()
    dataplane.map_register("target")
    controller = PlainController(net)
    controller.provision(switch)
    return sim, net, switch, controller


def p4runtime_deployment():
    sim = EventSimulator()
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    switch.registers.define("target", 64, 16)
    stack = P4RuntimeStack(net)
    stack.provision(switch)
    return sim, net, switch, stack


class TestPlainStack:
    def test_write_then_read(self):
        sim, net, switch, controller = plain_deployment()
        results = []
        controller.write_register("s1", "target", 2, 0x99,
                                  lambda ok, v: results.append(("w", ok, v)))
        sim.run(until=1.0)
        controller.read_register("s1", "target", 2,
                                 lambda ok, v: results.append(("r", ok, v)))
        sim.run(until=2.0)
        assert results == [("w", True, 0x99), ("r", True, 0x99)]

    def test_unknown_register_nacked(self):
        sim, net, switch, controller = plain_deployment()
        controller._reg_ids["s1"]["ghost"] = 9999
        results = []
        controller.read_register("s1", "ghost", 0,
                                 lambda ok, v: results.append(ok))
        sim.run(until=1.0)
        assert results == [False]
        assert controller.nacks == 1

    def test_rct_samples(self):
        sim, net, switch, controller = plain_deployment(Telemetry())
        controller.read_register("s1", "target", 0)
        sim.run(until=1.0)
        rct = sim.telemetry.metrics.get("runtime_rct_seconds",
                                        stack="DP-Reg-RW", kind="read")
        assert controller.acks == 1
        assert rct.count == 1 and 0 < rct.sum < 0.01


class TestP4RuntimeStack:
    def test_write_then_read(self):
        sim, net, switch, stack = p4runtime_deployment()
        results = []
        stack.write_register("s1", "target", 1, 0x55,
                             lambda ok, v: results.append(("w", ok, v)))
        sim.run(until=1.0)
        stack.read_register("s1", "target", 1,
                            lambda ok, v: results.append(("r", ok, v)))
        sim.run(until=2.0)
        assert results == [("w", True, 0x55), ("r", True, 0x55)]

    def test_goes_through_control_channel_taps(self):
        """P4Runtime still crosses the compromised OS (the paper's point
        about TLS-protected P4Runtime being insufficient)."""
        sim, net, switch, stack = p4runtime_deployment()

        def tamper(packet, direction):
            if direction == "c->dp" and packet.has("reg_op"):
                packet.get("reg_op")["value"] = 0x666
            return packet

        net.control_channels["s1"].add_tap(tamper)
        stack.write_register("s1", "target", 0, 0x111)
        sim.run(until=1.0)
        assert switch.registers.get("target").read(0) == 0x666

    def test_read_faster_than_write(self):
        sim, net, switch, stack = p4runtime_deployment()
        read_stats = run_sequential(sim, stack, "read", "s1", "target",
                                    duration_s=1.0)
        sim2, net2, switch2, stack2 = p4runtime_deployment()
        write_stats = run_sequential(sim2, stack2, "write", "s1", "target",
                                     duration_s=1.0)
        ratio = read_stats.throughput_rps / write_stats.throughput_rps
        assert 1.5 < ratio < 1.9  # paper: 1.7x


class TestHarness:
    def test_sequential_counts(self):
        sim, net, switch, controller = plain_deployment()
        stats = run_sequential(sim, controller, "read", "s1", "target",
                               duration_s=0.5)
        assert stats.completed > 100
        assert stats.throughput_rps == pytest.approx(
            stats.completed / stats.duration_s)
        assert 0 < stats.mean_rct_s < 0.01
        assert stats.percentile_rct_s(99) >= stats.percentile_rct_s(50)

    def test_invalid_kind_rejected(self):
        sim, net, switch, controller = plain_deployment()
        with pytest.raises(ValueError):
            run_sequential(sim, controller, "erase", "s1", "target")

    def test_empty_stats_are_nan(self):
        import math
        stats = RunStats("read", 1.0)
        assert math.isnan(stats.mean_rct_s)
        assert math.isnan(stats.percentile_rct_s(50))
        assert stats.throughput_rps == 0
