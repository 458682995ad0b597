"""RouteScout: split hashing, latency aggregation, controller loop."""

import pytest

from repro.dataplane.pipeline import Emit
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.plain import PlainController, PlainRegOpDataplane
from repro.systems.routescout import (
    MAX_SPLIT,
    MIN_SPLIT,
    PathModel,
    RouteScoutConfig,
    RouteScoutController,
    RouteScoutDataplane,
    make_rs_packet,
)


def make_rs(**kwargs):
    switch = DataplaneSwitch("edge", num_ports=3)
    return switch, RouteScoutDataplane(
        switch, RouteScoutConfig(**kwargs) if kwargs else None).install()


class TestDataplane:
    def test_split_zero_sends_all_to_path1(self):
        switch, rs = make_rs()
        rs.split.write(0, 0)
        for flow in range(50):
            switch.process(make_rs_packet(1, flow), 1)
        assert rs.tx_per_path[0] == 0
        assert rs.tx_per_path[1] == 50

    def test_split_hundred_sends_all_to_path0(self):
        switch, rs = make_rs()
        rs.split.write(0, 100)
        for flow in range(50):
            switch.process(make_rs_packet(1, flow), 1)
        assert rs.tx_per_path[0] == 50

    def test_split_is_flow_consistent(self):
        """The same flow always hashes to the same path (no reordering)."""
        switch, rs = make_rs()
        rs.split.write(0, 50)
        first = {}
        for _ in range(3):
            for flow in range(20):
                actions = switch.process(make_rs_packet(1, flow), 1)
                port = [a for a in actions if isinstance(a, Emit)][0].port
                assert first.setdefault(flow, port) == port

    def test_split_roughly_proportional(self):
        switch, rs = make_rs()
        rs.split.write(0, 70)
        for flow in range(500):
            switch.process(make_rs_packet(1, flow), 1)
        share0 = rs.tx_per_path[0] / 500
        assert 0.6 < share0 < 0.8

    def test_latency_aggregation(self):
        switch, rs = make_rs()
        rs.split.write(0, 100)
        for flow in range(10):
            switch.process(make_rs_packet(1, flow), 1)
        assert rs.lat_cnt.read(0) == 10
        # Idle path: base latency samples only.
        assert rs.lat_sum.read(0) >= 10 * rs.config.path_models[0].base_us

    def test_congestion_raises_latency_samples(self):
        switch, rs = make_rs(capacity_bps=1e6, util_window_s=0.01)
        rs.split.write(0, 100)
        for index in range(100):
            switch.process(make_rs_packet(1, index), 1, now=index * 0.0005)
        avg = rs.lat_sum.read(0) / rs.lat_cnt.read(0)
        assert avg > rs.config.path_models[0].base_us

    def test_exactly_two_paths_enforced(self):
        with pytest.raises(ValueError):
            RouteScoutConfig(path_ports=[2, 3, 4])


class TestPathModel:
    def test_latency_grows_with_utilization(self):
        model = PathModel(base_us=400, sensitivity_us_per_pct=8.0)
        assert model.latency_us(0) == 400
        assert model.latency_us(50) == 800


class TestController:
    def build(self):
        sim = EventSimulator()
        net = Network(sim)
        switch = DataplaneSwitch("edge", num_ports=3)
        net.add_switch(switch)
        rs = RouteScoutDataplane(switch).install()
        plain = PlainRegOpDataplane(switch).install()
        plain.map_all_registers()
        client = PlainController(net)
        client.provision(switch)
        return sim, net, switch, rs, client

    def test_epoch_shifts_split_toward_faster_path(self):
        sim, net, switch, rs, client = self.build()
        controller = RouteScoutController(client, sim, "edge", epoch_s=0.5)
        controller.start()
        node = net.nodes["edge"]
        for index in range(400):
            sim.schedule_at(index * 0.01, node.receive,
                            make_rs_packet(1, index), 1)
        sim.run(until=4.0)
        controller.stop()
        # Path 0 has lower base latency; the split should favor it.
        assert controller.current_split > 55
        assert rs.split.read(0) == controller.current_split

    def test_idle_epoch_skipped(self):
        sim, net, switch, rs, client = self.build()
        controller = RouteScoutController(client, sim, "edge", epoch_s=0.5)
        controller.start()
        sim.run(until=2.0)
        controller.stop()
        assert controller.epochs_skipped == controller.epochs_run
        assert controller.current_split == 50  # unchanged

    def test_aggregates_cleared_each_epoch(self):
        sim, net, switch, rs, client = self.build()
        controller = RouteScoutController(client, sim, "edge", epoch_s=0.5)
        controller.start()
        node = net.nodes["edge"]
        for index in range(100):
            sim.schedule_at(index * 0.002, node.receive,
                            make_rs_packet(1, index), 1)
        sim.run(until=1.5)
        controller.stop()
        # After a completed epoch the sums were reset by the controller.
        assert rs.lat_cnt.read(0) < 100

    def test_split_clamped(self):
        sim, net, switch, rs, client = self.build()
        controller = RouteScoutController(client, sim, "edge", epoch_s=0.5)
        # Force absurd inputs by writing aggregates directly: the smoothed
        # split climbs toward 100 % and stops at the clamp, then falls
        # toward 0 % and stops at the other one.
        for _ in range(10):
            controller._finish_epoch({"sum0": 1, "cnt0": 1,
                                      "sum1": 10_000_000, "cnt1": 1})
        assert controller.current_split == MAX_SPLIT
        for _ in range(10):
            controller._finish_epoch({"sum0": 10_000_000, "cnt0": 1,
                                      "sum1": 1, "cnt1": 1})
        assert controller.current_split == MIN_SPLIT
