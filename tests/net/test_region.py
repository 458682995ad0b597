"""Region partition: lockstep epochs, mailbox determinism, gateways."""

import pytest

from repro.dataplane.packet import Packet
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.region import (
    DEFAULT_BOUNDARY_LATENCY_S,
    Region,
    RegionalWorld,
)
from repro.net.simulator import EventSimulator
from repro.net.topology import (
    random_regular_fabric,
    region_seed,
    region_sizes,
    regional_fabric,
)


class Recorder:
    """Minimal network node: records every delivery with its region time."""

    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, packet, port):
        self.got.append((self.sim.now, packet, port))


def make_region(rid, index, num_switches=1):
    sim = EventSimulator()
    net = Network(sim)
    switches = []
    for i in range(num_switches):
        name = f"{rid}sw{i}"
        net.add_switch(DataplaneSwitch(name, num_ports=8,
                                       seed=100 * index + i))
        switches.append(name)
    return Region(id=rid, index=index, sim=sim, net=net, switches=switches)


def make_world(num_switches=1, epoch_s=None):
    regions = [make_region("ra", 0, num_switches),
               make_region("rb", 1, num_switches)]
    return RegionalWorld(regions, epoch_s=epoch_s)


class TestConstruction:
    def test_region_rejects_foreign_network(self):
        sim_a, sim_b = EventSimulator(), EventSimulator()
        net_b = Network(sim_b)
        with pytest.raises(ValueError, match="different simulator"):
            Region(id="ra", index=0, sim=sim_a, net=net_b)

    def test_world_rejects_duplicate_region_ids(self):
        with pytest.raises(ValueError, match="duplicate region ids"):
            RegionalWorld([make_region("ra", 0), make_region("ra", 1)])

    def test_world_rejects_disagreeing_clocks(self):
        late = make_region("rb", 1)
        late.sim.schedule(1.0, lambda: None)
        late.sim.run(until=1.0)
        with pytest.raises(ValueError, match="disagree on the clock"):
            RegionalWorld([make_region("ra", 0), late])

    def test_boundary_link_must_cross_regions(self):
        world = make_world()
        with pytest.raises(ValueError, match="differ in region"):
            world.add_boundary_link("ra", "rasw0", 5, "ra", "rasw0", 6)

    def test_boundary_latency_must_be_positive(self):
        world = make_world()
        with pytest.raises(ValueError, match="positive"):
            world.add_boundary_link("ra", "rasw0", 5, "rb", "rbsw0", 5,
                                    latency_s=0.0)

    def test_boundary_latency_must_cover_explicit_epoch(self):
        world = make_world(epoch_s=1e-3)
        with pytest.raises(ValueError, match="lookahead invariant"):
            world.add_boundary_link("ra", "rasw0", 5, "rb", "rbsw0", 5,
                                    latency_s=100e-6)

    def test_gateways_invisible_to_neighbor_ports(self):
        """Boundary ports carry no port keys: the gateway is not a
        SwitchNode, so KMP's neighbor discovery never sees it."""
        world = make_world(num_switches=2)
        world.region("ra").net.connect("rasw0", 1, "rasw1", 1)
        world.add_boundary_link("ra", "rasw0", 5, "rb", "rbsw0", 5)
        neighbors = world.region("ra").net.neighbor_ports("rasw0")
        assert 5 not in dict(neighbors)
        assert 1 in dict(neighbors)


class TestDelivery:
    def test_boundary_delivery_charges_full_latency(self):
        world = make_world()
        world.add_boundary_link("ra", "rasw0", 5, "rb", "rbsw0", 5,
                                latency_s=2e-3)
        recorder = Recorder(world.region("rb").sim)
        world.region("rb").net.nodes["rbsw0"].receive = recorder.receive
        packet = Packet()
        world.region("ra").net.transmit("rasw0", 5, packet)
        world.run(until=5e-3)
        assert [(t, p) for t, p, _port in recorder.got] == [(2e-3, packet)]
        assert world.mailbox.posted == world.mailbox.delivered == 1

    def test_flush_orders_by_time_then_src_region_then_seq(self):
        world = make_world()
        recorder = Recorder(world.region("rb").sim)
        world.region("rb").net.nodes["rbsw0"].receive = recorder.receive
        p_late, p_second, p_first = Packet(), Packet(), Packet()
        # Posted out of order: later deliver_at first, then a higher
        # src_index at the same instant as a lower one.
        world.mailbox.post(0, "rb", "rbsw0", 1, p_late, deliver_at=2e-3)
        world.mailbox.post(1, "rb", "rbsw0", 1, p_second, deliver_at=1e-3)
        world.mailbox.post(0, "rb", "rbsw0", 1, p_first, deliver_at=1e-3)
        world.mailbox.flush(world.by_id)
        world.region("rb").sim.run(until=5e-3)
        assert [p for _t, p, _port in recorder.got] \
            == [p_first, p_second, p_late]

    def test_flush_rejects_delivery_into_the_past(self):
        world = make_world()
        region_b = world.region("rb")
        region_b.sim.schedule(1.0, lambda: None)
        region_b.sim.run(until=1.0)
        world.mailbox.post(0, "rb", "rbsw0", 1, Packet(), deliver_at=0.5)
        with pytest.raises(RuntimeError, match="lookahead violation"):
            world.mailbox.flush(world.by_id)

    def test_same_seed_worlds_deliver_identically(self):
        logs = []
        for _attempt in range(2):
            world = make_world()
            world.add_boundary_link("ra", "rasw0", 5, "rb", "rbsw0", 5)
            world.add_boundary_link("rb", "rbsw0", 6, "ra", "rasw0", 6)
            recorders = {}
            for rid, sw in (("ra", "rasw0"), ("rb", "rbsw0")):
                recorder = Recorder(world.region(rid).sim)
                world.region(rid).net.nodes[sw].receive = recorder.receive
                recorders[rid] = recorder
            for i in range(4):
                world.region("ra").net.transmit("rasw0", 5, Packet())
                world.region("rb").net.transmit("rbsw0", 6, Packet())
            world.run(until=4e-3)
            logs.append([(rid, [(t, port) for t, _p, port in rec.got])
                         for rid, rec in sorted(recorders.items())])
        assert logs[0] == logs[1]


class TestLockstep:
    def test_single_region_run_is_pure_pass_through(self):
        region = make_region("ra", 0)
        world = RegionalWorld([region])
        fired = []
        region.sim.schedule(1.5e-3, lambda: fired.append(region.sim.now))
        world.run(until=3e-3)
        assert fired == [1.5e-3]
        assert world.epochs == 0          # no lockstep machinery engaged
        assert region.sim.now == 3e-3

    def test_epoch_hooks_fire_at_every_barrier(self):
        world = make_world()
        world.add_boundary_link("ra", "rasw0", 5, "rb", "rbsw0", 5,
                                latency_s=1e-3)
        barriers = []
        world.on_epoch.append(barriers.append)
        world.run(until=3e-3)
        assert barriers == pytest.approx([1e-3, 2e-3, 3e-3])
        assert world.epochs == 3

    def test_epoch_defaults_to_min_boundary_latency(self):
        world = make_world()
        world.add_boundary_link("ra", "rasw0", 5, "rb", "rbsw0", 5,
                                latency_s=4e-3)
        world.add_boundary_link("rb", "rbsw0", 6, "ra", "rasw0", 6,
                                latency_s=2e-3)
        assert world.epoch_s == 2e-3
        assert make_world().epoch_s == DEFAULT_BOUNDARY_LATENCY_S

    def test_run_until_samples_only_at_barriers(self):
        world = make_world()
        world.add_boundary_link("ra", "rasw0", 5, "rb", "rbsw0", 5,
                                latency_s=1e-3)
        seen = []

        def condition():
            seen.append(world.now)
            return world.now >= 2e-3

        assert world.run_until(condition, deadline=10e-3)
        assert world.now == pytest.approx(2e-3)
        # Every sample happened at a barrier multiple of the epoch.
        for t in seen:
            assert abs(t / 1e-3 - round(t / 1e-3)) < 1e-9

    def test_stats_and_pending_account_for_mailbox(self):
        world = make_world()
        world.add_boundary_link("ra", "rasw0", 5, "rb", "rbsw0", 5)
        world.mailbox.post(0, "rb", "rbsw0", 1, Packet(), deliver_at=1e-3)
        assert world.pending() == 1       # sits in the mailbox, unflushed
        world.run(until=2e-3)
        stats = world.stats()
        assert stats["mailbox_posted"] == stats["mailbox_delivered"] == 1
        assert stats["boundary_links"] == 1
        assert world.pending() == 0


class TestRegionalFabric:
    def test_region_sizes_near_even_split(self):
        assert region_sizes(10, 3) == [4, 3, 3]
        assert region_sizes(12, 4) == [3, 3, 3, 3]
        with pytest.raises(ValueError):
            region_sizes(2, 3)
        with pytest.raises(ValueError):
            region_sizes(10, 0)

    def test_regions_1_keeps_legacy_names_and_world(self):
        net, extras = random_regular_fabric(9, 4, seed=1)
        assert extras["switches"][0] == "sw0"
        world = extras["world"]
        assert len(world.regions) == 1
        assert world.boundary_links == []

    def test_multi_region_fabric_shape(self):
        world, extras = regional_fabric(30, regions=3, degree=4, seed=1,
                                        boundary_links_per_pair=2)
        assert [r.id for r in world.regions] == ["r0", "r1", "r2"]
        assert [len(r.switches) for r in world.regions] == [10, 10, 10]
        assert extras["switches_by_region"]["r1"][0] == "r1sw0"
        # Ring of 3 regions, 2 links per adjacent pair.
        assert len(world.boundary_links) == 6
        for link in world.boundary_links:
            assert link.region_a != link.region_b
            # Boundary ports sit beyond the intra-region degree.
            assert link.port_a > 4 and link.port_b > 4

    def test_region_graph_matches_standalone_slice(self):
        """Phase A's standalone region worlds see the same graphs as the
        lockstep fabric — same size, same per-region seed."""
        _world, extras = regional_fabric(30, regions=3, degree=4, seed=7)
        for index in range(3):
            size = region_sizes(30, 3)[index]
            _net, standalone = random_regular_fabric(
                size, 4, region_seed(7, index))
            lockstep_graph = extras["graphs"][f"r{index}"]
            assert standalone["graph"] == lockstep_graph
            assert len(lockstep_graph) == size * 4 // 2

    def test_min_region_size_must_exceed_degree(self):
        with pytest.raises(ValueError):
            regional_fabric(12, regions=4, degree=4, seed=1)
