"""Table I mini-systems: unit behavior of each data-plane model."""

import pytest

from repro.dataplane.packet import Packet
from repro.dataplane.switch import DataplaneSwitch
from repro.systems.blink import BLINK_DATA_HEADER, BlinkDataplane
from repro.systems.netcache import NC_QUERY_HEADER, NetCacheDataplane, zipf_key
from repro.systems.netwarden import (
    NW_PKT_HEADER,
    NetWardenDataplane,
    ipd_variance,
)
from repro.systems.silkroad import (
    NEW_DIP,
    OLD_DIP,
    SILK_CONN_HEADER,
    SilkRoadDataplane,
)
from repro.crypto.prng import XorShiftPrng


class TestBlinkDataplane:
    def make(self):
        switch = DataplaneSwitch("s1", num_ports=4)
        blink = BlinkDataplane(switch).install()
        blink.set_prefix(0, active=2, backup=3)
        return switch, blink

    def packet(self, prefix=0, seq=0):
        p = Packet()
        p.push("blink_data", BLINK_DATA_HEADER.instantiate(
            prefix_id=prefix, seq=seq))
        return p

    def test_forwards_via_active(self):
        switch, blink = self.make()
        switch.process(self.packet(), 1)
        assert blink.delivered == 1

    def test_in_dp_failover(self):
        switch, blink = self.make()
        blink.dead_ports.add(2)
        from repro.systems.blink import FAILOVER_THRESHOLD
        for seq in range(FAILOVER_THRESHOLD):
            switch.process(self.packet(seq=seq), 1)
        assert blink.failovers == 1
        assert blink.active_nh.read(0) == 3
        switch.process(self.packet(), 1)
        assert blink.delivered == 1

    def test_loss_streak_resets_on_success(self):
        switch, blink = self.make()
        blink.dead_ports.add(2)
        switch.process(self.packet(), 1)
        blink.dead_ports.clear()
        switch.process(self.packet(), 1)
        assert blink.loss_streak.read(0) == 0


class TestSilkRoadDataplane:
    def make(self):
        switch = DataplaneSwitch("s1", num_ports=2)
        return switch, SilkRoadDataplane(switch).install()

    def packet(self, flow, syn=1):
        p = Packet()
        p.push("silk_conn", SILK_CONN_HEADER.instantiate(flow_id=flow,
                                                         syn=syn))
        return p

    def test_new_flow_gets_current_pool(self):
        switch, silk = self.make()
        switch.process(self.packet(1), 1)
        assert silk.connections[1] == OLD_DIP
        silk.begin_migration()
        switch.process(self.packet(2), 1)
        assert silk.connections[2] == NEW_DIP

    def test_transit_flow_pinned_to_old_pool(self):
        switch, silk = self.make()
        silk.begin_migration()
        silk.note_pending(5)
        switch.process(self.packet(5, syn=0), 1)
        assert 5 not in silk.connections  # not committed yet
        assert silk.selections[5] == OLD_DIP

    def test_early_clear_breaks_pending_flows(self):
        switch, silk = self.make()
        silk.begin_migration()
        silk.note_pending(5)
        switch.process(self.packet(5, syn=0), 1)  # old DIP
        silk.clear_trigger.write(0, 1)            # forged early clear
        switch.process(self.packet(5, syn=0), 1)  # now new DIP: broken
        assert 5 in silk.broken_flows


class TestNetCacheDataplane:
    def make(self):
        switch = DataplaneSwitch("s1", num_ports=2)
        return switch, NetCacheDataplane(switch).install()

    def query(self, key):
        p = Packet()
        p.push("nc_query", NC_QUERY_HEADER.instantiate(key=key))
        return p

    def test_hit_vs_miss_latency(self):
        switch, cache = self.make()
        cache.cache_keys.write(0, 7)
        switch.process(self.query(7), 1)
        switch.process(self.query(8), 1)
        assert cache.hits == 1
        assert cache.misses == 1
        from repro.systems.netcache import HIT_LATENCY_S, MISS_LATENCY_S
        assert cache.latency_total_s == HIT_LATENCY_S + MISS_LATENCY_S

    def test_misses_feed_the_sketch(self):
        switch, cache = self.make()
        for _ in range(5):
            switch.process(self.query(9), 1)
        assert cache.stats_sketch.estimate(9) >= 5

    def test_zipf_keys_skewed(self):
        prng = XorShiftPrng(3)
        keys = [zipf_key(prng) for _ in range(2000)]
        share_of_zero = keys.count(0) / len(keys)
        assert share_of_zero > 0.3  # key 0 is hot


class TestNetWardenDataplane:
    def make(self):
        switch = DataplaneSwitch("s1", num_ports=2)
        return switch, NetWardenDataplane(switch).install()

    def packet(self, conn, seq):
        p = Packet()
        p.push("nw_pkt", NW_PKT_HEADER.instantiate(conn_id=conn, seq=seq))
        return p

    @staticmethod
    def variance(nw, conn):
        """What the controller computes from the three register reads."""
        return ipd_variance(nw.ipd_count.read(conn), nw.ipd_sum.read(conn),
                            nw.ipd_sq_sum.read(conn))

    def test_regular_ipds_have_low_variance(self):
        switch, nw = self.make()
        for seq in range(20):
            switch.process(self.packet(0, seq), 1, now=seq * 0.001)
        assert self.variance(nw, 0) < 10

    def test_jittered_ipds_have_high_variance(self):
        switch, nw = self.make()
        prng = XorShiftPrng(4)
        now = 0.0
        for seq in range(20):
            now += 0.001 * (0.5 + prng.uniform())
            switch.process(self.packet(1, seq), 1, now=now)
        assert self.variance(nw, 1) > 400

    def test_blocked_connections_dropped(self):
        switch, nw = self.make()
        nw.blocked.write(2, 1)
        switch.process(self.packet(2, 0), 1)
        assert nw.dropped_blocked == 1
