"""INT telemetry: record accumulation, collection, and the secINT attack."""

import pytest

from repro.dataplane.pipeline import Drop, Emit
from repro.dataplane.switch import DataplaneSwitch
from repro.engine import run_experiment
from repro.systems.int_telemetry import (
    IntCollector,
    IntConfig,
    IntTelemetryDataplane,
    make_int_probe,
    parse_records,
)


def make_hop(switch_id=1, routes=None, latency=25):
    switch = DataplaneSwitch(f"s{switch_id}", num_ports=4)
    config = IntConfig(
        switch_id=switch_id,
        routes=routes if routes is not None else {1: 2},
        latency_us=lambda now, flow: latency,
        queue_depth=lambda now, flow: 3,
    )
    return switch, IntTelemetryDataplane(switch, config).install()


class TestIntHop:
    def test_appends_record_and_forwards(self):
        switch, hop = make_hop()
        probe = make_int_probe(7)
        actions = switch.process(probe, 1)
        emits = [a for a in actions if isinstance(a, Emit)]
        assert emits and emits[0].port == 2
        records = parse_records(emits[0].packet)
        assert len(records) == 1
        assert records[0].switch_id == 1
        assert records[0].latency_us == 25
        assert emits[0].packet.get("int_probe")["hop_count"] == 1

    def test_sink_delivers_to_collector_port(self):
        switch, hop = make_hop(routes={1: None})
        actions = switch.process(make_int_probe(7), 1)
        emits = [a for a in actions if isinstance(a, Emit)]
        assert emits[0].port == hop.config.collector_port
        assert hop.probes_delivered == 1

    def test_hop_limit_enforced(self):
        switch, hop = make_hop()
        probe = make_int_probe(7, max_hops=1)
        probe.get("int_probe")["hop_count"] = 1
        actions = switch.process(probe, 1)
        assert any(isinstance(a, Drop) for a in actions)

    def test_records_accumulate_across_hops(self):
        switch1, _ = make_hop(switch_id=1, latency=10)
        switch2, _ = make_hop(switch_id=2, latency=30)
        probe = make_int_probe(7)
        out1 = [a for a in switch1.process(probe, 1)
                if isinstance(a, Emit)][0].packet
        out2 = [a for a in switch2.process(out1, 1)
                if isinstance(a, Emit)][0].packet
        records = parse_records(out2)
        assert [(r.switch_id, r.latency_us) for r in records] == \
            [(1, 10), (2, 30)]


class TestCollector:
    def test_analytics(self):
        switch1, _ = make_hop(switch_id=1, latency=10)
        switch2, _ = make_hop(switch_id=2, latency=90, routes={1: None})
        probe = make_int_probe(7)
        out1 = [a for a in switch1.process(probe, 1)
                if isinstance(a, Emit)][0].packet
        out2 = [a for a in switch2.process(out1, 1)
                if isinstance(a, Emit)][0].packet
        collector = IntCollector()
        collector.ingest(out2, 0.0)
        assert collector.max_hop_latency_us() == 90
        assert collector.path_of_last_probe() == [1, 2]
        assert collector.mean_path_latency_us() == 100.0


class TestSecIntScenario:
    @pytest.fixture(scope="class")
    def results(self):
        run = run_experiment("int", sweep={"num_probes": [20]})
        return {trial.params["mode"]: trial.result for trial in run.trials}

    def test_baseline_sees_congestion(self, results):
        assert results["baseline"]["congestion_visible"]
        assert results["baseline"]["probes_collected"] == 20

    def test_attack_hides_congestion_silently(self, results):
        attack = results["attack"]
        assert not attack["congestion_visible"]
        assert not attack["detected"]
        assert attack["probes_collected"] == 20  # nothing looks wrong

    def test_p4auth_detects_suppression(self, results):
        p4auth = results["p4auth"]
        assert p4auth["detected"]
        assert p4auth["alerts"] > 0
        # Only tampered probes are lost; clean ones arrive truthful.
        assert 0 < p4auth["probes_collected"] < p4auth["probes_sent"]
        assert p4auth["reported_max_hop_latency_us"] < 100
