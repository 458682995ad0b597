"""Integration: KMP RTTs (Fig 20), multihop overhead (Fig 21),
Table I impact matrix, and Table III scalability."""

import pytest

from repro.experiments.table1_impact import SYSTEMS
from repro.experiments.table3_scalability import formulas
from repro.systems.tableone import MODES
from tests.conftest import run_trial


@pytest.fixture(scope="module")
def kmp_rtt():
    return run_trial("fig20", repeats=5)


class TestFig20:
    def test_init_in_1_to_2ms_band(self, kmp_rtt):
        mean_ms = kmp_rtt["mean_ms"]
        assert 1.0 <= mean_ms["local_init"] <= 2.0
        assert 1.0 <= mean_ms["port_init"] <= 2.5

    def test_updates_under_a_millisecond(self, kmp_rtt):
        assert kmp_rtt["mean_ms"]["local_update"] < 1.0
        assert kmp_rtt["mean_ms"]["port_update"] < 1.0

    def test_port_init_is_slowest(self, kmp_rtt):
        mean_ms = kmp_rtt["mean_ms"]
        others = ("local_init", "local_update", "port_update")
        assert all(mean_ms["port_init"] > mean_ms[op] for op in others)

    def test_port_update_beats_local_update(self, kmp_rtt):
        """3 messages beat 2 because DP-DP hops are far faster than C-DP
        hops (the paper's 'worth noting' observation)."""
        mean_ms = kmp_rtt["mean_ms"]
        assert mean_ms["port_update"] < mean_ms["local_update"]

    def test_footprints_match_table3(self, kmp_rtt):
        footprint = kmp_rtt["footprint"]
        assert footprint["local_init"] == (4, 104)
        assert footprint["port_init"] == (5, 138)
        assert footprint["local_update"] == (2, 60)
        assert footprint["port_update"] == (3, 78)


class TestFig21:
    @pytest.fixture(scope="class")
    def curve(self):
        rows = {}
        for hops in (2, 6, 10):
            base, auth = (run_trial("fig21", hops=hops, with_p4auth=auth,
                                    num_probes=10)["mean_traversal_s"]
                          for auth in (False, True))
            rows[hops] = (auth / base - 1.0) * 100
        return rows

    def test_two_hop_overhead_near_1pct(self, curve):
        assert 0.5 < curve[2] < 1.5  # paper: 0.95%

    def test_ten_hop_overhead_near_6pct(self, curve):
        assert 5.0 < curve[10] < 7.0  # paper: 5.9%

    def test_overhead_grows_with_hops(self, curve):
        assert curve[2] < curve[6] < curve[10]

    def test_chain_requires_two_switches(self):
        with pytest.raises(ValueError):
            run_trial("fig21", hops=1, with_p4auth=False)


class TestTableI:
    @pytest.fixture(scope="class")
    def matrix(self):
        return {name: {mode: scenario(mode) for mode in MODES}
                for name, scenario in SYSTEMS.items()}

    def test_all_five_systems_covered(self, matrix):
        assert set(matrix) == {"blink", "silkroad", "netcache",
                               "flowradar", "netwarden"}

    def test_every_attack_has_impact(self, matrix):
        # Blink: delivery collapses.
        assert (matrix["blink"]["attack"].impact_value
                < matrix["blink"]["baseline"].impact_value - 0.2)
        # SilkRoad: connections break.
        assert matrix["silkroad"]["attack"].impact_value > 0.2
        # NetCache: latency inflates.
        assert (matrix["netcache"]["attack"].impact_value
                > matrix["netcache"]["baseline"].impact_value + 5)
        # FlowRadar: counters silently wrong.
        assert matrix["flowradar"]["attack"].impact_value > 0
        assert matrix["flowradar"]["attack"].state_poisoned
        # NetWarden: covert channels evade.
        assert matrix["netwarden"]["attack"].impact_value == 0.0

    def test_p4auth_restores_or_detects(self, matrix):
        for system, by_mode in matrix.items():
            assert by_mode["p4auth"].detected, f"{system} did not detect"
            assert not by_mode["p4auth"].state_poisoned, system

    def test_p4auth_preserves_function(self, matrix):
        assert matrix["blink"]["p4auth"].impact_value == pytest.approx(
            matrix["blink"]["baseline"].impact_value, abs=0.05)
        assert matrix["silkroad"]["p4auth"].impact_value == 0.0
        assert matrix["netwarden"]["p4auth"].impact_value == 1.0


class TestTableIII:
    def test_formulas_at_paper_point(self):
        values = formulas(25, 50)
        assert values["init_messages"] == 350
        assert values["init_bytes"] == 9500
        # Known paper inconsistency: Table III prints 125, but its own
        # formula 2m+3n gives 200.  The byte count (5.4 KB) does follow.
        assert values["update_messages"] == 200
        assert values["update_bytes"] == 5400

    def test_live_network_matches_formulas_small(self):
        result = run_trial("table3", m=6, degree=2, seed=3)
        for key in ("init_messages", "init_bytes", "update_messages",
                    "update_bytes"):
            assert result[key] == result[f"formula_{key}"], key

    def test_parallel_bootstrap_beats_serial(self):
        """§XI: simultaneous key initialization 'improves significantly
        when done in parallel' — the live bootstrap overlaps exchanges."""
        result = run_trial("table3", m=6, degree=2, seed=3)
        assert result["parallel_init_time_s"] < result["serial_init_time_s"]
