"""Integration: the RouteScout (Fig 16) and HULA (Fig 17) defenses.

Short-duration versions of the headline experiments, asserting the
paper's qualitative shapes.
"""

import pytest

from repro.engine.runner import run_experiment


@pytest.fixture(scope="module")
def routescout_results():
    run = run_experiment("fig16", sweep={"duration_s": [20.0],
                                         "attack_start_s": [6.0]})
    return {trial.params["mode"]: trial.result for trial in run.trials}


class TestFig16:
    def test_baseline_favors_faster_path(self, routescout_results):
        baseline = routescout_results["baseline"]
        assert baseline["share_path1"] > 0.55

    def test_attack_shifts_traffic_to_path2(self, routescout_results):
        attack = routescout_results["attack"]
        assert attack["share_path2"] > 0.6  # paper: ~70%

    def test_p4auth_retains_original_split(self, routescout_results):
        baseline = routescout_results["baseline"]
        p4auth = routescout_results["p4auth"]
        assert abs(p4auth["share_path1"] - baseline["share_path1"]) < 0.05

    def test_p4auth_detects_and_skips_epochs(self, routescout_results):
        p4auth = routescout_results["p4auth"]
        assert p4auth["tamper_events"] > 0
        assert p4auth["epochs_skipped"] > 0

    def test_attack_goes_undetected_without_p4auth(self, routescout_results):
        attack = routescout_results["attack"]
        assert attack["tamper_events"] == 0
        assert attack["epochs_skipped"] == 0


@pytest.fixture(scope="module")
def hula_results():
    run = run_experiment("fig17", sweep={"duration_s": [3.0]})
    return {trial.params["mode"]: trial.result for trial in run.trials}


class TestFig17:
    def test_baseline_spreads_roughly_equally(self, hula_results):
        shares = hula_results["baseline"]["shares"]
        for path, share in shares.items():
            assert 0.2 < share < 0.5, f"{path} share {share}"

    def test_attack_concentrates_on_compromised_link(self, hula_results):
        attack = hula_results["attack"]
        assert attack["shares"]["s4"] > 0.7  # paper: >70%
        assert attack["probes_tampered"] > 0

    def test_p4auth_blocks_compromised_link(self, hula_results):
        p4auth = hula_results["p4auth"]
        assert p4auth["shares"]["s4"] < 0.05
        assert p4auth["shares"]["s2"] + p4auth["shares"]["s3"] > 0.95

    def test_p4auth_raises_alerts(self, hula_results):
        assert hula_results["p4auth"]["alerts"] > 0
        assert hula_results["p4auth"]["probes_dropped_at_s1"] > 0

    def test_traffic_still_delivered_under_p4auth(self, hula_results):
        p4auth = hula_results["p4auth"]
        assert p4auth["data_delivered"] > 0.8 * p4auth["data_sent"]
