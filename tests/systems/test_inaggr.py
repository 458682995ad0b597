"""In-network aggregation: switch-side semantics and the Attack 2 demo."""

import pytest

from repro.dataplane.pipeline import Emit
from repro.dataplane.switch import DataplaneSwitch
from repro.engine.runner import run_experiment
from repro.systems.inaggr import (
    AggregationConfig,
    AggregationDataplane,
    make_contribution,
)


def make_agg(num_workers=3):
    switch = DataplaneSwitch("agg", num_ports=num_workers + 1)
    aggregation = AggregationDataplane(
        switch, AggregationConfig(num_workers=num_workers)).install()
    return switch, aggregation


def emits(actions):
    return [a for a in actions if isinstance(a, Emit)]


class TestAggregationDataplane:
    def test_aggregate_emitted_when_complete(self):
        switch, aggregation = make_agg(num_workers=3)
        for worker in range(2):
            actions = switch.process(
                make_contribution(1, 0, worker, 10 * (worker + 1)),
                2 + worker)
            assert emits(actions) == []
        actions = switch.process(make_contribution(1, 0, 2, 30), 4)
        results = emits(actions)
        assert len(results) == 1
        assert results[0].port == 1
        assert results[0].packet.get("agg_result")["value"] == 60

    def test_state_resets_after_emit(self):
        switch, aggregation = make_agg(num_workers=2)
        switch.process(make_contribution(1, 0, 0, 1), 2)
        switch.process(make_contribution(1, 0, 1, 2), 3)
        assert aggregation.agg_count.read(0) == 0
        assert aggregation.agg_sum.read(0) == 0

    def test_duplicate_contribution_ignored(self):
        switch, aggregation = make_agg(num_workers=2)
        switch.process(make_contribution(1, 0, 0, 5), 2)
        switch.process(make_contribution(1, 0, 0, 5), 2)  # retransmit
        assert aggregation.agg_count.read(0) == 1
        assert aggregation.agg_sum.read(0) == 5

    def test_chunks_independent(self):
        switch, aggregation = make_agg(num_workers=2)
        switch.process(make_contribution(1, 0, 0, 5), 2)
        switch.process(make_contribution(1, 1, 0, 7), 2)
        assert aggregation.agg_sum.read(0) == 5
        assert aggregation.agg_sum.read(1) == 7

    def test_missing_workers(self):
        switch, aggregation = make_agg(num_workers=3)
        switch.process(make_contribution(1, 0, 1, 5), 3)
        # Worker 1 is in; workers 0 and 2 are outstanding.
        assert aggregation.agg_bitmap.read(0) == 0b010

    def test_reset_chunk(self):
        switch, aggregation = make_agg(num_workers=3)
        switch.process(make_contribution(1, 0, 1, 5), 3)
        aggregation.reset_chunk(0)
        assert aggregation.agg_bitmap.read(0) == 0  # all outstanding
        assert aggregation.agg_sum.read(0) == 0


class TestAttack2Scenario:
    @pytest.fixture(scope="class")
    def results(self):
        run = run_experiment("aggregation", sweep={"chunks": [15]})
        return {trial.params["mode"]: trial.result for trial in run.trials}

    def test_baseline_all_correct_one_round(self, results):
        baseline = results["baseline"]
        assert baseline["correct_chunks"] == baseline["chunks"]
        assert baseline["jct_rounds"] == 1.0

    def test_attack_corrupts_silently(self, results):
        attack = results["attack"]
        assert attack["correct_chunks"] < attack["chunks"]
        assert attack["jct_rounds"] == 1.0  # nothing noticed anything
        assert attack["alerts"] == 0

    def test_p4auth_correct_with_bounded_jct(self, results):
        p4auth = results["p4auth"]
        assert p4auth["correct_chunks"] == p4auth["chunks"]
        assert p4auth["failed_chunks"] == 0
        assert 1.0 < p4auth["jct_rounds"] < 4.0
        assert p4auth["alerts"] > 0
        assert p4auth["dropped_at_switch"] > 0
