"""Chaos matrix: SIGKILL the controller at every journal record type.

Each trial arms a :class:`~repro.faults.controller.ControllerKillSwitch`
on one record type, crashes the controller mid-burst, warm-restarts from
the surviving journal, and finishes the workload.  The crash trial
states its invariants as named checks and returns the verdict with its
numbers; a clean trial is one whose verdict passed:

- zero forged writes (the data plane's sequence never runs ahead of
  the controller's — nothing wrote that the controller didn't sign);
- zero self-inflicted replay / digest / DoS alerts (P4Auth's own
  defenses stay silent across the restart);
- no permanent sequence divergence (controller and every switch agree
  exactly once traffic quiesces).
"""

from __future__ import annotations

import pytest

from repro.engine.registry import get_spec
from repro.engine.runner import execute_trial
from repro.experiments.store_recovery import KILL_POINTS
from tests.conftest import run_trial


def _crash(**params):
    return run_trial("controller_crash_recovery", **params)


def assert_clean(result):
    assert result["passed"], [check for check in result["invariants"]
                              if not check["passed"]]


class TestKillPointMatrix:
    @pytest.mark.parametrize("kill_on", KILL_POINTS)
    def test_kill_at_record_type_recovers_clean(self, kill_on):
        result = _crash(kill_on=kill_on, m=9, degree=2,
                        requests_per_switch=4, seed=3)
        assert_clean(result)
        # The kill must actually have fired mid-run at the armed
        # record ("time" arms a timer instead of a record type).
        if kill_on != "time":
            assert result["killed_at_record"] == kill_on
        assert result["phase2_completed"] == 9 * 4

    def test_fsync_always_matrix_point(self):
        result = _crash(kill_on="seq_advance", m=9, degree=2,
                        requests_per_switch=4, fsync="always", seed=3)
        assert_clean(result)
        assert result["killed_at_record"] == "seq_advance"

    def test_crash_with_snapshots_enabled(self):
        result = _crash(kill_on="batch_close", m=9, degree=2,
                        requests_per_switch=4, snapshot_every=8, seed=3)
        assert_clean(result)
        assert result["snapshot_used"]


class TestProductionScale:
    """The ISSUE acceptance point: a 100-switch fleet."""

    def test_m100_recovers_with_all_defenses_silent(self):
        spec = get_spec("controller_crash_recovery")
        (plan,) = spec.expand(sweep={"kill_on": ["seq_advance"],
                                     "m": [100], "seed": [1]})
        result, host = execute_trial(spec, plan)
        assert_clean(result)
        assert result["switches_restored"] == 100
        assert result["phase2_completed"] == 100 * 4
        assert host["recovery_s"] < 5.0
