"""Chaos specs through the engine: the smoke scenarios pass and report
stably."""

import pytest

from repro.engine.registry import get_spec
from repro.engine.runner import run_experiment
from repro.engine.spec import TrialContext

#: The two cheap scenarios (CI's chaos-smoke job).
SMOKE_SCENARIOS = ("kmp-blackout", "crash-restart")


def test_smoke_scenarios_are_registered_and_cheap():
    specs = {name: get_spec(name)
             for name in SMOKE_SCENARIOS + ("lossy-fig17",)}
    for name, spec in specs.items():
        assert spec.source == "chaos" and "chaos" in spec.tags
        assert spec.defaults["scenario"] == name
    # The expensive one stays out of smoke.
    assert all(specs[name].defaults["duration_s"]
               < specs["lossy-fig17"].defaults["duration_s"]
               for name in SMOKE_SCENARIOS)


@pytest.mark.parametrize("name", SMOKE_SCENARIOS)
def test_smoke_scenario_passes(name):
    result = run_experiment(name).result_for()
    assert result["scenario"] == name
    assert result["seed"] == 1
    assert result["passed"], result["invariants"]
    assert all(inv["passed"] for inv in result["invariants"])
    assert set(result) == {"scenario", "seed", "passed", "invariants",
                           "metrics"}


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        run_experiment("no-such-scenario")


def test_same_seed_gives_identical_reports():
    first = run_experiment("kmp-blackout", sweep={"seed": [3]}).result_for()
    second = run_experiment("kmp-blackout", sweep={"seed": [3]}).result_for()
    assert first["seed"] == 3
    assert first["invariants"] == second["invariants"]
    assert first["metrics"] == second["metrics"]


def test_report_trial_result_names_the_failure():
    ctx = TrialContext(params={"scenario": "demo"}, seed=9)
    ctx.check("holds", True, "fine")
    ctx.check("breaks", False, "boom")
    result = ctx.verdict()
    assert result["passed"] is False
    assert [(inv["name"], inv["detail"]) for inv in result["invariants"]
            if not inv["passed"]] == [("breaks", "boom")]
