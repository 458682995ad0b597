"""Differential tests: a spec's trial function is its experiment's one
entry point (called by hand with a plan's params and seed it returns
exactly what the engine records, reading only declared parameters), and
same-seed engine runs are deterministic.

Every comparison canonicalizes both sides through the same
``to_jsonable`` the runner applies, so a drift in any field — not just
the headline numbers — fails loudly.
"""

from repro.engine import (
    TrialContext,
    canonical_json,
    get_spec,
    run_experiment,
    to_jsonable,
)


def _canon(value) -> str:
    return canonical_json(to_jsonable(value))


class _ReadRecorder(dict):
    """Trial params that remember every key the trial reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def assert_single_entry_point(name):
    """The spec's first ``--short`` plan, run by hand, equals the
    engine's trial byte for byte, and every parameter the trial reads is
    one the spec declares.  A trial's host-clock readings go to
    ``ctx.host``, never into what it returns, so nothing is excluded."""
    spec = get_spec(name)
    plan = spec.expand(short=True)[0]
    params = _ReadRecorder(plan.params)
    direct = to_jsonable(spec.trial(TrialContext(params, plan.seed)))
    run = run_experiment(name, short=True, sweep={
        axis: [plan.params[axis]] for axis in plan.varied})
    assert _canon(direct) == _canon(run.result_for())
    assert params.read <= set(spec.param_names()), \
        sorted(params.read - set(spec.param_names()))


class TestSpecLegacyParity:
    def test_table2_matches_resource_model(self):
        assert_single_entry_point("table2")

    def test_table3_matches_legacy_runner(self):
        assert_single_entry_point("table3")

    def test_fig20_matches_legacy_runner(self):
        assert_single_entry_point("fig20")

    def test_fig21_matches_legacy_runner(self):
        assert_single_entry_point("fig21")

    def test_int_matches_legacy_runner(self):
        assert_single_entry_point("int")

    def test_aggregation_matches_legacy_runner(self):
        assert_single_entry_point("aggregation")

    def test_fig16_trial_is_the_entry_point(self):
        assert_single_entry_point("fig16")

    def test_fig17_trial_is_the_entry_point(self):
        assert_single_entry_point("fig17")

    def test_fct_trial_is_the_entry_point(self):
        assert_single_entry_point("fct")

    def test_controller_crash_recovery_trial_is_the_entry_point(self):
        assert_single_entry_point("controller_crash_recovery")

    def test_store_journal_overhead_trial_is_the_entry_point(self):
        assert_single_entry_point("store_journal_overhead")

    def test_cdp_batch_throughput_trial_is_the_entry_point(self):
        assert_single_entry_point("cdp_batch_throughput")

    def test_cdp_batch_lossy_trial_is_the_entry_point(self):
        assert_single_entry_point("cdp_batch_lossy")

    def test_chaos_spec_matches_scenario_runner(self):
        """The engine hands a chaos trial exactly the spec's defaults;
        the trial derives its own fault plan from them, so calling the
        trial function with ``TrialContext(params, seed)`` by hand gives
        the same report."""
        for name, duration_s in (("kmp-blackout", 1.5),
                                 ("crash-restart", 1.0)):
            params = {"scenario": name, "seed": 1,
                      "duration_s": duration_s}
            direct = get_spec(name).trial(TrialContext(dict(params), 1))
            run = run_experiment(name)
            assert run.trials[0].params == params
            assert _canon(run.result_for()) == _canon(direct)
            assert sorted(direct) == ["invariants", "metrics", "passed",
                                      "scenario", "seed"]

    def test_persona_matrix_cell_matches_a_hand_built_context(self):
        """A persona cell builds its PersonaSpec from its own params."""
        params = {"persona": "dos-flooder", "system": "routescout",
                  "attack_rate_hz": 400.0}
        run = run_experiment(
            "persona_matrix", short=True,
            sweep={key: [value] for key, value in params.items()})
        (trial,) = run.trials
        direct = get_spec("persona_matrix").trial(
            TrialContext(dict(trial.params), trial.seed))
        assert _canon(trial.result) == _canon(direct)


class TestDeterminism:
    def test_same_seed_same_results(self):
        first = run_experiment("aggregation", short=True, base_seed=77)
        second = run_experiment("aggregation", short=True, base_seed=77)
        assert _canon([t.as_artifact_entry() for t in first.trials]) == \
            _canon([t.as_artifact_entry() for t in second.trials])

    def test_base_seed_changes_seeded_results(self):
        a = run_experiment("table3", short=True, base_seed=1)
        b = run_experiment("table3", short=True, base_seed=2)
        assert a.trials[0].seed != b.trials[0].seed
