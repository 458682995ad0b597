"""Differential tests: each spec reproduces its builder function
exactly (same parameters + same seed => same numbers), and same-seed
engine runs are deterministic.

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


class TestSpecLegacyParity:
    def test_table2_matches_resource_model(self):
        from repro.experiments.table2_resources import PROGRAMS, run_table2
        run = run_experiment("table2")
        for program in PROGRAMS:
            assert _canon(run.result_for(program=program)) == \
                _canon(run_table2(program))

    def test_table3_matches_legacy_runner(self):
        from repro.experiments.table3_scalability import run_table3
        run = run_experiment("table3", short=True)
        assert _canon(run.only()) == _canon(run_table3(m=9, degree=4,
                                                       seed=1))

    def test_fig20_matches_legacy_runner(self):
        from repro.experiments.fig20_kmp import OPS, run_kmp_rtt
        run = run_experiment("fig20", short=True)
        legacy = run_kmp_rtt(repeats=3, seed=3)
        expected = {"rtts": legacy.rtts, "footprint": legacy.footprint,
                    "mean_ms": {op: legacy.mean_ms(op) for op in OPS}}
        assert _canon(run.only()) == _canon(expected)

    def test_fig21_matches_legacy_runner(self):
        from repro.experiments.fig21_multihop import run_multihop
        run = run_experiment("fig21", short=True)
        assert len(run.trials) == 4
        for trial in run.trials:
            legacy = run_multihop(trial.params["hops"],
                                  trial.params["with_p4auth"],
                                  num_probes=10, spacing_s=0.005)
            expected = {
                "num_switches": legacy.num_switches,
                "with_p4auth": legacy.with_p4auth,
                "mean_traversal_s": legacy.mean_traversal_s,
                "traversal_times_s": legacy.traversal_times_s,
            }
            assert _canon(trial.result) == _canon(expected)

    def test_int_matches_legacy_runner(self):
        from repro.experiments.int_manipulation import run_int_manipulation
        run = run_experiment("int", short=True)
        for trial in run.trials:
            legacy = run_int_manipulation(trial.params["mode"],
                                          num_probes=10)
            assert _canon(trial.result) == _canon(legacy)

    def test_aggregation_matches_legacy_runner(self):
        from repro.experiments.attack2_aggregation import run_aggregation
        run = run_experiment("aggregation", short=True)
        for trial in run.trials:
            legacy = run_aggregation(trial.params["mode"], chunks=8)
            assert _canon(trial.result) == _canon(legacy)

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
            assert _canon(run.only()) == _canon(direct)
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
