"""Mutant battery: every seeded violation must be caught, by the right
rule, and the unmutated program must stay warning-only clean."""

from repro.verify import analyze
from repro.verify.mutants import (
    mutant_budget_bust,
    mutant_key_leak,
    mutant_missing_default,
    mutant_smuggled_mapping,
    mutant_stripped_digest,
    run_selftest,
    selftest_ok,
)

#: The base p4auth program's only expected rule: the l3fwd flow counter
#: is (intentionally) wire-indexed persona surface, a WARNING.
BASELINE_RULES = {"SURF001"}


def _rules(program):
    return {f.rule for f in analyze(program)}


class TestIndividualMutants:
    def test_key_leak_caught_by_taint001(self):
        assert "TAINT001" in _rules(mutant_key_leak())

    def test_budget_bust_caught_by_res001(self):
        assert "RES001" in _rules(mutant_budget_bust())

    def test_missing_default_caught_by_inv001(self):
        assert "INV001" in _rules(mutant_missing_default())

    def test_stripped_digest_caught_by_surf001(self):
        assert "SURF001" in _rules(mutant_stripped_digest())

    def test_mutants_do_not_cross_contaminate(self):
        # Each mutation is surgical: it must trip its own rule and no
        # other ERROR rule family (the baseline SURF001 warning rides
        # along on every p4auth-derived mutant that keeps flow_stats).
        assert _rules(mutant_budget_bust()) == {"RES001"} | BASELINE_RULES
        assert _rules(mutant_missing_default()) == {"INV001"} | BASELINE_RULES
        assert _rules(mutant_key_leak()) == {"TAINT001"} | BASELINE_RULES
        assert (_rules(mutant_smuggled_mapping())
                == {"LIVE002"} | BASELINE_RULES)


class TestBattery:
    def test_selftest_catches_every_mutant(self):
        results = run_selftest()
        assert selftest_ok(results)
        assert len(results) == 5
        by_name = {r.name: r for r in results}
        assert by_name["key_leak"].expected_rule == "TAINT001"
        assert by_name["budget_bust"].expected_rule == "RES001"
        assert by_name["missing_default"].expected_rule == "INV001"
        assert by_name["stripped_digest"].expected_rule == "SURF001"
        assert by_name["smuggled_mapping"].expected_rule == "LIVE002"
        for result in results:
            assert result.expected_rule in result.rules_fired

    def test_unmutated_p4auth_has_no_error_rules(self):
        from repro.core.auth_ir import p4auth_program
        assert _rules(p4auth_program()) == BASELINE_RULES
