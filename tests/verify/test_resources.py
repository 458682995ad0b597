"""Resource linter: budgets, watermark, and Table II pricing."""

from repro.dataplane.resources import TCAM_BLOCKS
from repro.verify.ir import HashDecl, HeaderDecl, Program, RegisterDecl, \
    TableDecl
from repro.verify.resources_lint import (
    CAPACITIES,
    analyze_resources,
    spec_from_program,
    static_usage,
)


def small_program():
    program = Program("small")
    program.tables = [TableDecl("t", key_bits=32, entries=1024,
                                match_kind="exact")]
    program.registers = [RegisterDecl("r", 32, 1024)]
    program.hashes = [HashDecl("h", 2)]
    program.headers = [HeaderDecl("eth", (("dst", 48), ("src", 48)))]
    return program


class TestPricing:
    def test_spec_lowering_prices_like_the_dynamic_model(self):
        spec = spec_from_program(small_program())
        usage = static_usage(small_program())
        assert usage["tcam_blocks"] == spec.tcam_blocks() == 0
        assert usage["sram_blocks"] == spec.sram_blocks()
        assert usage["hash_units"] == spec.hash_units()
        assert usage["phv_containers"] == spec.phv_containers() == 3

    def test_lpm_and_ternary_price_tcam(self):
        program = small_program()
        program.tables.append(TableDecl("route", key_bits=32, entries=512,
                                        match_kind="lpm"))
        assert static_usage(program)["tcam_blocks"] > 0


class TestBudgetRules:
    def test_small_program_is_clean(self):
        assert analyze_resources(small_program()) == []

    def test_over_capacity_fires_res001(self):
        program = small_program()
        program.tables.append(TableDecl(
            "huge", key_bits=512, entries=1_000_000,
            match_kind="ternary"))
        findings = analyze_resources(program)
        assert any(f.rule == "RES001" and f.subject == "tcam_blocks"
                   for f in findings)

    def test_watermark_fires_res002_not_res001(self):
        program = small_program()
        # 44-bit ternary key: 1 TCAM block per 512 entries; target ~87%.
        entries = 512 * int(TCAM_BLOCKS * 0.87)
        program.tables.append(TableDecl(
            "wide", key_bits=44, entries=entries, match_kind="ternary"))
        rules = [f.rule for f in analyze_resources(program)
                 if f.subject == "tcam_blocks"]
        assert rules == ["RES002"]


class TestTable2Agreement:
    def test_static_p4auth_totals_match_dynamic_reference(self):
        """The linter's totals and the ``table2`` experiment's are one
        lowering of one program, pinned to the paper's row."""
        from repro.core.auth_ir import p4auth_program
        from tests.conftest import run_trial
        static = {
            resource: round(100.0 * used / CAPACITIES[resource], 1)
            for resource, used in static_usage(p4auth_program()).items()}
        report = run_trial("table2", program="p4auth")
        assert static == {
            "tcam_blocks": report.tcam_pct, "sram_blocks": report.sram_pct,
            "hash_units": report.hash_pct,
            "phv_containers": report.phv_pct}
        assert static == {"tcam_blocks": 8.3, "sram_blocks": 3.6,
                          "hash_units": 51.4, "phv_containers": 23.1}
