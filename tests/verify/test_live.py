"""The IR is read off the installed switch; LIVE002 checks its entries."""

import pytest

from repro.core.secrets import is_secret_register
from repro.systems.l3fwd import verify_program
from repro.verify.ir import Program, RegRead, Const, StageDecl
from repro.verify.live import analyze_live


def rules(findings):
    return [f.rule for f in findings]


def assert_decls_are_the_switch(program):
    view = program.switch.introspect()
    assert {r.name: (r.width_bits, r.size) for r in program.registers} == {
        name: (layout["width_bits"], layout["size"])
        for name, layout in view["registers"].items()}
    assert {t.name: (t.key_bits, t.entries, t.match_kind, t.has_default)
            for t in program.tables} == {
        name: (info["key_bits"], info["entries"], info["match_kind"],
               info["has_default"])
        for name, info in view["tables"].items()}
    assert all(r.secret == is_secret_register(r.name)
               for r in program.registers)


class TestAgreement:
    def test_l3fwd_declaration_matches_its_switch(self):
        program = verify_program()
        assert_decls_are_the_switch(program)
        assert analyze_live(program, program.switch) == []

    def test_p4auth_declaration_matches_reference_switch(self):
        from repro.core.auth_ir import p4auth_program
        program = p4auth_program()
        assert_decls_are_the_switch(program)
        assert set(program.secret_registers()) == {
            "p4auth_keys_v0", "p4auth_keys_v1", "p4auth_kauth",
            "p4auth_pending_r1", "p4auth_pending_s1"}
        assert analyze_live(program, program.switch) == []

    def test_every_registered_program_is_its_switch(self):
        from repro.verify.registry import all_entries
        for entry in all_entries():
            assert_decls_are_the_switch(entry.program())


class TestDerivation:
    def test_constructor_argument_reaches_the_ir(self):
        # No second edit: the declaration is whatever was installed.
        from repro.dataplane.switch import DataplaneSwitch
        from repro.systems.blink import BlinkDataplane
        switch = DataplaneSwitch("b", num_ports=4)
        BlinkDataplane(switch, num_prefixes=32).install()
        program = Program.from_switch("blink", switch, [])
        assert {r.name: r.size for r in program.registers} == {
            "blink_active_nh": 32, "blink_backup_nh": 32,
            "blink_loss_streak": 32}

    def test_sizing_point_is_one_configuration_of_l3fwd(self):
        program = verify_program()
        assert program.register("flow_stats").size == 8192
        assert program.table("l2_rewrite").key_bits == 48
        assert (program.table("ipv4_lpm").action_bits,
                program.table("l2_rewrite").action_bits) == (64, 80)

    def test_op_on_a_register_the_switch_lacks_fires_inv001(self):
        from repro.verify.invariants import analyze_invariants
        program = verify_program()
        program.stages.append(StageDecl("l3fwd", (
            RegRead("phantom", Const(0), "x"),)))
        findings = analyze_invariants(program)
        assert rules(findings) == ["INV001"]
        assert findings[0].subject == "phantom"

    def test_p4auth_composes_over_another_base(self):
        from repro.core.auth_ir import p4auth_over
        from repro.systems import hula
        program = p4auth_over(hula.verify_program(), "hula_best_hop")
        assert [s.name for s in program.stages] == [
            "p4auth_verify", "hula", "p4auth_sign"]
        assert program.register("hula_best_hop") is not None
        assert program.register("p4auth_kauth").secret
        assert analyze_live(program, program.switch) == []


class TestStageDivergence:
    def test_missing_stage_fails_at_construction(self):
        switch = verify_program().switch
        with pytest.raises(ValueError, match="'imaginary'"):
            Program.from_switch("l3fwd", switch,
                                [StageDecl("imaginary", ())])

    def test_out_of_order_stage_fails_at_construction(self):
        from repro.core.auth_ir import p4auth_program
        switch = p4auth_program().switch
        with pytest.raises(ValueError, match="'p4auth_verify'"):
            Program.from_switch("p4auth", switch, [
                StageDecl("l3fwd", ()), StageDecl("p4auth_verify", ())])

    def test_check_stages_false_skips_stage_diff(self):
        switch = verify_program().switch
        program = Program.from_switch(
            "l3fwd", switch, [StageDecl("imaginary", ())],
            check_stages=False)
        assert [s.name for s in program.stages] == ["imaginary"]

    def test_flowradar_has_no_live_stage_by_design(self):
        from repro.systems import flowradar
        program = flowradar.verify_program()
        assert program.switch.introspect()["stages"] == []
        assert [s.name for s in program.stages] == ["fr_encode"]


class TestMappingExposure:
    def test_smuggled_secret_mapping_fires_live002(self):
        from repro.core.auth_ir import p4auth_program
        from repro.verify.mutants import _smuggled_mapping_switch
        findings = analyze_live(p4auth_program(),
                                _smuggled_mapping_switch())
        assert rules(findings) == ["LIVE002"]
        assert findings[0].subject == "p4auth_kauth"

    def test_install_guard_still_refuses_direct_mapping(self):
        # The static rule backstops a live guard; both must hold.
        from repro.core.auth_dataplane import P4AuthDataplane
        from repro.dataplane.switch import DataplaneSwitch
        switch = DataplaneSwitch("guard", 2)
        auth = P4AuthDataplane(switch, k_seed=1).install()
        with pytest.raises(PermissionError):
            auth.map_register("p4auth_kauth")
