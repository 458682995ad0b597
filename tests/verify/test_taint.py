"""Secrecy side of the flow pass: lattice, keyed-digest declassifier, sinks."""

from repro.verify.ir import (
    ApplyTable,
    BinOp,
    Const,
    EmitPacket,
    ExportTelemetry,
    FieldRef,
    HashDigest,
    KdfDerive,
    MetaRef,
    Program,
    RegRead,
    RegReadModifyWrite,
    RegWrite,
    RegisterDecl,
    SendToController,
    SetField,
    SetMeta,
    StageDecl,
)
from repro.verify.flow import FlowState, Label, analyze_flow


def make_program(*ops, secret_reg=True):
    """One-stage program with a key register and a public counter."""
    program = Program("t")
    program.registers = [
        RegisterDecl("keys", 64, 4, secret=secret_reg),
        RegisterDecl("counter", 32, 4, secret=False),
    ]
    program.stages = [StageDecl("s", tuple(ops))]
    return program


def rules(program):
    return [f.rule for f in analyze_flow(program)]


class TestLattice:
    def test_labels_ordered_for_join(self):
        assert Label.PUBLIC < Label.DIGEST_OK < Label.SECRET
        assert max(Label.PUBLIC, Label.SECRET) is Label.SECRET

    def test_eval_joins_through_alu_ops(self):
        program = make_program()
        state = FlowState(program)
        state.meta["k"] = (Label.SECRET, False)
        expr = BinOp("xor", (Const(5), MetaRef("k")))
        assert state.eval(expr)[0] is Label.SECRET

    def test_unknown_names_default_public(self):
        state = FlowState(make_program())
        assert state.eval(MetaRef("never_set"))[0] is Label.PUBLIC
        assert state.eval(FieldRef("h", "f"))[0] is Label.PUBLIC


class TestSinks:
    def test_secret_field_in_emitted_header_fires_taint001(self):
        program = make_program(
            RegRead("keys", Const(0), "k"),
            SetField("h", "digest", MetaRef("k")),
            EmitPacket(("h",)),
        )
        assert rules(program) == ["TAINT001"]

    def test_secret_emit_expr_fires_taint001(self):
        program = make_program(
            RegRead("keys", Const(0), "k"),
            EmitPacket((), fields=(MetaRef("k"),)),
        )
        assert rules(program) == ["TAINT001"]

    def test_secret_write_to_public_register_fires_taint002(self):
        program = make_program(
            RegRead("keys", Const(0), "k"),
            RegWrite("counter", Const(0), MetaRef("k")),
        )
        assert rules(program) == ["TAINT002"]

    def test_secret_match_key_is_warning_taint003(self):
        program = make_program(
            RegRead("keys", Const(0), "k"),
            ApplyTable("t", (MetaRef("k"),)),
        )
        findings = analyze_flow(program)
        assert [f.rule for f in findings] == ["TAINT003"]
        assert findings[0].severity.name == "WARNING"

    def test_secret_telemetry_and_controller_sinks(self):
        program = make_program(
            RegRead("keys", Const(0), "k"),
            ExportTelemetry((MetaRef("k"),)),
            SendToController((MetaRef("k"),)),
        )
        assert rules(program) == ["TAINT004", "TAINT005"]


class TestDeclassification:
    def test_keyed_digest_is_the_declassifier(self):
        program = make_program(
            RegRead("keys", Const(0), "k"),
            HashDigest("d", (MetaRef("k"), FieldRef("h", "seq")),
                       keyed=True),
            SetField("h", "digest", MetaRef("d")),
            EmitPacket(("h",), fields=(MetaRef("d"),)),
        )
        assert rules(program) == []

    def test_unkeyed_hash_does_not_declassify(self):
        program = make_program(
            RegRead("keys", Const(0), "k"),
            HashDigest("d", (MetaRef("k"),), keyed=False),
            EmitPacket((), fields=(MetaRef("d"),)),
        )
        assert rules(program) == ["TAINT001"]

    def test_unkeyed_hash_of_public_stays_public(self):
        program = make_program(
            SetMeta("r2", Const(7)),
            HashDigest("pk", (MetaRef("r2"),), keyed=False),
            EmitPacket((), fields=(MetaRef("pk"),)),
        )
        assert rules(program) == []

    def test_kdf_output_is_fresh_secret(self):
        program = make_program(
            KdfDerive("master", (Const(1), Const(2))),
            RegWrite("counter", Const(0), MetaRef("master")),
        )
        assert rules(program) == ["TAINT002"]

    def test_kdf_into_secret_register_is_fine(self):
        program = make_program(
            KdfDerive("master", (Const(1),)),
            RegWrite("keys", Const(0), MetaRef("master")),
        )
        assert rules(program) == []


class TestRegisterLabels:
    def test_rmw_dst_joins_stored_and_written(self):
        program = make_program(
            RegReadModifyWrite("keys", Const(0), Const(1), "updated"),
            EmitPacket((), fields=(MetaRef("updated"),)),
        )
        assert rules(program) == ["TAINT001"]

    def test_public_register_flow_is_clean(self):
        program = make_program(
            RegReadModifyWrite("counter", Const(0), Const(1), "n"),
            EmitPacket((), fields=(MetaRef("n"),)),
        )
        assert rules(program) == []
