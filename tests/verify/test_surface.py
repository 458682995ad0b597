"""SURF001 on synthetic IR: the wire-influence side of the flow pass.

Each program here is a minimal pipeline exercising one propagation rule
of :mod:`repro.verify.flow`: keyed digests guard headers, unkeyed
hashes propagate, registers carry influence, secret registers are
exempt, and index-only influence still flags.
"""

from repro.verify.ir import (
    Const,
    FieldRef,
    HashDigest,
    MetaRef,
    Program,
    RegRead,
    RegReadModifyWrite,
    RegWrite,
    RegisterDecl,
    SetMeta,
    StageDecl,
)
from repro.verify.flow import analyze_flow


def _program(ops, registers):
    return Program(name="synthetic",
                   stages=[StageDecl("s0", tuple(ops))],
                   registers=list(registers))


def _surf_subjects(findings):
    assert all(f.rule == "SURF001" for f in findings)
    return {f.subject for f in findings}


class TestWireInfluence:
    def test_raw_header_write_flags(self):
        program = _program(
            [RegWrite("state", Const(0), FieldRef("hdr", "util"))],
            [RegisterDecl("state", 32, 8)])
        assert _surf_subjects(analyze_flow(program)) == {"state"}

    def test_constant_write_is_clean(self):
        program = _program(
            [RegWrite("state", Const(0), Const(7))],
            [RegisterDecl("state", 32, 8)])
        assert analyze_flow(program) == []

    def test_influenced_index_alone_flags(self):
        program = _program(
            [RegWrite("state", FieldRef("hdr", "slot"), Const(7))],
            [RegisterDecl("state", 32, 8)])
        findings = analyze_flow(program)
        assert _surf_subjects(findings) == {"state"}
        assert "index" in findings[0].message

    def test_one_finding_per_register(self):
        program = _program(
            [RegWrite("state", Const(0), FieldRef("hdr", "a")),
             RegWrite("state", Const(1), FieldRef("hdr", "b"))],
            [RegisterDecl("state", 32, 8)])
        assert len(analyze_flow(program)) == 1


class TestKeyedDigestGuard:
    def test_keyed_digest_guards_header_downstream(self):
        program = _program(
            [HashDigest("ok", (FieldRef("hdr", "util"),), keyed=True),
             RegWrite("state", Const(0), FieldRef("hdr", "util"))],
            [RegisterDecl("state", 32, 8)])
        assert analyze_flow(program) == []

    def test_guard_does_not_apply_upstream(self):
        program = _program(
            [RegWrite("state", Const(0), FieldRef("hdr", "util")),
             HashDigest("ok", (FieldRef("hdr", "util"),), keyed=True)],
            [RegisterDecl("state", 32, 8)])
        assert _surf_subjects(analyze_flow(program)) == {"state"}

    def test_guard_covers_whole_header_not_other_headers(self):
        program = _program(
            [HashDigest("ok", (FieldRef("probe", "util"),), keyed=True),
             RegWrite("a", Const(0), FieldRef("probe", "hop")),
             RegWrite("b", Const(0), FieldRef("other", "x"))],
            [RegisterDecl("a", 32, 8), RegisterDecl("b", 32, 8)])
        assert _surf_subjects(analyze_flow(program)) == {"b"}

    def test_unkeyed_hash_propagates_influence(self):
        program = _program(
            [HashDigest("h", (FieldRef("hdr", "util"),), keyed=False),
             RegWrite("state", Const(0), MetaRef("h"))],
            [RegisterDecl("state", 32, 8)])
        assert _surf_subjects(analyze_flow(program)) == {"state"}

    def test_keyed_digest_output_is_clean(self):
        program = _program(
            [HashDigest("ok", (FieldRef("hdr", "util"),), keyed=True),
             RegWrite("state", Const(0), MetaRef("ok"))],
            [RegisterDecl("state", 32, 8)])
        assert analyze_flow(program) == []


class TestRegisterPropagation:
    def test_influence_flows_through_register(self):
        program = _program(
            [RegWrite("relay", Const(0), FieldRef("hdr", "util")),
             RegRead("relay", Const(0), "carried"),
             RegWrite("sink", Const(0), MetaRef("carried"))],
            [RegisterDecl("relay", 32, 8), RegisterDecl("sink", 32, 8)])
        assert _surf_subjects(analyze_flow(program)) == {"relay", "sink"}

    def test_clean_register_read_is_clean(self):
        program = _program(
            [RegWrite("relay", Const(0), Const(1)),
             RegRead("relay", Const(0), "carried"),
             RegWrite("sink", Const(0), MetaRef("carried"))],
            [RegisterDecl("relay", 32, 8), RegisterDecl("sink", 32, 8)])
        assert analyze_flow(program) == []

    def test_rmw_marks_and_propagates(self):
        program = _program(
            [RegReadModifyWrite("acc", Const(0), FieldRef("hdr", "v"),
                                "old"),
             RegWrite("sink", Const(0), MetaRef("old"))],
            [RegisterDecl("acc", 32, 8), RegisterDecl("sink", 32, 8)])
        assert _surf_subjects(analyze_flow(program)) == {"acc", "sink"}


class TestSecretExemption:
    def test_secret_register_never_flagged(self):
        program = _program(
            [RegWrite("keys", Const(0), FieldRef("hdr", "util")),
             SetMeta("m", FieldRef("hdr", "util")),
             RegWrite("keys", MetaRef("m"), Const(0))],
            [RegisterDecl("keys", 64, 4, secret=True)])
        assert analyze_flow(program) == []

    def test_secret_rmw_dst_still_carries_wire_influence(self):
        # The secret register is exempt; the value read back out of the
        # RMW is not.
        program = _program(
            [RegReadModifyWrite("keys", Const(0), FieldRef("hdr", "util"),
                                "x"),
             RegWrite("counter", Const(0), MetaRef("x"))],
            [RegisterDecl("keys", 64, 4, secret=True),
             RegisterDecl("counter", 32, 4)])
        assert _surf_subjects([f for f in analyze_flow(program)
                               if f.rule == "SURF001"]) == {"counter"}


class TestStrippedDigestPinpoint:
    def test_unkeying_p4auth_exposes_expected_seq(self):
        from repro.verify.mutants import mutant_stripped_digest
        subjects = _surf_subjects([
            f for f in analyze_flow(mutant_stripped_digest())
            if f.rule == "SURF001"])
        assert "p4auth_expected_seq" in subjects
