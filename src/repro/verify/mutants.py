"""Mutant self-test battery: seeded violations the analyzers must catch.

A static analyzer that never fires is indistinguishable from one that is
broken.  This module takes the *real* P4Auth program declaration and
applies one deliberate violation at a time — a key-to-header leak, a
budget-busting table, a missing default action, an un-keyed verification
digest, and a smuggled secret mapping-table entry — then asserts that
the corresponding analyzer
reports the expected rule id.  ``repro verify --selftest`` runs the
battery and fails if any mutant slips through.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Set

from repro.verify.ir import (
    EmitPacket,
    FieldRef,
    HashDigest,
    MetaRef,
    Program,
    RegRead,
    RegReadModifyWrite,
    RequireValid,
    SetField,
    StageDecl,
    TableDecl,
)
from repro.verify.findings import Finding


def _p4auth_program() -> Program:
    from repro.core.auth_ir import p4auth_program

    return p4auth_program()


# --------------------------------------------------------------------------
# mutations
# --------------------------------------------------------------------------


def mutant_key_leak() -> Program:
    """Emit the raw authentication key in a header field (TAINT001).

    Models the classic bug P4Auth's design rules out: copying key
    material into the digest field instead of running it through the
    keyed digest extern.
    """
    program = _p4auth_program()
    program.name = "p4auth+key_leak"
    program.stages.append(StageDecl("mut_leak", (
        RequireValid("p4auth"),
        RegRead("p4auth_keys_v0", MetaRef("ig_port"), "stolen_key"),
        SetField("p4auth", "digest", MetaRef("stolen_key")),
        EmitPacket(("p4auth",), fields=(FieldRef("p4auth", "digest"),)),
    )))
    return program


def mutant_budget_bust() -> Program:
    """Declare a table far beyond the TCAM budget (RES001)."""
    program = _p4auth_program()
    program.name = "p4auth+budget_bust"
    program.tables.append(TableDecl(
        "mut_huge_acl", key_bits=512, entries=1_000_000,
        match_kind="ternary", action_bits=64))
    return program


def mutant_missing_default() -> Program:
    """Strip the forwarding table's default action (INV001)."""
    program = _p4auth_program()
    program.name = "p4auth+missing_default"
    program.tables = [
        replace(t, has_default=False) if t.name == "ipv4_lpm" else t
        for t in program.tables
    ]
    return program


def mutant_stripped_digest() -> Program:
    """Un-key the C-DP verification digest (SURF001).

    With ``digest_rx`` no longer keyed, the p4auth header is unguarded
    and the expected-sequence register becomes writable straight from
    the wire — the persona-surface rule must flag it.  The l3fwd flow
    counter (p4auth's one *intentional* SURF001 finding) is stripped
    first, so the rule fires on this mutant iff the lost guard itself is
    detected.
    """
    program = _p4auth_program()
    program.name = "p4auth+stripped_digest"
    program.stages = [
        StageDecl(stage.name, tuple(
            replace(op, keyed=False)
            if isinstance(op, HashDigest) and op.keyed else op
            for op in stage.ops
            if not (isinstance(op, RegReadModifyWrite)
                    and op.register == "flow_stats")))
        for stage in program.stages
    ]
    return program


def _smuggled_mapping_switch():
    """Take p4auth's switch, then map a secret register behind the guard.

    ``map_register`` refuses ``p4auth_*`` names, so this installs the
    mapping-table entry directly — exactly the back door LIVE002 exists
    to catch.
    """
    from repro.dataplane.tables import TableEntry

    switch = _p4auth_program().switch
    reg_id = switch.registers.id_of("p4auth_kauth")
    mapping = switch.tables["reg_id_to_name_mapping"]
    mapping.register_action("mut_kauth_read", lambda: None)
    mapping.insert(TableEntry(key=(reg_id, 1), action="mut_kauth_read"))
    return switch


# --------------------------------------------------------------------------
# battery
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MutantResult:
    name: str
    expected_rule: str
    caught: bool
    rules_fired: Set[str]


def _static_rules(program: Program) -> Set[str]:
    from repro.verify.invariants import analyze_invariants
    from repro.verify.resources_lint import analyze_resources
    from repro.verify.surface import analyze_surface
    from repro.verify.taint import analyze_taint

    findings: List[Finding] = []
    findings.extend(analyze_taint(program))
    findings.extend(analyze_resources(program))
    findings.extend(analyze_invariants(program))
    findings.extend(analyze_surface(program))
    return {f.rule for f in findings}


def _live_rules() -> Set[str]:
    from repro.verify.live import analyze_live

    switch = _smuggled_mapping_switch()
    return {f.rule for f in analyze_live(_p4auth_program(), switch)}


_STATIC_MUTANTS: List = [
    ("key_leak", "TAINT001", mutant_key_leak),
    ("budget_bust", "RES001", mutant_budget_bust),
    ("missing_default", "INV001", mutant_missing_default),
    ("stripped_digest", "SURF001", mutant_stripped_digest),
]


def run_selftest() -> List[MutantResult]:
    """Run every mutant; each result records whether it was caught."""
    results: List[MutantResult] = []
    for name, rule, factory in _STATIC_MUTANTS:
        fired = _static_rules(factory())
        results.append(MutantResult(name, rule, rule in fired, fired))
    live_fired = _live_rules()
    results.append(MutantResult(
        "smuggled_mapping", "LIVE002", "LIVE002" in live_fired, live_fired))
    return results


def selftest_ok(results: List[MutantResult]) -> bool:
    return all(r.caught for r in results)


__all__ = [
    "MutantResult",
    "mutant_budget_bust",
    "mutant_key_leak",
    "mutant_missing_default",
    "mutant_stripped_digest",
    "run_selftest",
    "selftest_ok",
]
