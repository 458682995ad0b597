"""One information-flow pass over the verify IR (TAINT001-005, SURF001).

P4Auth's Eqn 4 is one boundary seen from two sides: key material
reaches the wire only through a keyed digest, and wire input reaches
control state only through a verified one.  This pass walks the ops
once (the pipeline is feed-forward, so that is the fixpoint) and
threads a product-lattice point ``(Label, wire_influenced)`` through
every metadata variable, header field and register array:

- **confidentiality** ``PUBLIC < DIGEST_OK < SECRET`` joins by ``max``.
  Sources are the registers declared secret (seeded from
  :mod:`repro.core.secrets`) and every ``KdfDerive`` output;
- **integrity** is a bool that joins by ``or``.  Header fields start
  wire-influenced (an attacker crafts the packet); constants, unset
  metadata and registers nothing influenced has written start clean.

A **keyed** ``HashDigest`` is both the declassifier (its output is
``DIGEST_OK`` and clean) and the endorser of every header its inputs
cover.  An unkeyed hash only propagates.  Secret registers are judged
for secrecy only: key-store state is never SURF001 and never marked
influenced.  Every ``RegReadModifyWrite`` ``dst`` joins the stored cell
with the value written.

* ``EmitPacket`` with a SECRET field or header field   -> TAINT001 (ERROR)
* a SECRET value written to a non-secret register      -> TAINT002 (ERROR)
* a SECRET ``ApplyTable`` key                          -> TAINT003 (WARNING)
* ``ExportTelemetry`` carrying SECRET                  -> TAINT004 (ERROR)
* ``SendToController`` carrying SECRET                 -> TAINT005 (ERROR)
* a non-secret register whose written value or index is wire-influenced
  -> SURF001 (WARNING), once per register.  Wire-driven state is what an
  in-network control system *is*; the findings enumerate the surface the
  persona matrix must cover and P4Auth's checks must front-stop.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Set, Tuple

from repro.verify.findings import Finding, make_finding
from repro.verify.ir import (
    ApplyTable,
    BinOp,
    Const,
    EmitPacket,
    ExportTelemetry,
    Expr,
    FieldRef,
    HashDigest,
    KdfDerive,
    MetaRef,
    Program,
    RegRead,
    RegReadModifyWrite,
    RegWrite,
    SendToController,
    SetField,
    SetMeta,
    field_refs,
)


class Label(enum.IntEnum):
    """Confidentiality; join is ``max``."""

    PUBLIC = 0
    DIGEST_OK = 1
    SECRET = 2


#: One value's lattice point: (confidentiality, wire_influenced).
Flow = Tuple[Label, bool]
CLEAN: Flow = (Label.PUBLIC, False)

#: Sinks whose payload must stay below SECRET: op type -> (rule, noun).
_SINKS = {
    EmitPacket: ("TAINT001", "emitted packet field"),
    ExportTelemetry: ("TAINT004", "telemetry export"),
    SendToController: ("TAINT005", "ToController payload"),
}


def _join(flows: Iterable[Flow]) -> Flow:
    label, wire = CLEAN
    for other_label, other_wire in flows:
        label, wire = max(label, other_label), wire or other_wire
    return label, wire


class FlowState:
    """Lattice points of metadata vars, header fields and register arrays."""

    def __init__(self, program: Program) -> None:
        self.meta: Dict[str, Flow] = {}
        #: Per-field overrides; unset header fields are wire-influenced.
        self.fields: Dict[Tuple[str, str], Flow] = {}
        #: Headers covered by a keyed digest so far.
        self.guarded: Set[str] = set()
        # A register's label is per array and fixed by its declaration;
        # its wire influence is learnt from the writes.
        self.registers: Dict[str, Flow] = {
            r.name: (Label.SECRET if r.secret else Label.PUBLIC, False)
            for r in program.registers}

    def eval(self, expr: Expr) -> Flow:
        if isinstance(expr, Const):
            return CLEAN
        if isinstance(expr, FieldRef):
            label, wire = self.fields.get((expr.header, expr.field),
                                          (Label.PUBLIC, True))
            return label, wire and expr.header not in self.guarded
        if isinstance(expr, MetaRef):
            return self.meta.get(expr.name, CLEAN)
        if isinstance(expr, BinOp):
            return _join(self.eval(arg) for arg in expr.args)
        raise TypeError(f"unknown expr {expr!r}")

    def secret(self, expr: Expr) -> bool:
        return self.eval(expr)[0] is Label.SECRET


def analyze_flow(program: Program) -> List[Finding]:
    """Run the forward pass and return every TAINT and SURF001 finding."""
    findings: List[Finding] = []
    state = FlowState(program)
    flagged: Set[str] = set()

    for stage_name, op_index, op in program.ops():
        def report(rule: str, message: str, subject: str = "") -> None:
            findings.append(make_finding(
                rule, program.name, message,
                stage=stage_name, op_index=op_index,
                subject=subject or None))

        if isinstance(op, SetMeta):
            state.meta[op.dst] = state.eval(op.expr)
        elif isinstance(op, SetField):
            state.fields[(op.header, op.field)] = state.eval(op.expr)
        elif isinstance(op, RegRead):
            state.meta[op.dst] = state.registers.get(op.register, CLEAN)
        elif isinstance(op, (RegWrite, RegReadModifyWrite)):
            value = state.eval(op.expr)
            stored = state.registers.get(op.register, CLEAN)
            if stored[0] is not Label.SECRET:
                if value[0] is Label.SECRET:
                    report("TAINT002",
                           f"SECRET value written to non-secret register "
                           f"{op.register!r}", subject=op.register)
                via = [what for what, flow in
                       (("value", value), ("index", state.eval(op.index)))
                       if flow[1]]
                if via and op.register not in flagged:
                    flagged.add(op.register)
                    report("SURF001",
                           f"register {op.register!r} {'/'.join(via)} is "
                           f"wire-influenced with no keyed digest on the "
                           f"path (persona-steerable surface)",
                           subject=op.register)
                if value[1]:
                    state.registers[op.register] = (stored[0], True)
            if isinstance(op, RegReadModifyWrite):
                # dst carries the updated cell.
                state.meta[op.dst] = _join((stored, value))
        elif isinstance(op, ApplyTable):
            for key in op.keys:
                if state.secret(key):
                    report("TAINT003",
                           f"SECRET value used as match key of table "
                           f"{op.table!r}", subject=op.table)
        elif isinstance(op, HashDigest):
            if op.keyed:
                # Eqn 4: declassify the output, endorse the covered headers.
                state.guarded.update(ref.header for inp in op.inputs
                                     for ref in field_refs(inp))
                state.meta[op.dst] = (Label.DIGEST_OK, False)
            else:
                state.meta[op.dst] = _join(state.eval(inp)
                                          for inp in op.inputs)
        elif isinstance(op, KdfDerive):
            state.meta[op.dst] = (Label.SECRET, False)
        elif isinstance(op, tuple(_SINKS)):
            rule, noun = _SINKS[type(op)]
            for expr in op.fields:
                if state.secret(expr):
                    report(rule, f"SECRET value reaches {noun} {expr!r}")
            for header in op.headers if isinstance(op, EmitPacket) else ():
                for (hname, fname), (label, _) in state.fields.items():
                    if hname == header and label is Label.SECRET:
                        report("TAINT001",
                               f"emitted header {header!r} field "
                               f"{fname!r} carries SECRET data",
                               subject=header)
        # RequireValid: no flow effect.

    return findings


__all__ = ["Flow", "FlowState", "Label", "analyze_flow"]
