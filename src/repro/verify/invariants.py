"""Pipeline invariant checker over the verify IR.

Rules (all ERROR severity):

* **INV001** — every declared table has a default action, and every
  ``ApplyTable`` / register op references a table / register the program
  has (the declarations are read off the installed switch, so a dangling
  name is an op list that has drifted from it).  A PISA table with no
  default silently no-ops on miss, which has bitten real programs
  (unexpected forwarding of unauthenticated traffic).
* **INV002** — no register read-after-write within a single stage.  A
  PISA stage touches each register array through one stateful ALU; a
  plain ``RegRead`` after a ``RegWrite`` in the same stage would observe
  the *old* value in hardware even though a Python model happily returns
  the new one.  ``RegReadModifyWrite`` is the atomic single-cycle form
  and is exempt (it both reads and writes in one ALU pass), but a later
  plain read of the same array in the same stage still trips the rule.
* **INV003** — header field access (read or write) requires an earlier
  ``RequireValid`` on that header.  ``RequireValid`` models both the
  parser's validity bit and ``setValid()`` on a header the program
  constructs; validity is feed-forward, so a guard in stage *n* covers
  stages *> n* too.
* **INV004** — any declared header whose name collides with a P4Auth
  wire header must byte-for-byte match the codec layout in
  :func:`repro.core.wire.wire_header_layouts`.
* **INV005** — a constant assigned to a header field must fit the
  field's declared width (and a register-written constant must fit the
  register's cell width).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.wire import wire_header_layouts
from repro.verify.findings import Finding, make_finding
from repro.verify.ir import (
    ApplyTable,
    Const,
    Expr,
    Program,
    RegRead,
    RegReadModifyWrite,
    RegWrite,
    RequireValid,
    SetField,
    field_refs,
    op_input_exprs,
)


def _const_bits_needed(value: int) -> int:
    return max(1, value.bit_length())


def analyze_invariants(program: Program) -> List[Finding]:
    findings: List[Finding] = []
    declared_tables = {t.name: t for t in program.tables}
    declared_headers = {h.name: h for h in program.headers}
    declared_registers = {r.name: r for r in program.registers}

    # ---- INV001: defaults + dangling table references --------------------
    for table in program.tables:
        if not table.has_default:
            findings.append(make_finding(
                "INV001", program.name,
                f"table {table.name!r} has no default action",
                subject=table.name))

    # ---- INV004: wire layout agreement -----------------------------------
    wire_layouts = wire_header_layouts()
    for header in program.headers:
        layout = wire_layouts.get(header.name)
        if layout is None:
            continue
        declared = tuple(header.fields)
        canonical = tuple(layout.fields)
        if declared != canonical:
            findings.append(make_finding(
                "INV004", program.name,
                f"header {header.name!r} declares layout {declared} but "
                f"core.wire defines {canonical}",
                subject=header.name))

    # ---- per-stage walks --------------------------------------------------
    validated: Set[str] = set()  # validity is feed-forward across stages
    for stage in program.stages:
        written_this_stage: Set[str] = set()
        for op_index, op in enumerate(stage.ops):
            def report(rule: str, message: str,
                       subject: Optional[str] = None,
                       _stage: str = stage.name,
                       _idx: int = op_index) -> None:
                findings.append(make_finding(
                    rule, program.name, message,
                    stage=_stage, op_index=_idx, subject=subject))

            if isinstance(op, RequireValid):
                validated.add(op.header)
                continue

            # INV003: every field the op touches needs a validity guard.
            touched: List[Tuple[str, str]] = [
                (ref.header, ref.field)
                for expr in op_input_exprs(op)
                for ref in field_refs(expr)
            ]
            if isinstance(op, SetField):
                touched.append((op.header, op.field))
            for hname, fname in touched:
                if hname not in validated:
                    report("INV003",
                           f"field {hname}.{fname} accessed without a "
                           f"validity guard", subject=hname)

            if isinstance(op, ApplyTable):
                if op.table not in declared_tables:
                    report("INV001",
                           f"op applies undeclared table {op.table!r}",
                           subject=op.table)

            # INV002: plain read after any write to the array this stage.
            if isinstance(op, RegRead):
                if op.register in written_this_stage:
                    report("INV002",
                           f"register {op.register!r} read after write "
                           f"within stage {stage.name!r}",
                           subject=op.register)
            if isinstance(op, (RegWrite, RegReadModifyWrite)):
                written_this_stage.add(op.register)
            if (isinstance(op, (RegRead, RegWrite, RegReadModifyWrite))
                    and op.register not in declared_registers):
                report("INV001",
                       f"op accesses undeclared register {op.register!r}",
                       subject=op.register)

            # INV005: constants must fit their destination width.
            if isinstance(op, SetField):
                decl = declared_headers.get(op.header)
                width = decl.field_bits(op.field) if decl else None
                if width is not None and isinstance(op.expr, Const):
                    if _const_bits_needed(op.expr.value) > width:
                        report("INV005",
                               f"constant {op.expr.value} does not fit "
                               f"{op.header}.{op.field} ({width}b)",
                               subject=op.header)
            if isinstance(op, (RegWrite, RegReadModifyWrite)):
                reg = declared_registers.get(op.register)
                if reg is not None and isinstance(op.expr, Const):
                    if _const_bits_needed(op.expr.value) > reg.width_bits:
                        report("INV005",
                               f"constant {op.expr.value} does not fit "
                               f"register {op.register!r} "
                               f"({reg.width_bits}b cells)",
                               subject=op.register)

    return findings


__all__ = ["analyze_invariants"]
