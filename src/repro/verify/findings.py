"""Findings model for the static-analysis subsystem.

Every analyzer (the information-flow pass, resource linter, invariant
checker, live exposure check) reports :class:`Finding` records: a stable
rule id, a severity, the program and (where applicable) the stage/op
location, and a human-readable message.  TAINT* and SURF001 come from
one pass, :mod:`repro.verify.flow`: the secrecy and integrity sides of
one lattice.  The CLI renders findings as text or JSON and
exits nonzero iff any ERROR-severity finding is present.

Rule catalogue
--------------

========  ========  ====================================================
rule      severity  meaning
========  ========  ====================================================
TAINT001  ERROR     secret-derived value reaches an emitted header field
TAINT002  ERROR     secret written to a non-secret (C-DP-readable) register
TAINT003  WARNING   secret used as a table match key
TAINT004  ERROR     secret-derived value reaches a telemetry export
TAINT005  ERROR     secret-derived value reaches a ToController payload
RES001    ERROR     static resource usage exceeds a hardware budget
RES002    WARNING   static resource usage above the watermark (85%)
INV001    ERROR     table has no default action
INV002    ERROR     register read after write within one stage
INV003    ERROR     header field accessed without a validity guard
INV004    ERROR     wire-format width inconsistent with core.wire
INV005    ERROR     constant does not fit the written field width
LIVE002   ERROR     secret register reachable via the mapping table
SURF001   WARNING   register write wire-influenced without a keyed digest
========  ========  ====================================================
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Severity(enum.IntEnum):
    """Ordered so ``max()`` over findings yields the worst one."""

    INFO = 0
    WARNING = 1
    ERROR = 2


#: rule id -> (default severity, one-line description).
RULES: Dict[str, tuple] = {
    "TAINT001": (Severity.ERROR,
                 "secret-derived value reaches an emitted header field"),
    "TAINT002": (Severity.ERROR,
                 "secret written to a non-secret (C-DP-readable) register"),
    "TAINT003": (Severity.WARNING, "secret used as a table match key"),
    "TAINT004": (Severity.ERROR,
                 "secret-derived value reaches a telemetry export"),
    "TAINT005": (Severity.ERROR,
                 "secret-derived value reaches a ToController payload"),
    "RES001": (Severity.ERROR,
               "static resource usage exceeds a hardware budget"),
    "RES002": (Severity.WARNING,
               "static resource usage above the watermark"),
    "INV001": (Severity.ERROR, "table has no default action"),
    "INV002": (Severity.ERROR,
               "register read after write within one stage"),
    "INV003": (Severity.ERROR,
               "header field accessed without a validity guard"),
    "INV004": (Severity.ERROR,
               "wire-format width inconsistent with core.wire"),
    "INV005": (Severity.ERROR,
               "constant does not fit the written field width"),
    "LIVE002": (Severity.ERROR,
                "secret register reachable via the mapping table"),
    "SURF001": (Severity.WARNING,
                "register write wire-influenced without a keyed digest"),
}


@dataclass(frozen=True)
class Finding:
    """One analyzer verdict, pinned to a rule and a program location."""

    rule: str
    program: str
    message: str
    severity: Severity = Severity.ERROR
    stage: Optional[str] = None
    op_index: Optional[int] = None
    subject: Optional[str] = None  # register / table / header name

    def location(self) -> str:
        parts = [self.program]
        if self.stage is not None:
            parts.append(self.stage)
        if self.op_index is not None:
            parts.append(f"op{self.op_index}")
        return "/".join(parts)

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.name,
            "program": self.program,
            "stage": self.stage,
            "op_index": self.op_index,
            "subject": self.subject,
            "message": self.message,
        }

    def render(self) -> str:
        subject = f" [{self.subject}]" if self.subject else ""
        return (f"{self.severity.name:7s} {self.rule} "
                f"{self.location()}{subject}: {self.message}")


def make_finding(rule: str, program: str, message: str,
                 stage: Optional[str] = None,
                 op_index: Optional[int] = None,
                 subject: Optional[str] = None) -> Finding:
    """A finding carrying the rule's catalogued default severity."""
    if rule not in RULES:
        raise KeyError(f"unknown rule id {rule!r}")
    severity, _ = RULES[rule]
    return Finding(rule=rule, program=program, message=message,
                   severity=severity, stage=stage, op_index=op_index,
                   subject=subject)


@dataclass
class Report:
    """All findings for one or more programs, plus render helpers."""

    findings: List[Finding] = field(default_factory=list)

    def extend(self, more: List[Finding]) -> "Report":
        self.findings.extend(more)
        return self

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def by_rule(self, rule: str) -> List[Finding]:
        return [f for f in self.findings if f.rule == rule]

    @property
    def ok(self) -> bool:
        """True iff no ERROR-severity finding is present."""
        return not self.errors()

    def render_text(self) -> str:
        if not self.findings:
            return "clean: no findings"
        ordered = sorted(self.findings,
                         key=lambda f: (-int(f.severity), f.program,
                                        f.rule, f.stage or ""))
        return "\n".join(f.render() for f in ordered)

    def render_json(self) -> str:
        return json.dumps(
            {"ok": self.ok,
             "errors": len(self.errors()),
             "findings": [f.as_dict() for f in self.findings]},
            indent=2, sort_keys=True)
