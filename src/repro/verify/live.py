"""What an installed switch exposes to C-DP operations (rule LIVE002).

A program's declarations are read off its switch
(:meth:`repro.verify.ir.Program.from_switch`), so there is no layout to
diff.  What is left to check on the live object is a property of the
installed *entries*:

* **LIVE002** — a P4Auth-internal or secret register reachable through
  the live ``reg_id_to_name_mapping`` table.  The install-time guard
  (:meth:`~repro.core.auth_dataplane.P4AuthDataplane.map_register`)
  refuses such mappings; this check catches entries smuggled in behind
  its back (which is exactly what the mutant battery does).
"""

from __future__ import annotations

from typing import List

from repro.core.secrets import is_internal_register
from repro.verify.findings import Finding, make_finding
from repro.verify.ir import Program

MAPPING_TABLE = "reg_id_to_name_mapping"


def analyze_live(program: Program, switch) -> List[Finding]:
    """Report internal/secret registers the live mapping table exposes."""
    findings: List[Finding] = []
    table = switch.tables.get(MAPPING_TABLE)
    if table is None:
        return findings
    id_map = switch.registers.id_map()
    secret_names = set(program.secret_registers())
    for entry in table.entries():
        reg_id = entry.key[0]
        name = id_map.get(reg_id)
        if name is None:
            continue
        if is_internal_register(name) or name in secret_names:
            findings.append(make_finding(
                "LIVE002", program.name,
                f"mapping table exposes internal/secret register "
                f"{name!r} (regId {reg_id}) to C-DP operations",
                subject=name))
    return findings


__all__ = ["MAPPING_TABLE", "analyze_live"]
