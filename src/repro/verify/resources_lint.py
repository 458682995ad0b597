"""Static resource linter: price a declared program against the pipe.

The linter converts the verify IR (:class:`~repro.verify.ir.Program`)
into the *same* :class:`~repro.dataplane.resources.ProgramSpec` cost
model the dynamic Table II reproduction uses — one pricing formula, two
consumers — then checks two things:

* **RES001** (ERROR): a resource exceeds its hardware capacity.  This is
  the static twin of the ``RuntimeError`` that
  :meth:`~repro.dataplane.resources.ResourceModel.report` raises.
* **RES002** (WARNING): usage above the 85% watermark — legal but one
  table-size bump away from not fitting.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dataplane.resources import (
    HASH_UNITS,
    PHV_CONTAINERS,
    SRAM_BLOCKS,
    TCAM_BLOCKS,
    ProgramSpec,
)
from repro.verify.findings import Finding, make_finding
from repro.verify.ir import Program

#: Fraction of a capacity above which RES002 fires.
WATERMARK = 0.85

CAPACITIES: Dict[str, int] = {
    "tcam_blocks": TCAM_BLOCKS,
    "sram_blocks": SRAM_BLOCKS,
    "hash_units": HASH_UNITS,
    "phv_containers": PHV_CONTAINERS,
}


def spec_from_program(program: Program) -> ProgramSpec:
    """Lower the verify IR to the shared ProgramSpec cost model."""
    spec = ProgramSpec(program.name)
    for table in program.tables:
        spec.add_table(table.name, key_bits=table.key_bits,
                       entries=table.entries,
                       uses_tcam=table.match_kind in ("ternary", "lpm"),
                       action_data_bits=table.action_bits)
    for reg in program.registers:
        spec.add_register(reg.name, reg.width_bits, reg.size)
    for hsh in program.hashes:
        spec.add_hash(hsh.name, hsh.units)
    for header in program.headers:
        spec.add_headers(header.name, header.bit_width)
    return spec


def static_usage(program: Program) -> Dict[str, int]:
    """Raw block/unit counts recomputed from the declaration alone."""
    spec = spec_from_program(program)
    return {
        "tcam_blocks": spec.tcam_blocks(),
        "sram_blocks": spec.sram_blocks(),
        "hash_units": spec.hash_units(),
        "phv_containers": spec.phv_containers(),
    }


def analyze_resources(program: Program) -> List[Finding]:
    """Budget + watermark checks."""
    findings: List[Finding] = []
    usage = static_usage(program)

    for resource, used in usage.items():
        capacity = CAPACITIES[resource]
        if used > capacity:
            findings.append(make_finding(
                "RES001", program.name,
                f"{resource} usage {used} exceeds capacity {capacity}",
                subject=resource))
        elif used > capacity * WATERMARK:
            findings.append(make_finding(
                "RES002", program.name,
                f"{resource} usage {used}/{capacity} above "
                f"{int(WATERMARK * 100)}% watermark",
                subject=resource))

    return findings


__all__ = [
    "CAPACITIES",
    "WATERMARK",
    "analyze_resources",
    "spec_from_program",
    "static_usage",
]
