"""Table II: hardware resource overhead of the P4Auth program.

Lowers the verify IR of the baseline L3 program and of the P4Auth
overlay composed over it — both read off the installed switch — to the
:class:`~repro.dataplane.resources.ProgramSpec` cost model, prices them
through the Tofino-calibrated :class:`~repro.dataplane.resources.ResourceModel`
and reports the utilization percentages the paper tabulates.
"""

from __future__ import annotations

from repro.dataplane.resources import ResourceModel, ResourceReport
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext

PROGRAMS = ("baseline", "p4auth")

#: Display names matching the paper's Table II rows.
PROGRAM_LABELS = {"baseline": "Baseline", "p4auth": "With P4Auth"}


def _trial(ctx: TrialContext) -> ResourceReport:
    """Compile one program variant and report its resource usage."""
    program = ctx.params["program"]
    if program not in PROGRAMS:
        raise ValueError(f"program must be one of {PROGRAMS}")
    # Imported here so that loading the experiment catalog stays cheap.
    from repro.core.auth_ir import p4auth_program
    from repro.systems.l3fwd import verify_program
    from repro.verify.resources_lint import spec_from_program

    ir = verify_program() if program == "baseline" else p4auth_program()
    return ResourceModel().report(spec_from_program(ir))


SPEC = register(ExperimentSpec(
    name="table2",
    title="Hardware resource overhead",
    source="Table II",
    trial=_trial,
    grid={"program": list(PROGRAMS)},
    tags=("table", "resources"),
))
