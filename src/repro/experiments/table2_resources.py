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
from repro.engine.spec import ExperimentSpec, TrialContext, claim

PROGRAMS = ("baseline", "p4auth")

#: Table II (TCAM, SRAM, hash units, PHV %) as the paper prints it, and
#: as the cost model prices it: the baseline's PHV is 11.1 against 11.
PAPER = {"baseline": (8.3, 2.5, 1.4, 11.0), "p4auth": (8.3, 3.6, 51.4, 23.1)}
PRICED = {"baseline": (8.3, 2.5, 1.4, 11.1), "p4auth": PAPER["p4auth"]}


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
    claims=tuple(claim(
        f"{program}_resources", "{} / {} / {} / {} %".format(*PAPER[program]),
        lambda run, program=program: tuple(
            run.result_for(program=program)[f"{unit}_pct"]
            for unit in ("tcam", "sram", "hash", "phv")),
        lambda pct, program=program: pct == PRICED[program],
        "{0[0]} / {0[1]} / {0[2]} / {0[3]} %") for program in PROGRAMS),
))
