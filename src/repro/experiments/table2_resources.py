"""Table II: hardware resource overhead of the P4Auth program.

Lowers the verify IR of the baseline L3 program and of the P4Auth
overlay composed over it — both read off the installed switch — to the
:class:`~repro.dataplane.resources.ProgramSpec` cost model, prices them
through the Tofino-calibrated :class:`~repro.dataplane.resources.ResourceModel`
and reports the utilization percentages the paper tabulates.  The
``digest<bits>`` trials price the overlay's ``digest_verify`` op at
each §XI digest width (:func:`~repro.dataplane.resources.digest_width_cost`).
"""

from __future__ import annotations

from repro.dataplane.resources import (
    DIGEST_WIDTHS,
    DigestWidthCost,
    ResourceModel,
    ResourceReport,
    digest_width_cost,
)
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext, claim

PROGRAMS = ("baseline", "p4auth")
#: The §XI trials: P4Auth's digest op at each width, by grid value.
WIDTHS = {f"digest{bits}": bits for bits in DIGEST_WIDTHS}

#: Table II (TCAM, SRAM, hash units, PHV %) as the paper prints it, and
#: as the cost model prices it: the baseline's PHV is 11.1 against 11.
PAPER = {"baseline": (8.3, 2.5, 1.4, 11.0), "p4auth": (8.3, 3.6, 51.4, 23.1)}
PRICED = {"baseline": (8.3, 2.5, 1.4, 11.1), "p4auth": PAPER["p4auth"]}


def _trial(ctx: TrialContext) -> ResourceReport | DigestWidthCost:
    """Compile one program variant and report its resource usage, or
    price the P4Auth digest at one width."""
    program = ctx.params["program"]
    if program not in PROGRAMS and program not in WIDTHS:
        raise ValueError(f"program must be one of {PROGRAMS + tuple(WIDTHS)}")
    # Imported here so that loading the experiment catalog stays cheap.
    from repro.core.auth_ir import p4auth_program
    from repro.systems.l3fwd import verify_program
    from repro.verify.resources_lint import spec_from_program

    if program in WIDTHS:
        units = {decl.name: decl.units for decl in p4auth_program().hashes}
        return digest_width_cost(WIDTHS[program], units["digest_verify"])
    ir = verify_program() if program == "baseline" else p4auth_program()
    return ResourceModel().report(spec_from_program(ir))


def _widths(run) -> dict:
    """Each digest-width column, narrowest width first."""
    costs = [run.result_for(program=program) for program in WIDTHS]
    return {key: [cost[key] for cost in costs] for key in costs[0]}


def _increase_pct(column: list) -> float:
    """The 256-bit value's increase over the 32-bit one, in percent."""
    return 100.0 * (column[-1] - column[0]) / column[0]


SPEC = register(ExperimentSpec(
    name="table2",
    title="Hardware resource overhead",
    source="Table II",
    trial=_trial,
    grid={"program": [*PROGRAMS, *WIDTHS]},
    tags=("table", "resources"),
    claims=tuple(claim(
        f"{program}_resources", "{} / {} / {} / {} %".format(*PAPER[program]),
        lambda run, program=program: tuple(
            run.result_for(program=program)[f"{unit}_pct"]
            for unit in ("tcam", "sram", "hash", "phv")),
        lambda pct, program=program: pct == PRICED[program],
        "{0[0]} / {0[1]} / {0[2]} / {0[3]} %") for program in PROGRAMS) + (
        claim("digest256_resources", "+560 % hash units, +100 % stages (§XI)",
              lambda run: [_increase_pct(_widths(run)[key])
                           for key in ("hash_units", "stages")],
              lambda pct: 540 <= pct[0] <= 580 and pct[1] == 100.0,
              "+{0[0]:.0f} % hash units, +{0[1]:.0f} % stages"),
        claim("digest256_recirculation", "100s of ns per recirculation",
              lambda run: [_widths(run)[key][-1] for key in
                           ("recirculations", "extra_latency_ns")],
              lambda got: got[0] == 1 and got[1] >= 300,
              "{0[0]} recirculation, +{0[1]:.0f} ns"),
        claim("digest_width_scaling", "compute x2 per size step",
              _widths,
              lambda width: width["lanes"] == [1, 2, 4, 8]
              and width["recirculations"][0] == 0
              and all(column == sorted(column) for column in width.values()),
              "lanes {0[lanes]}, hash units {0[hash_units]}, "
              "stages {0[stages]}"),
    ),
))
