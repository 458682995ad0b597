"""repro.verify — static analysis for the data-plane programs.

Three analyzer families over the IR in :mod:`repro.verify.ir`, whose
register and table declarations are read off the installed switch:

* :mod:`repro.verify.flow` — one information-flow pass: key-material
  secrecy (TAINT*) and the persona-steerable surface (SURF*),
* :mod:`repro.verify.resources_lint` — Tofino budget linting (RES*),
* :mod:`repro.verify.invariants` — PISA pipeline invariants (INV*),

plus :mod:`repro.verify.live`, which checks what the installed mapping
table exposes (LIVE002), and :mod:`repro.verify.mutants`, the
seeded-violation self-test.  :func:`analyze` is the one list of them;
``python -m repro verify`` is the CLI.

Only the findings model, the IR and :func:`analyze` live here; the
analyzers are imported in its body so that ``import repro.verify``
stays cheap and free of cycles with :mod:`repro.systems`.
"""

from typing import List

from repro.verify.findings import Finding, Report, Severity, make_finding
from repro.verify.ir import Program


def analyze(program: Program) -> List[Finding]:
    """Every analyzer over one program: flow, resources, invariants, and
    the live mapping check when the program carries its switch."""
    from repro.verify.flow import analyze_flow
    from repro.verify.invariants import analyze_invariants
    from repro.verify.live import analyze_live
    from repro.verify.resources_lint import analyze_resources

    findings = (analyze_flow(program) + analyze_resources(program)
                + analyze_invariants(program))
    if program.switch is not None:
        findings += analyze_live(program)
    return findings


__all__ = ["Finding", "Program", "Report", "Severity", "analyze",
           "make_finding"]
